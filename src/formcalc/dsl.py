"""Text grammar for expressions and forms.

Expressions:  infix ``+ - * / ^`` (``^`` is power, right associative),
unary minus, integer literals, identifiers as variables, and calls of
sin/cos/exp/log.  ``E`` is reserved for the exponential base constant.

Forms:        form  := term (('+'|'-') term)*
              term  := '(' expr ')' [basis] | basis
              basis := 'd'IDENT ('^' 'd'IDENT)*
so ``(x2) dx1 + (x1) dx2`` is a one-form and ``dx1^dx2`` a basis two-form;
inside a basis ``^`` denotes the wedge.  A term with a coefficient and no
basis is a degree-0 form.  Printing and parsing round-trip canonically.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import sympy as sp

from . import symexpr
from .errors import ParseError
from .forms import Form, collect
from .symexpr import Expr

_FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log}

#: Deepest nesting of parentheses, calls, unary minus and ``^`` chains
#: that an expression may have; deeper input is a ParseError.
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            if i < len(text) and text[i] == ".":
                raise ParseError("float literals are not allowed; use rationals like 1/2", line, column)
            tokens.append(Token("NUMBER", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, column))
            column += i - start
            continue
        if ch in "+-*/^(),":
            tokens.append(Token("OP", ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("END", "", line, column))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.current
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        return self.current.kind == "OP" and self.current.text in ops

    # -- expression grammar -------------------------------------------------

    def expression(self) -> Expr:
        node = self.product()
        while self.at_op("+", "-"):
            op = self.advance().text
            right = self.product()
            node = node + right if op == "+" else node - right
        return node

    def product(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            right = self.unary()
            node = node * right if op == "*" else node / right
        return node

    def unary(self) -> Expr:
        # every nesting (parentheses, call, unary minus, exponent) recurses
        # through here, so one counter bounds the recursion depth
        if self.depth > MAX_NESTING:
            tok = self.current
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.column)
        self.depth += 1
        try:
            if self.at_op("-"):
                self.advance()
                return -self.unary()
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            tok = self.advance()
            exponent = self.unary()
            if not getattr(exponent, "is_Integer", False):
                raise ParseError(
                    f"exponent must be an integer constant, got {symexpr.expr_text(exponent)}",
                    tok.line, tok.column,
                )
            return base**exponent
        return base

    def atom(self) -> Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            try:
                return sp.Integer(int(tok.text))
            except ValueError:  # Python's int <- str digit limit
                raise ParseError(
                    f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                    tok.line, tok.column,
                ) from None
        if tok.kind == "IDENT":
            self.advance()
            if self.at_op("("):
                fn = _FUNCTIONS.get(tok.text)
                if fn is None:
                    raise ParseError(
                        f"unknown function {tok.text!r} (supported: sin, cos, exp, log)",
                        tok.line, tok.column,
                    )
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return fn(arg)
            if tok.text == "E":
                return sp.E
            return sp.Symbol(tok.text)
        if self.at_op("("):
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.column)

    # -- form grammar --------------------------------------------------------

    def form(self, coords: Sequence[str]) -> Form:
        coords = tuple(coords)
        index_of = {name: i for i, name in enumerate(coords)}
        terms: list[tuple[Expr, tuple[int, ...], Token]] = []
        sign = 1
        while True:
            coeff, indices, tok = self.form_term(index_of)
            terms.append((sp.Integer(sign) * coeff, indices, tok))
            if self.at_op("+", "-"):
                sign = 1 if self.advance().text == "+" else -1
                continue
            break
        end = self.current
        if end.kind != "END":
            raise ParseError(f"unexpected trailing input {end.text!r}", end.line, end.column)
        degrees = {len(indices) for _, indices, _ in terms}
        if len(degrees) > 1:
            _, _, tok = terms[-1]
            raise ParseError(
                f"mixed term degrees {sorted(degrees)} in one form", tok.line, tok.column
            )
        return collect(coords, degrees.pop(), ((indices, coeff) for coeff, indices, _ in terms))

    def form_term(self, index_of: dict[str, int]) -> tuple[Expr, tuple[int, ...], Token]:
        tok = self.current
        coeff: Expr = sp.Integer(1)
        have_coeff = False
        if self.at_op("("):
            self.advance()
            coeff = self.expression()
            self.expect_op(")")
            have_coeff = True
        indices: list[int] = []
        if self.current.kind == "IDENT" and self.current.text.startswith("d") and len(self.current.text) > 1:
            indices.append(self.basis_factor(index_of))
            while self.at_op("^"):
                self.advance()
                indices.append(self.basis_factor(index_of))
        elif not have_coeff:
            raise ParseError(
                f"expected a '(coefficient)' or a basis factor like dx1, found "
                f"{self.current.text or 'end of input'!r}",
                self.current.line, self.current.column,
            )
        return coeff, tuple(indices), tok

    def basis_factor(self, index_of: dict[str, int]) -> int:
        tok = self.current
        if tok.kind != "IDENT" or not tok.text.startswith("d") or len(tok.text) < 2:
            raise ParseError(
                f"expected a basis factor like dx1, found {tok.text or 'end of input'!r}",
                tok.line, tok.column,
            )
        self.advance()
        name = tok.text[1:]
        if name not in index_of:
            raise ParseError(f"unknown coordinate {name!r}", tok.line, tok.column)
        return index_of[name]


def parse_expr(text: str) -> Expr:
    """Parse an expression, validate it, and return its canonical form."""
    parser = _Parser(text)
    node = parser.expression()
    end = parser.current
    if end.kind != "END":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.line, end.column)
    return symexpr.simplify_expr(node)


def parse_form(text: str, coords: Sequence[str]) -> Form:
    """Parse a form over the given coordinate names.

    A bare ``0`` is the zero form of degree 0; zero forms of higher degree
    print (and parse back) as ``(0)`` with an explicit basis.
    """
    parser = _Parser(text)
    if parser.current.kind == "NUMBER" and parser.current.text == "0" \
            and parser.tokens[parser.pos + 1].kind == "END":
        return Form.zero(tuple(coords), 0)
    form = parser.form(coords)
    return form


def default_coords(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))
