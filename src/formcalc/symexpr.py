"""Exact symbolic scalars: the coefficient substrate for all forms.

Expressions are sympy trees restricted to rational constants, named
variables, sums, products, quotients, integer powers, and the elementary
functions sin, cos, exp, log.  No floats ever enter a tree; equality
questions reduce to a deterministic canonical form plus rational probing.
"""

from __future__ import annotations

import operator
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Union

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement
from sympy.printing import sstr

from .errors import EvaluationError, UnsupportedExpressionError

Expr = sp.Expr
ExprLike = Union[sp.Expr, int, str, Fraction]

ALLOWED_FUNCTIONS = (sp.sin, sp.cos, sp.exp, sp.log)

#: Probe points are rationals in [-PROBE_RANGE, PROBE_RANGE] with
#: denominators up to PROBE_MAX_DENOMINATOR, drawn from a seeded RNG so
#: every run of a zero test sees the same points.
DEFAULT_PROBE_SEED = 0
PROBE_POINTS = 8
PROBE_RANGE = 3
PROBE_MAX_DENOMINATOR = 7

_FLOAT_NONZERO_TOL = 1e-9
_FLOAT_NOISE_TOL = 1e-15
_RESAMPLE_LIMIT = 40

_BAD_VALUES = (sp.zoo, sp.nan, sp.oo, -sp.oo)


class ZeroStatus(Enum):
    """Three-valued verdict of a symbolic zero test."""

    ZERO = "zero"
    NONZERO = "nonzero"
    PROBABLY_NONZERO = "probably-nonzero"


def as_expr(value: ExprLike) -> Expr:
    """Coerce strings/ints/Fractions into a validated expression.

    Strings go through sympy's parser with ``^`` meaning power and decimal
    literals rationalized; the DSL parser in :mod:`formcalc.dsl` is the
    strict front end with positioned errors.
    """
    if isinstance(value, Fraction):
        e = sp.Rational(value.numerator, value.denominator)
    elif isinstance(value, str):
        e = sp.sympify(value, rational=True, convert_xor=True)
    else:
        e = sp.sympify(value, rational=True)
    validate_expr(e)
    return e


#: Entries kept by the memos of ``_validate`` and ``_canonical``.  Larger
#: tables were no faster on the benchmark and cost resident memory.
_MEMO_SIZE = 2048


@lru_cache(maxsize=_MEMO_SIZE)
def _validate(e: sp.Basic) -> None:
    if isinstance(e, sp.Rational):  # Integer is a Rational
        return
    if e is sp.E:  # produced by exp(1); accepted as a constant
        return
    if isinstance(e, sp.Symbol):
        return
    if isinstance(e, (sp.Add, sp.Mul)):
        for arg in e.args:
            _validate(arg)
        return
    if isinstance(e, sp.Pow):
        if not e.exp.is_Integer:
            raise UnsupportedExpressionError(
                f"only integer powers are supported, got exponent {e.exp}"
            )
        _validate(e.base)
        return
    if isinstance(e, ALLOWED_FUNCTIONS):
        _validate(e.args[0])
        return
    if isinstance(e, sp.Float):
        raise UnsupportedExpressionError(
            f"float constant {e} is not allowed; use an exact rational"
        )
    raise UnsupportedExpressionError(
        f"unsupported node {type(e).__name__} in {e}"
    )


def validate_expr(e: Expr) -> Expr:
    """Raise UnsupportedExpressionError unless ``e`` is in the supported class."""
    _validate(sp.sympify(e))
    return sp.sympify(e)


def _pythagorean_collapse(e: Expr) -> Expr:
    # sin(u)**2 -> 1 - cos(u)**2 for every sine argument, then cancel.
    out = e
    for s in sorted(e.atoms(sp.sin), key=sp.default_sort_key):
        out = out.subs(s**2, 1 - sp.cos(s.args[0]) ** 2)
    return out


def _rational_symbols(e: Expr) -> tuple[Expr, ...] | None:
    """Generators of a function-free tree in cancel's order, or None when
    ``e`` has a node outside rationals, symbols, sums, products and
    integer powers."""
    symbols = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.is_Symbol:
            symbols.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer:
            stack.append(node.base)
        elif not node.is_Rational:
            return None
    return tuple(_sort_gens(symbols))


@lru_cache(maxsize=256)
def _field(gens: tuple[Expr, ...]) -> tuple[FracField, dict]:
    field = FracField(gens, QQ, lex)
    return field, dict(zip(gens, field.ring.gens))


def _combine(parts: list, op):
    # polynomial parts in the ring (no gcd), then the fractions in the field
    polys = [p for p in parts if isinstance(p, PolyElement)]
    fracs = [p for p in parts if not isinstance(p, PolyElement)]
    acc = reduce(op, polys) if polys else fracs.pop()
    for f in fracs:
        acc = op(f, acc)
    return acc


def _to_field(e: Expr, field: FracField, gens: dict):
    """``e`` as a ring element when it is a polynomial, else a field element."""
    if e.is_Symbol:
        return gens[e]
    if e.is_Rational:
        return field.ring.ground_new(QQ(int(e.p), int(e.q)))
    if e.is_Add:
        return _combine([_to_field(a, field, gens) for a in e.args], operator.add)
    if e.is_Mul:
        return _combine([_to_field(a, field, gens) for a in e.args], operator.mul)
    base, n = _to_field(e.base, field, gens), int(e.exp)
    if n < 0 and isinstance(base, PolyElement):
        base = field.field_new(base)
    return base**n


def _cancel_rational(e: Expr, gens: tuple[Expr, ...]) -> Expr:
    """``sp.cancel(e)`` computed in the sparse field QQ(gens).

    Numerator and denominator are coprime integer polynomials; with the
    generators in cancel's order and the denominator's leading coefficient
    positive they are the ones cancel returns, so the tree is the same.
    """
    field, table = _field(gens)
    value = _to_field(e, field, table)
    if isinstance(value, PolyElement):
        common, numer = value.clear_denoms()
        denom = field.ring.ground_new(common)
    else:
        numer, denom = value.numer, value.denom
    if denom.LC < 0:  # a negative power at the root skips the field's sign rule
        numer, denom = -numer, -denom
    return numer.as_expr() / denom.as_expr()


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical(e: Expr) -> Expr:
    # Within one computation the same coefficient is canonicalised many
    # times: every Form construction re-canonicalises canonical coefficients.
    if e.is_Number:
        return e
    gens = _rational_symbols(e)
    if gens is not None:
        try:
            return _cancel_rational(e, gens)
        except ZeroDivisionError:
            pass  # a denominator that expands to zero: cancel gives zoo
    base = sp.cancel(e)
    if not base.atoms(sp.sin):
        return base
    collapsed = sp.cancel(_pythagorean_collapse(base))
    return min((base, collapsed), key=lambda c: (sp.count_ops(c), sp.default_sort_key(c)))


def simplify_expr(e: ExprLike) -> Expr:
    """Deterministic canonical form.

    Function-free trees are rational functions: they are put over a common
    denominator in the sparse field QQ(x...), which gives exactly the tree
    ``sp.cancel`` would.  Trees with sin, cos, exp, log or E go through
    ``sp.cancel`` and a Pythagorean rewrite candidate (kept only when it
    shortens the expression).  The same mathematical tree always lands on
    the same canonical tree; results are memoized.
    """
    return _canonical(sp.sympify(e, rational=True))


def differentiate(e: ExprLike, v: str) -> Expr:
    """Partial derivative with respect to the variable named ``v``, simplified."""
    e = validate_expr(sp.sympify(e, rational=True))
    return simplify_expr(sp.diff(e, sp.Symbol(v)))


def substitute(e: ExprLike, bindings: Mapping[str, ExprLike]) -> Expr:
    """Simultaneous substitution of variables by expressions, then simplify."""
    e = validate_expr(sp.sympify(e, rational=True))
    table = {}
    for name, value in bindings.items():
        table[sp.Symbol(name)] = validate_expr(sp.sympify(value, rational=True))
    return simplify_expr(e.xreplace(table))


def eval_at(e: ExprLike, point: Mapping[str, object]) -> Union[Fraction, float]:
    """Evaluate at a rational point: exact Fraction for function-free trees,
    float otherwise.

    Raises EvaluationError for unbound variables, division by zero at the
    point, or values outside the real domain.
    """
    e = validate_expr(sp.sympify(e, rational=True))
    table = {}
    for name, value in point.items():
        frac = Fraction(value) if not isinstance(value, Fraction) else value
        table[sp.Symbol(name)] = sp.Rational(frac.numerator, frac.denominator)
    missing = sorted(s.name for s in e.free_symbols if s not in table)
    if missing:
        raise EvaluationError(f"unbound variable(s): {', '.join(missing)}")
    val = e.xreplace(table)
    if val.has(*_BAD_VALUES):
        raise EvaluationError("division by zero (or pole) at evaluation point")
    if val.is_Rational:
        return Fraction(int(val.p), int(val.q))
    approx = val.evalf(20)
    if approx.has(*_BAD_VALUES):
        raise EvaluationError("division by zero (or pole) at evaluation point")
    if not approx.is_real:
        raise EvaluationError(f"non-real value {approx} at evaluation point")
    return float(approx)


def random_rational(rng: random.Random) -> Fraction:
    den = rng.randint(1, PROBE_MAX_DENOMINATOR)
    num = rng.randint(-PROBE_RANGE * den, PROBE_RANGE * den)
    return Fraction(num, den)


def probe_point(names: Iterable[str], rng: random.Random) -> dict[str, Fraction]:
    return {name: random_rational(rng) for name in names}


def is_zero(e: ExprLike, *, seed: int | None = None, points: int = PROBE_POINTS) -> ZeroStatus:
    """Three-valued zero test.

    ZERO iff the canonical form is the literal 0.  Otherwise the expression
    is evaluated at ``points`` seeded random rational points (resampling on
    singularities); any clearly nonzero value gives NONZERO.  If every probe
    vanishes: function-free trees are decided exactly by their canonical
    rational normal form, anything else is PROBABLY_NONZERO.
    """
    e = validate_expr(sp.sympify(e, rational=True))
    s = simplify_expr(e)
    if s == 0:
        return ZeroStatus.ZERO
    rng = random.Random(DEFAULT_PROBE_SEED if seed is None else seed)
    names = sorted(sym.name for sym in s.free_symbols)
    evaluated = 0
    attempts = 0
    while evaluated < points and attempts < points + _RESAMPLE_LIMIT:
        attempts += 1
        try:
            val = eval_at(s, probe_point(names, rng))
        except EvaluationError:
            continue
        evaluated += 1
        if isinstance(val, Fraction):
            if val != 0:
                return ZeroStatus.NONZERO
        elif abs(val) > _FLOAT_NONZERO_TOL:
            return ZeroStatus.NONZERO
        elif abs(val) > _FLOAT_NOISE_TOL:
            # ambiguous magnitude: count the probe but do not call it nonzero
            continue
    if _rational_symbols(s) is not None:
        # canonical form is a nonzero rational function, hence a nonzero
        # function of its variables: the probes were simply unlucky
        return ZeroStatus.NONZERO
    return ZeroStatus.PROBABLY_NONZERO


def expr_text(e: ExprLike) -> str:
    """Canonical text of an expression in the DSL grammar (``^`` for powers)."""
    return sstr(sp.sympify(e, rational=True)).replace("**", "^")

