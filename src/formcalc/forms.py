"""Skew-symmetric differential forms on a flat coordinate space.

A degree-p form is a sparse table from strictly increasing coordinate-index
tuples to symbolic coefficients.  Construction canonicalizes: coefficients
are simplified, zero coefficients pruned, and any degree above the space
dimension collapses to the zero form.  Wedge products, sums, scaling, and
the flat exterior derivative all preserve that canonical shape.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

import sympy as sp

from . import symexpr
from .errors import DimensionError
from .symexpr import Expr, ZeroStatus

MultiIndex = tuple[int, ...]


class ClosureStatus(Enum):
    CLOSED = "closed"
    NOT_CLOSED = "not-closed"
    UNDETERMINED = "undetermined"


def sort_index(indices: Sequence[int]) -> tuple[int, MultiIndex] | None:
    """Sort an index tuple into strictly increasing order.

    Returns (sign, sorted_tuple) where sign is the parity of the sorting
    permutation, or None when an index repeats (the term annihilates).
    This is the one permutation-sign rule: collect, star and
    Form.coefficient take their signs from it.
    """
    items = list(indices)
    if len(set(items)) != len(items):
        return None
    sign = 1
    # insertion sort; count swaps for the parity
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(items)


class Form:
    """A degree-p skew-symmetric form over named coordinates.

    ``terms`` maps strictly increasing index tuples (positions into
    ``coords``) to nonzero coefficients; the constructor rejects any other
    tuple, and ``collect`` builds a table from raw terms.  Instances are
    immutable values; all operations return new forms.
    """

    __slots__ = ("coords", "degree", "terms")

    def __init__(
        self,
        coords: Sequence[str],
        degree: int,
        terms: Mapping[MultiIndex, symexpr.ExprLike] | None = None,
    ):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise DimensionError(f"duplicate coordinate names in {coords}")
        if degree < 0:
            raise DimensionError(f"negative degree {degree}")
        n = len(coords)
        table: dict[MultiIndex, Expr] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != degree:
                raise DimensionError(
                    f"index {idx} has length {len(idx)}, expected degree {degree}"
                )
            if any(i < 0 or i >= n for i in idx):
                raise DimensionError(f"index {idx} out of range for dimension {n}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise DimensionError(f"index {idx} is not strictly increasing")
            if degree > n:
                continue  # degree above dimension: zero form
            expr = symexpr.simplify_expr(coeff)
            if expr != 0:
                table[idx] = expr
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "terms", table)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, coords: Sequence[str], degree: int) -> "Form":
        return cls(coords, degree)

    @classmethod
    def scalar(cls, coords: Sequence[str], value: symexpr.ExprLike) -> "Form":
        return cls(coords, 0, {(): value})

    @classmethod
    def basis(cls, coords: Sequence[str], indices: Sequence[int], coeff: symexpr.ExprLike = 1) -> "Form":
        """Coefficient times dx^{i1} ^ ... ^ dx^{ip} for possibly unsorted indices."""
        return collect(coords, len(indices), [(indices, sp.sympify(coeff, rational=True))])

    # -- basic protocol ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def is_zero_form(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Expr:
        """Fully antisymmetric component at an arbitrary index tuple."""
        if len(indices) != self.degree:
            raise DimensionError(f"component index must have length {self.degree}")
        sorted_ = sort_index(indices)
        if sorted_ is None:
            return sp.Integer(0)
        sign, idx = sorted_
        return sp.Integer(sign) * self.terms.get(idx, sp.Integer(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.coords == other.coords
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.coords, self.degree, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other: "Form") -> "Form":
        return add(self, other)

    def __sub__(self, other: "Form") -> "Form":
        return add(self, scale(other, -1))

    def __neg__(self) -> "Form":
        return scale(self, -1)

    def __str__(self) -> str:
        if not self.terms:
            # keep the degree visible so parse(print(f)) recovers f exactly
            if self.degree == 0:
                return "(0)"
            if self.degree <= self.dimension:
                basis = "^".join("d" + self.coords[i] for i in range(self.degree))
                return f"(0) {basis}"
            return "0"
        parts = []
        for idx in sorted(self.terms):
            coeff = symexpr.expr_text(self.terms[idx])
            if idx:
                basis = "^".join("d" + self.coords[i] for i in idx)
                parts.append(f"({coeff}) {basis}")
            else:
                parts.append(f"({coeff})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form[p={self.degree}, n={self.dimension}: {self}]"


def _check_same_space(a: Form, b: Form) -> None:
    if a.coords != b.coords:
        raise DimensionError(
            f"forms live on different spaces: {a.coords} vs {b.coords}"
        )


def collect(coords: Sequence[str], degree: int, pairs: Iterable[tuple[Sequence[int], Expr]]) -> Form:
    """The one term-table builder: a Form from raw (index tuple, coefficient)
    terms.  Each term takes its sign from sort_index, a repeated index
    annihilates it, and the raw terms on one tuple are summed; sums that are
    literally zero are dropped, and Form canonicalises each other sum once.
    """
    table: dict[MultiIndex, Expr] = {}
    for indices, coeff in pairs:
        merged = sort_index(indices)
        if merged is None:
            continue
        sign, idx = merged
        term = sp.Integer(sign) * coeff
        table[idx] = table[idx] + term if idx in table else term
    return Form(coords, degree, {idx: c for idx, c in table.items() if c != 0})


def wedge(a: Form, b: Form) -> Form:
    """Exterior product.  Repeated basis indices annihilate, unsorted index
    pairs pick up the permutation sign, and results of degree above the
    space dimension collapse to zero."""
    _check_same_space(a, b)
    return collect(a.coords, a.degree + b.degree, (
        (left + right, ca * cb)
        for left, ca in a.terms.items()
        for right, cb in b.terms.items()
    ))


def add(a: Form, b: Form) -> Form:
    _check_same_space(a, b)
    if a.degree != b.degree:
        raise DimensionError(f"degree mismatch: {a.degree} vs {b.degree}")
    return collect(a.coords, a.degree, [*a.terms.items(), *b.terms.items()])


def scale(a: Form, c: symexpr.ExprLike) -> Form:
    c = sp.sympify(c, rational=True)
    return Form(a.coords, a.degree, {idx: c * coeff for idx, coeff in a.terms.items()})


def d_flat(a: Form) -> Form:
    """Flat exterior derivative: the sum of d(coefficient) wedge basis."""
    return collect(a.coords, a.degree + 1, (
        ((j,) + idx, symexpr.differentiate(coeff, name))
        for idx, coeff in a.terms.items()
        for j, name in enumerate(a.coords)
        if j not in idx
    ))


def closure_status(differential: Form, *, seed: int | None = None) -> ClosureStatus:
    """Fold the zero tests of an already computed differential's
    coefficients: any NONZERO means not closed, all ZERO means closed."""
    verdicts = [symexpr.is_zero(c, seed=seed) for c in differential.terms.values()]
    if any(v is ZeroStatus.NONZERO for v in verdicts):
        return ClosureStatus.NOT_CLOSED
    if all(v is ZeroStatus.ZERO for v in verdicts):
        return ClosureStatus.CLOSED
    return ClosureStatus.UNDETERMINED


def is_closed_flat(a: Form, *, seed: int | None = None) -> ClosureStatus:
    """Closure test: apply the zero test to every coefficient of d(a)."""
    return closure_status(d_flat(a), seed=seed)
