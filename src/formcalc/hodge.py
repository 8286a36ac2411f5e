"""Metric duality: dual forms, the degree-lowering operator, and Laplacians.

The duality operator is exact only when it stays inside the rational
coefficient class, so it is restricted to constant diagonal metrics whose
|det| has a rational square root (identity and signature metrics always
qualify).  The degree-lowering operator is fixed as

    delta = star o d o star

with no extra sign: this makes delta nilpotent for free and the composite
d delta + delta d positive on squared coordinates in Euclidean signature.
Both Laplacian variants are exposed: the standard d delta + delta d and
the alternate d delta - delta d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Sequence

import sympy as sp

from . import symexpr
from .errors import DimensionError, MetricError
from .forms import Form, d_flat, sort_index
from .symexpr import Expr, ZeroStatus

if TYPE_CHECKING:
    from .manifold import Manifold

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"


@dataclass(frozen=True)
class Metric:
    """Symmetric n x n coefficient table with a signature tag."""

    g: tuple[tuple[Expr, ...], ...]
    signature: str = EUCLIDEAN

    @classmethod
    def from_nested(cls, nested: Sequence[Sequence[symexpr.ExprLike]], signature: str = EUCLIDEAN, *, seed: int | None = None) -> "Metric":
        n = len(nested)
        rows = []
        for i in range(n):
            if len(nested[i]) != n:
                raise MetricError("metric table is not square")
            rows.append(tuple(symexpr.simplify_expr(v) for v in nested[i]))
        g = tuple(rows)
        if signature not in (EUCLIDEAN, LORENTZIAN):
            raise MetricError(f"unknown signature tag {signature!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if symexpr.simplify_expr(g[i][j] - g[j][i]) != 0:
                    raise MetricError(f"metric is not symmetric at ({i}, {j})")
        det = symexpr.simplify_expr(sp.Matrix(n, n, lambda i, j: g[i][j]).det())
        if symexpr.is_zero(det, seed=seed) is not ZeroStatus.NONZERO:
            raise MetricError("metric is degenerate (determinant not provably nonzero)")
        return cls(g, signature)

    @property
    def dimension(self) -> int:
        return len(self.g)


def euclidean(n: int) -> Metric:
    """Identity metric."""
    return Metric.from_nested([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def minkowski(n: int) -> Metric:
    """Signature (+, -, ..., -), first coordinate timelike."""
    diag = [1] + [-1] * (n - 1)
    return Metric.from_nested(
        [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
        signature=LORENTZIAN,
    )


def _require_metric(m: "Manifold") -> Metric:
    if m.metric is None:
        raise MetricError("manifold has no metric")
    return m.metric


def _diagonal_rationals(metric: Metric) -> list[Fraction]:
    n = metric.dimension
    diag = []
    for i in range(n):
        for j in range(n):
            entry = metric.g[i][j]
            if i == j:
                if not entry.is_Rational:
                    raise MetricError(
                        "duality requires a constant diagonal metric; "
                        f"entry ({i},{i}) = {symexpr.expr_text(entry)} is not a rational constant"
                    )
                if entry == 0:
                    raise MetricError(f"degenerate metric: diagonal entry ({i},{i}) is zero")
                diag.append(Fraction(int(entry.p), int(entry.q)))
            elif entry != 0:
                raise MetricError(
                    "duality requires a constant diagonal metric; "
                    f"off-diagonal entry ({i},{j}) = {symexpr.expr_text(entry)} is nonzero"
                )
    return diag


def _rational_sqrt(value: Fraction) -> Fraction:
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise MetricError(
            f"volume element sqrt({symexpr.expr_text(value)}) is irrational; only metrics with a "
            "perfect-square |det| are supported exactly"
        )
    return Fraction(rn, rd)


def star(m: "Manifold", theta: Form) -> Form:
    """Metric dual of a degree-p form, of degree n - p.

    For a constant diagonal metric:
        star(dx^I) = sqrt|det g| * prod_{i in I} g^{ii}
                     * sign(I, complement) * dx^{complement}
    where the sign is the parity of the permutation (I, complement) of
    (1..n).  On the identity metric this is the signed complement.
    """
    from .manifold import _check_form_on  # local import avoids a cycle

    _check_form_on(m, theta)
    metric = _require_metric(m)
    n = m.dim
    p = theta.degree
    if p > n:
        raise DimensionError(f"cannot dualize a degree-{p} form in dimension {n}")
    diag = _diagonal_rationals(metric)
    det = Fraction(1)
    for d in diag:
        det *= d
    vol = _rational_sqrt(abs(det))
    terms: dict[tuple[int, ...], Expr] = {}
    full = tuple(range(n))
    for idx, coeff in theta.terms.items():
        complement = tuple(i for i in full if i not in idx)
        sign, _ = sort_index(idx + complement)
        factor = Fraction(1)
        for i in idx:
            factor /= diag[i]
        terms[complement] = sp.Rational(vol * factor) * sp.Integer(sign) * coeff
    return Form(m.coords, n - p, terms)


def delta(m: "Manifold", theta: Form) -> Form:
    """Degree-lowering operator star o d o star; maps degree p+1 to p.

    Zero on degree-0 forms by convention.
    """
    if theta.degree == 0:
        _require_metric(m)
        return Form.zero(m.coords, 0)
    if theta.degree > m.dim:
        # above top degree the form is necessarily zero; map it one degree down
        _require_metric(m)
        return Form.zero(m.coords, theta.degree - 1)
    return star(m, d_flat(star(m, theta)))


def laplacian(m: "Manifold", theta: Form, variant: str = "standard") -> Form:
    """Second-order operator on forms.

    ``standard`` is d delta + delta d (positive on squared coordinates in
    Euclidean signature); ``paper`` is the alternate d delta - delta d.
    """
    if theta.degree == 0:
        # delta annihilates 0-forms, so the d-delta branch is the zero 0-form
        d_delta = Form.zero(m.coords, 0)
    else:
        d_delta = d_flat(delta(m, theta))
    delta_d = delta(m, d_flat(theta))
    if variant == "standard":
        return d_delta + delta_d
    if variant == "paper":
        return d_delta - delta_d
    raise ValueError(f"unknown laplacian variant {variant!r}; use 'standard' or 'paper'")
