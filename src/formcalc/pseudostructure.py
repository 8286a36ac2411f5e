"""Pseudostructures: parametrized immersions carrying the interior differential.

A pseudostructure is a map from a k-dimensional parameter space into an
n-dimensional coordinate space.  Restricting a form to it is a pullback:
coefficients are composed with the map and each basis factor dx_i becomes
the differential of the i-th component.  A form that is unclosed in the
ambient space can become closed after this restriction; detecting where a
transformation degenerates (Jacobians, determinants, Poisson brackets
vanishing) is what singles such carriers out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import sympy as sp

from . import symexpr
from .errors import DimensionError, EvaluationError, ImmersionError
from .forms import ClosureStatus, Form, d_flat, is_closed_flat, wedge
from .symexpr import Expr

if TYPE_CHECKING:
    from .manifold import Manifold

_RANK_PROBES = 6
_RANK_TOL = 1e-9


def _rank(rows: list[list[Fraction | float]]) -> int:
    """Rank by Gaussian elimination: exact when every entry is a Fraction,
    else in floats with partial pivoting, pivots up to _RANK_TOL counting
    as zero."""
    exact = all(isinstance(v, Fraction) for row in rows for v in row)
    m = [[v if exact else float(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        if rank == len(m):
            break
        pivot = max(range(rank, len(m)), key=lambda i: abs(m[i][col]))
        if abs(m[pivot][col]) <= (0 if exact else _RANK_TOL):
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / top[col]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], top)]
        rank += 1
    return rank


@dataclass(frozen=True)
class Pseudostructure:
    """Immersion t -> x = phi(t) of a k-dim parameter space into n-space.

    ``component_map`` pairs each ambient coordinate name with its expression
    over the parameters; ``constants`` names symbols that may appear in the
    map without being parameters (they are held fixed by differentials).
    """

    params: tuple[str, ...]
    component_map: tuple[tuple[str, Expr], ...]
    constants: tuple[str, ...] = ()

    @classmethod
    def build(
        cls,
        params: Sequence[str],
        mapping: Mapping[str, symexpr.ExprLike] | Iterable[tuple[str, symexpr.ExprLike]],
        constants: Sequence[str] = (),
        *,
        seed: int | None = None,
        check_rank: bool = True,
    ) -> "Pseudostructure":
        params = tuple(params)
        constants = tuple(constants)
        if len(set(params)) != len(params):
            raise ImmersionError(f"duplicate parameter names in {params}")
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        comp = []
        allowed = set(params) | set(constants)
        for name, value in items:
            expr = symexpr.simplify_expr(symexpr.validate_expr(sp.sympify(value, rational=True)))
            stray = sorted(s.name for s in expr.free_symbols if s.name not in allowed)
            if stray:
                raise ImmersionError(
                    f"component {name} = {expr} uses symbols {stray} that are "
                    "neither parameters nor declared constants"
                )
            comp.append((name, expr))
        if len(params) > len(comp):
            raise ImmersionError(
                f"{len(params)} parameters cannot immerse into {len(comp)} coordinates"
            )
        ps = cls(params, tuple(comp), constants)
        if check_rank and params:
            ps._check_generic_rank(seed=seed)
        return ps

    @property
    def ambient_coords(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.component_map)

    @property
    def parameter_dim(self) -> int:
        return len(self.params)

    @property
    def ambient_dim(self) -> int:
        return len(self.component_map)

    def jacobian(self) -> list[list[Expr]]:
        """Rows follow ambient coordinates, columns follow parameters."""
        return [
            [symexpr.differentiate(expr, t) for t in self.params]
            for _, expr in self.component_map
        ]

    def _check_generic_rank(self, *, seed: int | None = None) -> None:
        jac = self.jacobian()
        rng = random.Random(symexpr.DEFAULT_PROBE_SEED if seed is None else seed)
        names = tuple(self.params) + tuple(self.constants)
        best = 0
        for _ in range(_RANK_PROBES):
            point = symexpr.probe_point(names, rng)
            try:
                rows = [[symexpr.eval_at(entry, point) for entry in row] for row in jac]
            except EvaluationError:
                continue
            best = max(best, _rank(rows))
            if best >= self.parameter_dim:
                return
        raise ImmersionError(
            f"map Jacobian has generic rank {best} < {self.parameter_dim}; "
            "not an immersion"
        )


def pullback(pi: Pseudostructure, theta: Form) -> Form:
    """Restrict a form to the pseudostructure.

    Coefficients are composed with the map; each basis factor dx_i is
    replaced by sum_j (dphi_i/dt_j) dt_j and the wedges re-expanded.  Any
    degree above the parameter dimension collapses to zero.
    """
    if theta.coords != pi.ambient_coords:
        raise DimensionError(
            f"form is over {theta.coords}, pseudostructure maps into {pi.ambient_coords}"
        )
    bindings = {name: expr for name, expr in pi.component_map}
    jac = pi.jacobian()
    params = pi.params
    pulled_basis = [
        Form(params, 1, {(j,): jac[i][j] for j in range(len(params))})
        for i in range(pi.ambient_dim)
    ]
    result = Form.zero(params, theta.degree)
    for idx, coeff in theta.terms.items():
        term = Form.scalar(params, symexpr.substitute(coeff, bindings))
        for i in idx:
            term = wedge(term, pulled_basis[i])
        result = result + term
    return result


def d_pi(pi: Pseudostructure, theta: Form) -> Form:
    """Interior differential: flat exterior derivative of the pullback."""
    return d_flat(pullback(pi, theta))


def is_closed_on(pi: Pseudostructure, theta: Form, *, seed: int | None = None) -> ClosureStatus:
    return is_closed_flat(pullback(pi, theta), seed=seed)


@dataclass(frozen=True)
class PseudostructureCheck:
    """Joint closure verdicts for a form and its metric dual on a candidate."""

    primal: ClosureStatus
    dual: ClosureStatus

    @property
    def satisfied(self) -> bool:
        return self.primal is ClosureStatus.CLOSED and self.dual is ClosureStatus.CLOSED


def defines_pseudostructure(m: "Manifold", pi: Pseudostructure, theta: Form, *, seed: int | None = None) -> PseudostructureCheck:
    """Check both closure conditions on the candidate: the restricted form
    itself and its metric dual (the condition that actually singles out the
    carrier)."""
    from .hodge import star

    return PseudostructureCheck(
        primal=is_closed_on(pi, theta, seed=seed),
        dual=is_closed_on(pi, star(m, theta), seed=seed),
    )


def jacobian_determinant(exprs: Sequence[symexpr.ExprLike], variables: Sequence[str]) -> Expr:
    """Determinant of the partial-derivative matrix of a square map,
    simplified, and factored when polynomial."""
    if len(exprs) != len(variables):
        raise DimensionError(
            f"map has {len(exprs)} components but {len(variables)} variables; "
            "the Jacobian matrix must be square"
        )
    rows = []
    for e in exprs:
        e = symexpr.validate_expr(sp.sympify(e, rational=True))
        rows.append([sp.diff(e, sp.Symbol(v)) for v in variables])
    det = symexpr.simplify_expr(sp.Matrix(rows).det() if rows else sp.Integer(1))
    if det.free_symbols and not det.atoms(sp.Function):
        det = sp.factor(det)
    return det


def poisson_bracket(
    f: symexpr.ExprLike,
    g: symexpr.ExprLike,
    pairs: Sequence[tuple[str, str]],
) -> Expr:
    """Canonical bracket sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i)."""
    f = symexpr.validate_expr(sp.sympify(f, rational=True))
    g = symexpr.validate_expr(sp.sympify(g, rational=True))
    seen: set[str] = set()
    for q, p in pairs:
        for name in (q, p):
            if not name.isidentifier():
                raise DimensionError(f"invalid coordinate name {name!r}")
            if name in seen:
                raise DimensionError(f"coordinate {name!r} appears in two pairs")
            seen.add(name)
    total = sp.Integer(0)
    for q, p in pairs:
        qs, ps = sp.Symbol(q), sp.Symbol(p)
        total += sp.diff(f, qs) * sp.diff(g, ps) - sp.diff(f, ps) * sp.diff(g, qs)
    return symexpr.simplify_expr(total)


@dataclass(frozen=True)
class DegeneracyReport:
    """Vanishing locus of a functional expression.

    ``factors`` are (factor, multiplicity) pairs whose zero sets compose the
    locus; for polynomial input ``constant * prod(factor**multiplicity)``
    reconstructs the expression exactly and ``exact`` is True.  Otherwise
    the expression is reported unfactored with probe-found sample zeros.
    """

    expression: Expr
    factors: tuple[tuple[Expr, int], ...]
    constant: Expr
    exact: bool
    sample_zeros: tuple[dict[str, float], ...] = ()
    note: str = ""

    @property
    def locus_components(self) -> tuple[Expr, ...]:
        return tuple(f for f, _ in self.factors)


def _sample_zeros_on_lines(e: Expr, rng: random.Random, *, lines: int = 12, grid: int = 32) -> list[dict[str, float]]:
    names = sorted(s.name for s in e.free_symbols)
    zeros: list[dict[str, float]] = []
    for _ in range(lines):
        start = symexpr.probe_point(names, rng)
        end = symexpr.probe_point(names, rng)

        def at(u: float) -> dict[str, float]:
            return {k: float(start[k]) + u * (float(end[k]) - float(start[k])) for k in names}

        def value(u: float) -> float | None:
            try:
                return float(symexpr.eval_at(e, {k: Fraction(v).limit_denominator(10**9) for k, v in at(u).items()}))
            except EvaluationError:
                return None

        previous = None
        for step in range(grid + 1):
            u = step / grid
            v = value(u)
            if v is None:
                previous = None
                continue
            if previous is not None and previous[1] * v <= 0 and (previous[1] != 0 or v != 0):
                lo, hi = previous[0], u
                flo = previous[1]
                for _ in range(60):
                    mid = (lo + hi) / 2
                    fmid = value(mid)
                    if fmid is None:
                        break
                    if flo * fmid <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                zeros.append({k: round(v, 9) for k, v in at((lo + hi) / 2).items()})
                if len(zeros) >= 3:
                    return zeros
            previous = (u, v)
    return zeros


def degenerate_locus(e: symexpr.ExprLike, *, seed: int | None = None) -> DegeneracyReport:
    """Describe where a functional expression vanishes.

    Polynomial input is square-free-factored exactly; each factor is one
    locus component.  Non-polynomial input is probed along random lines in
    the standard box and any bracketed roots are bisected to sample zeros.
    """
    e = symexpr.simplify_expr(symexpr.validate_expr(sp.sympify(e, rational=True)))
    if e.free_symbols and not e.atoms(sp.Function) and not e.has(sp.E):
        numerator, denominator = sp.fraction(sp.cancel(e))
        note = ""
        if denominator.free_symbols:
            note = "rational input: locus taken from the numerator, poles excluded"
        constant, factor_list = sp.factor_list(numerator)
        factors = tuple(
            (symexpr.simplify_expr(f), int(mult))
            for f, mult in sorted(factor_list, key=lambda fm: sp.default_sort_key(fm[0]))
            if f.free_symbols
        )
        for f, mult in factor_list:
            if not f.free_symbols:
                constant *= f**mult
        if denominator.free_symbols:
            constant = constant / denominator
        return DegeneracyReport(
            expression=e,
            factors=factors,
            constant=symexpr.simplify_expr(constant),
            exact=True,
            note=note,
        )
    if not e.free_symbols:
        identically_zero = e == 0
        return DegeneracyReport(
            expression=e,
            factors=((sp.Integer(0), 1),) if identically_zero else (),
            constant=sp.Integer(1) if identically_zero else e,
            exact=True,
            note="identically zero" if identically_zero else "nonzero constant: empty locus",
        )
    rng = random.Random(symexpr.DEFAULT_PROBE_SEED if seed is None else seed)
    zeros = _sample_zeros_on_lines(e, rng)
    note = "transcendental input: numeric probe only"
    if not zeros:
        note = "no zero found in probe box"
    return DegeneracyReport(
        expression=e,
        factors=((e, 1),),
        constant=sp.Integer(1),
        exact=False,
        sample_zeros=tuple(zeros),
        note=note,
    )
