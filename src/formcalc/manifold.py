"""Coordinate manifolds with a possibly non-symmetric connection.

The connection table is indexed ``gamma[sigma][beta][alpha]`` for the
entry with upper index sigma and lower indices (beta, alpha), matching
the covariant-derivative convention

    a_{beta;alpha} = da_beta/dx^alpha + gamma[sigma][beta][alpha] * a_sigma.

The antisymmetric part of the lower index pair (the torsion commutator)
is what makes a manifold "deforming": on such manifolds the differential
of a form picks up a basis-variation term on top of the flat exterior
derivative, and the two-term commutator below separates the
coefficient-derivative part from that metric part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import sympy as sp

from . import symexpr
from .errors import DimensionError, MetricError
from .forms import Form, d_flat
from .symexpr import Expr, ZeroStatus

if TYPE_CHECKING:
    from .hodge import Metric

ConnectionTable = tuple[tuple[tuple[Expr, ...], ...], ...]


@dataclass(frozen=True)
class Connection:
    """n x n x n table of connection entries, ``entries[sigma][beta][alpha]``."""

    entries: ConnectionTable

    @classmethod
    def from_nested(cls, nested: Sequence[Sequence[Sequence[symexpr.ExprLike]]]) -> "Connection":
        n = len(nested)
        rows = []
        for sigma in range(n):
            if len(nested[sigma]) != n:
                raise DimensionError("connection table is not n x n x n")
            plane = []
            for beta in range(n):
                if len(nested[sigma][beta]) != n:
                    raise DimensionError("connection table is not n x n x n")
                plane.append(tuple(
                    symexpr.simplify_expr(symexpr.validate_expr(sp.sympify(v, rational=True)))
                    for v in nested[sigma][beta]
                ))
            rows.append(tuple(plane))
        return cls(tuple(rows))

    @classmethod
    def zero(cls, n: int) -> "Connection":
        z = sp.Integer(0)
        return cls(tuple(tuple((z,) * n for _ in range(n)) for _ in range(n)))

    @classmethod
    def single(cls, n: int, sigma: int, beta: int, alpha: int, value: symexpr.ExprLike) -> "Connection":
        """Convenience: a connection with one nonzero entry gamma^sigma_{beta alpha}."""
        nested = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
        nested[sigma][beta][alpha] = sp.sympify(value, rational=True)
        return cls.from_nested(nested)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: tuple[int, int, int]) -> Expr:
        sigma, beta, alpha = key
        return self.entries[sigma][beta][alpha]


@dataclass(frozen=True)
class Manifold:
    """Dimension, coordinate names, optional connection and metric."""

    coords: tuple[str, ...]
    connection: Connection | None = None
    metric: "Metric | None" = None

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(set(coords)) != len(coords):
            raise DimensionError(f"duplicate coordinate names in {coords}")
        if self.connection is not None and self.connection.dimension != len(coords):
            raise DimensionError(
                f"connection is {self.connection.dimension}-dimensional, "
                f"manifold has {len(coords)} coordinates"
            )
        if self.metric is not None and len(self.metric.g) != len(coords):
            raise MetricError(
                f"metric is {len(self.metric.g)} x {len(self.metric.g)}, "
                f"manifold has {len(coords)} coordinates"
            )

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class CommutatorReport:
    """Two-term commutator of a form on a manifold.

    ``coefficient_term`` collects the antisymmetrized coefficient
    derivatives, ``metric_term`` the torsion contraction; ``total`` is
    their sum and equals the form's differential on the manifold.
    """

    total: Form
    coefficient_term: Form
    metric_term: Form


def torsion_commutator(m: Manifold) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
    """Antisymmetric table T[sigma][alpha][beta] = gamma^s_{ba} - gamma^s_{ab}."""
    if m.connection is None:
        raise DimensionError("manifold has no connection")
    n = m.dim
    gamma = m.connection
    return tuple(
        tuple(
            tuple(
                symexpr.simplify_expr(gamma[sigma, beta, alpha] - gamma[sigma, alpha, beta])
                for beta in range(n)
            )
            for alpha in range(n)
        )
        for sigma in range(n)
    )


def is_deforming(m: Manifold, *, seed: int | None = None) -> bool:
    """True when any torsion-commutator component fails the exact zero test."""
    if m.connection is None:
        return False
    torsion = torsion_commutator(m)
    n = m.dim
    for sigma in range(n):
        for alpha in range(n):
            for beta in range(alpha + 1, n):
                if symexpr.is_zero(torsion[sigma][alpha][beta], seed=seed) is not ZeroStatus.ZERO:
                    return True
    return False


def _check_form_on(m: Manifold, theta: Form) -> None:
    if theta.coords != m.coords:
        raise DimensionError(
            f"form is over {theta.coords}, manifold over {m.coords}"
        )


def commutator_report(theta: Form, m: Manifold | None = None) -> CommutatorReport:
    """Two-term commutator of a form of any degree: the flat differential
    plus, on a manifold with a connection, the torsion term."""
    if m is not None:
        _check_form_on(m, theta)
    coefficient_term = d_flat(theta)
    metric_term = Form.zero(theta.coords, theta.degree + 1) if m is None else _torsion_term(m, theta)
    return CommutatorReport(
        total=coefficient_term + metric_term,
        coefficient_term=coefficient_term,
        metric_term=metric_term,
    )


def commutator(m: Manifold, theta: Form) -> CommutatorReport:
    """Commutator of a first-degree form, split into its two terms.

    Component on (alpha, beta):
        (da_beta/dx^alpha - da_alpha/dx^beta)
        + (gamma^s_{beta alpha} - gamma^s_{alpha beta}) a_s
    """
    if theta.degree != 1:
        raise DimensionError(f"commutator expects a degree-1 form, got degree {theta.degree}")
    return commutator_report(theta, m)


def _torsion_term(m: Manifold, theta: Form) -> Form:
    """Basis-variation part of the differential, any degree >= 1.

    Slot rule: the component of the output on an increasing tuple
    (a_0 < ... < a_p) is

        sum_k (-1)^k sum_m sum_s gamma[s][rest_m][a_k] * theta[rest with slot m -> s]

    where rest is the tuple with a_k removed.  For degree 1 this is the
    torsion contraction above; for a symmetric connection every term
    cancels pairwise and the result is zero.
    """
    n = m.dim
    p = theta.degree
    if m.connection is None or p == 0 or not theta.terms:
        return Form.zero(m.coords, p + 1)
    gamma = m.connection
    acc: dict[tuple[int, ...], Expr] = {}
    for out in itertools.combinations(range(n), p + 1):
        total = sp.Integer(0)
        for k in range(p + 1):
            rest = out[:k] + out[k + 1:]
            alpha = out[k]
            sign = (-1) ** k
            for slot in range(p):
                beta = rest[slot]
                for sigma in range(n):
                    entry = gamma[sigma, beta, alpha]
                    if entry == 0:
                        continue
                    replaced = rest[:slot] + (sigma,) + rest[slot + 1:]
                    comp = theta.coefficient(replaced)
                    if comp == 0:
                        continue
                    total += sp.Integer(sign) * entry * comp
        if total != 0:
            acc[out] = total
    return Form(m.coords, p + 1, acc)


def d_evolutionary(m: Manifold, theta: Form) -> Form:
    """Differential of a form on a (possibly deforming) manifold.

    Equals the flat exterior derivative plus the torsion contribution of
    the changing basis; reduces to d_flat for degree 0 and on manifolds
    without torsion, and to the degree-1 commutator total.
    """
    return commutator_report(theta, m).total
