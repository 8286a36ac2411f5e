"""Balance-law relations, degenerate transformations, and antiderivatives.

A balance system (state functional psi, action coefficients A over the
trajectory coordinates) convolutes into the relation d psi = omega with
omega = sum A_mu dxi^mu.  The commutator of omega decides whether the
relation is identical (omega exact) or nonidentical (omega unclosed).  A
nonidentical relation can still restrict to an identical one on a
pseudostructure where the pulled-back form closes; the antiderivative of
that closed restriction is produced by the homotopy operator, and chaining
the construction integrates the relation down one degree per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import sympy as sp

from . import symexpr
from .errors import ClosureError, DimensionError, HomotopyError
from .forms import ClosureStatus, Form, closure_status, d_flat
from .manifold import CommutatorReport, Manifold, commutator_report
from .pseudostructure import Pseudostructure, pullback
from .symexpr import Expr


class RelationVerdict(Enum):
    IDENTICAL = "identical"
    NONIDENTICAL = "nonidentical"
    UNDETERMINED = "undetermined"


#: Relation verdict of the zero-test fold over the total commutator.
_VERDICT_OF_CLOSURE = {
    ClosureStatus.CLOSED: RelationVerdict.IDENTICAL,
    ClosureStatus.NOT_CLOSED: RelationVerdict.NONIDENTICAL,
    ClosureStatus.UNDETERMINED: RelationVerdict.UNDETERMINED,
}


@dataclass(frozen=True)
class BalanceSystem:
    """Trajectory coordinates, action coefficients, and the state functional.

    ``coords[0]`` is the along-trajectory coordinate, the rest are normal
    directions; ``action[mu]`` collects the external action entering the
    balance equation for ``coords[mu]``.  An optional ambient manifold
    contributes the metric (torsion) term to commutators.
    """

    coords: tuple[str, ...]
    action: tuple[Expr, ...]
    psi: str = "psi"
    manifold: Manifold | None = None

    @classmethod
    def build(
        cls,
        coords: Sequence[str],
        action: Sequence[symexpr.ExprLike],
        psi: str = "psi",
        manifold: Manifold | None = None,
    ) -> "BalanceSystem":
        coords = tuple(coords)
        if len(action) != len(coords):
            raise DimensionError(
                f"{len(action)} action coefficients for {len(coords)} coordinates"
            )
        if manifold is not None and manifold.coords != coords:
            raise DimensionError(
                f"manifold coordinates {manifold.coords} do not match balance "
                f"coordinates {coords}"
            )
        exprs = tuple(
            symexpr.simplify_expr(symexpr.validate_expr(sp.sympify(a, rational=True)))
            for a in action
        )
        return cls(coords, exprs, psi, manifold)


@dataclass(frozen=True)
class EvolutionaryRelation:
    """The pair (psi, omega) together with omega's two-term commutator."""

    psi: str
    omega: Form
    commutator: CommutatorReport
    manifold: Manifold | None = None

    @property
    def degree(self) -> int:
        return self.omega.degree


@dataclass(frozen=True)
class IdenticalRelation:
    """Relation restricted to a pseudostructure where the form closes.

    ``omega_pi`` is the closed restriction (the conserved object) and
    ``antiderivative`` the lower-degree form it is the differential of;
    for a degree-0 restriction there is nothing left to integrate and the
    antiderivative is None (the scalar itself is the state function).
    """

    pseudostructure: Pseudostructure
    psi: str
    omega_pi: Form
    antiderivative: Form | None

    @property
    def degree(self) -> int:
        return self.omega_pi.degree

    @property
    def state_function(self) -> Expr | None:
        """The scalar candidate for psi on the carrier, when one exists."""
        source = None
        if self.antiderivative is not None and self.antiderivative.degree == 0:
            source = self.antiderivative
        elif self.antiderivative is None and self.omega_pi.degree == 0:
            source = self.omega_pi
        if source is None:
            return None
        return source.terms.get((), sp.Integer(0))


def build_relation(b: BalanceSystem) -> EvolutionaryRelation:
    """Convolute the balance equations into d psi = omega, omega = sum A_mu dxi^mu."""
    omega = Form(b.coords, 1, {(mu,): a for mu, a in enumerate(b.action)})
    return EvolutionaryRelation(
        psi=b.psi,
        omega=omega,
        commutator=commutator_report(omega, b.manifold),
        manifold=b.manifold,
    )


def relation_from_form(psi: str, omega: Form, manifold: Manifold | None = None) -> EvolutionaryRelation:
    """Relation container for a directly supplied form of any degree
    (degree 0 through 3 in the intended classification range)."""
    return EvolutionaryRelation(psi, omega, commutator_report(omega, manifold), manifold)


def nonidentity_check(r: EvolutionaryRelation, *, seed: int | None = None) -> RelationVerdict:
    """Identical iff every commutator component is exactly zero; any
    provably nonzero component makes the relation nonidentical."""
    return _VERDICT_OF_CLOSURE[closure_status(r.commutator.total, seed=seed)]


def commutator_decomposition(r: EvolutionaryRelation) -> tuple[Form, Form]:
    """(quantum_term, deformation_term): the coefficient part measures the
    discrete change a conserved quantity undergoes between carriers, the
    metric part the manifold deformation (spin-like characteristics)."""
    return r.commutator.coefficient_term, r.commutator.metric_term


def poincare_antiderivative(omega: Form) -> Form:
    """Antiderivative of a closed form on a star-shaped parameter box.

    Homotopy construction centered at the origin: for each term a_I dx^I,

        sum_k (-1)^(k-1) [integral_0^1 s^(p-1) a_I(s x) ds] x_{i_k} dx^{I \\ i_k}

    with the s-integral done exactly on polynomial integrands.  Raises
    HomotopyError when the input is not literally closed or a scaled
    integrand leaves the polynomial class.
    """
    p = omega.degree
    if p < 1:
        raise HomotopyError("antiderivative needs degree >= 1")
    residual = d_flat(omega)
    if residual.terms:
        raise HomotopyError(f"form is not closed: d residual {residual}")
    s = sp.Dummy("s")
    scaling = {sp.Symbol(name): s * sp.Symbol(name) for name in omega.coords}
    acc: dict[tuple[int, ...], Expr] = {}
    for idx, coeff in omega.terms.items():
        integrand = sp.expand(coeff.xreplace(scaling) * s ** (p - 1))
        try:
            poly = sp.Poly(integrand, s)
        except sp.PolynomialError as exc:
            raise HomotopyError(
                f"scaled coefficient {symexpr.expr_text(coeff)} is not polynomial "
                "in the scaling parameter; antiderivative leaves the supported class"
            ) from exc
        integral = sp.Integer(0)
        for (k,), c in poly.terms():
            integral += c / sp.Integer(k + 1)
        for slot in range(p):
            i = idx[slot]
            rest = idx[:slot] + idx[slot + 1:]
            contribution = sp.Integer((-1) ** slot) * integral * sp.Symbol(omega.coords[i])
            acc[rest] = acc.get(rest, sp.Integer(0)) + contribution
    return Form(omega.coords, p - 1, acc)


def attempt_degenerate_transformation(
    r: EvolutionaryRelation,
    pi: Pseudostructure,
    *,
    seed: int | None = None,
) -> IdenticalRelation:
    """Restrict the relation to a candidate pseudostructure.

    Succeeds iff the pulled-back form is exactly closed; the closed
    restriction and its antiderivative make up the identical relation.
    The input relation is untouched: its total commutator (and hence its
    nonidentity) is a property of the ambient space, not of the carrier.

    Raises ClosureError with the residual differential when the
    restriction does not close.
    """
    omega_pi = pullback(pi, r.omega)
    residual = d_flat(omega_pi)
    if residual.terms:
        verdicts = {
            idx: symexpr.is_zero(c, seed=seed).value for idx, c in residual.terms.items()
        }
        raise ClosureError(
            "restriction is not closed on the candidate pseudostructure",
            residual=residual,
            verdicts=verdicts,
        )
    antiderivative = poincare_antiderivative(omega_pi) if omega_pi.degree >= 1 else None
    return IdenticalRelation(
        pseudostructure=pi,
        psi=r.psi,
        omega_pi=omega_pi,
        antiderivative=antiderivative,
    )


@dataclass(frozen=True)
class IntegrationChain:
    """Outcome of sequentially integrating a relation.

    ``stages`` lists (k, identical relation) for every realized closed form,
    highest degree first, ending with the degree-0 state function when the
    cascade reaches it.  ``failure`` carries the diagnostics of the stage
    that broke the chain, if any.
    """

    stages: tuple[tuple[int, IdenticalRelation], ...]
    failure: ClosureError | None = None

    @property
    def completed(self) -> bool:
        return self.failure is None


def sequential_integration(
    r: EvolutionaryRelation,
    pis: Sequence[Pseudostructure],
    *,
    seed: int | None = None,
) -> IntegrationChain:
    """Apply degenerate transformations stage by stage.

    Each stage restricts the current relation to the supplied carrier and,
    on success, promotes the antiderivative to the right side of the next
    relation (one degree lower, over the carrier's parameter space).  The
    chain stops at the degree-0 state function, on carrier exhaustion, or
    on the first closure failure (partial results are kept).
    """
    stages: list[tuple[int, IdenticalRelation]] = []
    current = r
    for pi in pis:
        try:
            identical = attempt_degenerate_transformation(current, pi, seed=seed)
        except ClosureError as failure:
            return IntegrationChain(tuple(stages), failure)
        stages.append((identical.degree, identical))
        theta = identical.antiderivative
        if theta is None:
            break
        if theta.degree == 0:
            stages.append((
                0,
                IdenticalRelation(
                    pseudostructure=pi,
                    psi=r.psi,
                    omega_pi=theta,
                    antiderivative=None,
                ),
            ))
            break
        current = relation_from_form(r.psi, theta, manifold=None)
    return IntegrationChain(tuple(stages))


@dataclass(frozen=True)
class SelfvariationStep:
    step: int
    balance: BalanceSystem
    verdict: RelationVerdict
    relation: EvolutionaryRelation


def selfvariation(
    b: BalanceSystem,
    perturb: Callable[[BalanceSystem, int], Sequence[symexpr.ExprLike]],
    steps: int,
    *,
    seed: int | None = None,
) -> list[SelfvariationStep]:
    """Iterate a user-supplied perturbation of the action coefficients.

    The mutual variation itself has no autonomous law here; the hook lets
    callers drive it and watch the commutator and verdict evolve, e.g.
    until a degenerate transformation becomes possible.
    """
    history: list[SelfvariationStep] = []
    current = b
    for step in range(steps):
        relation = build_relation(current)
        history.append(SelfvariationStep(
            step=step,
            balance=current,
            verdict=nonidentity_check(relation, seed=seed),
            relation=relation,
        ))
        perturbed = perturb(current, step)
        current = replace(current, action=tuple(
            symexpr.simplify_expr(symexpr.validate_expr(sp.sympify(a, rational=True)))
            for a in perturbed
        ))
    return history
