import random
from fractions import Fraction

import pytest
import sympy as sp

from conftest import rand_form, rand_poly
from formcalc import (
    BalanceSystem,
    ClosureError,
    Connection,
    Form,
    HomotopyError,
    Manifold,
    Pseudostructure,
    RelationVerdict,
    as_expr,
    attempt_degenerate_transformation,
    build_relation,
    eval_at,
    nonidentity_check,
    poincare_antiderivative,
    relation_from_form,
    sequential_integration,
)
from formcalc.forms import d_flat

XI = ("xi1", "xi2")


def balance(action, coords=XI, manifold=None):
    return BalanceSystem.build(coords, [as_expr(a) for a in action], manifold=manifold)


def constant_line(c="c0"):
    return Pseudostructure.build(
        ["t"], [("xi1", as_expr("t")), ("xi2", as_expr(c))],
        constants=[c] if isinstance(c, str) else [],
    )


# -- build_relation ----------------------------------------------------------------


def test_gradient_action_gives_identical_relation():
    # A = grad(xi1*xi2)
    b = balance(["xi2", "xi1"])
    r = build_relation(b)
    assert r.omega == Form(XI, 1, {(0,): "xi2", (1,): "xi1"})
    assert r.commutator.total.is_zero_form()
    assert nonidentity_check(r) is RelationVerdict.IDENTICAL


def test_rotation_action_commutator():
    r = build_relation(balance(["xi2", "-xi1"]))
    assert r.commutator.total == Form(XI, 2, {(0, 1): -2})
    assert nonidentity_check(r) is RelationVerdict.NONIDENTICAL


def test_shear_action_commutator():
    r = build_relation(balance(["xi2", "0"]))
    assert r.commutator.total == Form(XI, 2, {(0, 1): -1})


def test_constant_action_is_identical():
    r = build_relation(balance(["3", "-2"]))
    assert nonidentity_check(r) is RelationVerdict.IDENTICAL


def test_balance_arity_mismatch():
    from formcalc import DimensionError

    with pytest.raises(DimensionError):
        BalanceSystem.build(XI, [as_expr("xi2")])


def test_undetermined_verdict_for_unrecognized_identity():
    # dA2/dxi1 is sin(2 xi1) - 2 sin(xi1) cos(xi1): mathematically zero but
    # outside both the rational normal form and the fixed trig rule
    a2 = as_expr("-cos(2*xi1)/2 - sin(xi1)^2")
    r = build_relation(BalanceSystem.build(XI, [as_expr("0"), a2]))
    assert nonidentity_check(r) is RelationVerdict.UNDETERMINED


# -- commutator decomposition ---------------------------------------------------------


def test_decomposition_flat_manifold():
    r = build_relation(balance(["xi2", "-xi1"]))
    quantum, deformation = r.commutator.coefficient_term, r.commutator.metric_term
    assert quantum == Form(XI, 2, {(0, 1): -2})
    assert deformation.is_zero_form()


def test_decomposition_deforming_manifold():
    m = Manifold(XI, connection=Connection.single(2, 0, 1, 0, "c"))
    b = BalanceSystem.build(XI, [as_expr("a1"), as_expr("0")], manifold=m)
    r = build_relation(b)
    quantum, deformation = r.commutator.coefficient_term, r.commutator.metric_term
    assert quantum.is_zero_form()
    assert deformation == Form(XI, 2, {(0, 1): "c*a1"})
    assert r.commutator.total == deformation


# -- poincare antiderivative ----------------------------------------------------------


def test_antiderivative_of_constant_one_form():
    omega = Form(XI, 1, {(0,): 2})
    theta = poincare_antiderivative(omega)
    assert theta == Form.scalar(XI, "2*xi1")
    assert d_flat(theta) == omega


def test_antiderivative_of_area_form():
    coords = ("x1", "x2")
    omega = Form.basis(coords, (0, 1))
    theta = poincare_antiderivative(omega)
    assert theta == Form(coords, 1, {(0,): sp.Rational(-1, 2) * sp.Symbol("x2"),
                                     (1,): sp.Rational(1, 2) * sp.Symbol("x1")})
    assert d_flat(theta) == omega


def test_antiderivative_round_trip_random(rng):
    coords = ("x1", "x2", "x3")
    for _ in range(12):
        p = rng.randint(1, 3)
        theta0 = rand_form(rng, coords, p - 1)
        omega = d_flat(theta0)
        assert d_flat(poincare_antiderivative(omega)) == omega


def test_antiderivative_requires_closed_input():
    omega = Form(XI, 1, {(0,): "xi2"})
    with pytest.raises(HomotopyError):
        poincare_antiderivative(omega)


def test_antiderivative_rejects_transcendental_coefficients():
    omega = Form(("t",), 1, {(0,): "cos(t)"})  # closed on a 1-dim space
    with pytest.raises(HomotopyError):
        poincare_antiderivative(omega)


def test_antiderivative_keeps_constants_fixed():
    omega = Form(("t",), 1, {(0,): "c0"})
    assert poincare_antiderivative(omega) == Form.scalar(("t",), "c0*t")


# -- degenerate transformation ---------------------------------------------------------


def test_transformation_on_constant_line():
    r = build_relation(balance(["xi2", "0"]))
    identical = attempt_degenerate_transformation(r, constant_line())
    c0, t = sp.symbols("c0 t")
    assert identical.omega_pi == Form(("t",), 1, {(0,): c0})
    assert identical.antiderivative == Form.scalar(("t",), c0 * t)
    assert identical.state_function == c0 * t


def test_transformation_of_rotation_action_on_diagonal():
    r = build_relation(balance(["xi2", "-xi1"]))
    pi = Pseudostructure.build(["t"], [("xi1", as_expr("t")), ("xi2", as_expr("t"))])
    identical = attempt_degenerate_transformation(r, pi)
    assert identical.omega_pi.is_zero_form()
    assert identical.antiderivative.is_zero_form()


def test_transformation_identity_carrier_recovers_potential():
    r = build_relation(balance(["xi2", "xi1"]))  # gradient of xi1*xi2
    pi = Pseudostructure.build(
        ["t1", "t2"], [("xi1", as_expr("t1")), ("xi2", as_expr("t2"))]
    )
    identical = attempt_degenerate_transformation(r, pi)
    t1, t2 = sp.symbols("t1 t2")
    assert identical.antiderivative == Form.scalar(("t1", "t2"), t1 * t2)


def test_transformation_failure_reports_residual():
    coords = ("xi1", "xi2", "xi3")
    r = build_relation(balance(["xi2", "0", "0"], coords=coords))
    pi = Pseudostructure.build(
        ["t1", "t2"],
        [("xi1", as_expr("t1")), ("xi2", as_expr("t2")), ("xi3", as_expr("0"))],
    )
    with pytest.raises(ClosureError) as err:
        attempt_degenerate_transformation(r, pi)
    residual = err.value.residual
    assert residual == Form(("t1", "t2"), 2, {(0, 1): -1})
    assert err.value.verdicts


def test_original_relation_untouched_by_transformation():
    r = build_relation(balance(["xi2", "0"]))
    before = r.commutator
    attempt_degenerate_transformation(r, constant_line())
    assert r.commutator is before
    assert r.commutator.total == Form(XI, 2, {(0, 1): -1})
    assert nonidentity_check(r) is RelationVerdict.NONIDENTICAL


def test_round_trip_for_every_successful_transformation(rng):
    coords = ("xi1", "xi2", "xi3")
    for _ in range(6):
        theta0 = Form.scalar(coords, rand_poly(rng, coords, 2, 2))
        r = build_relation(BalanceSystem.build(
            coords,
            [sp.diff(theta0.terms.get((), sp.Integer(0)), sp.Symbol(c)) for c in coords],
        ))
        pi = Pseudostructure.build(
            ["t1", "t2"],
            [("xi1", as_expr("t1")), ("xi2", as_expr("t2")), ("xi3", as_expr("t1 + t2"))],
        )
        identical = attempt_degenerate_transformation(r, pi)
        if identical.antiderivative is not None:
            assert d_flat(identical.antiderivative) == identical.omega_pi


# -- sequential integration -------------------------------------------------------------


def test_chain_realizes_degrees_one_then_zero():
    r = build_relation(balance(["xi2", "0"]))
    chain = sequential_integration(r, [constant_line()])
    assert chain.completed
    assert [k for k, _ in chain.stages] == [1, 0]
    first, terminal = chain.stages[0][1], chain.stages[1][1]
    c0, t = sp.symbols("c0 t")
    assert first.omega_pi == Form(("t",), 1, {(0,): c0})
    assert terminal.omega_pi == Form.scalar(("t",), c0 * t)
    assert terminal.antiderivative is None
    assert terminal.state_function == c0 * t


def test_chain_on_identical_relation_identity_carrier():
    r = build_relation(balance(["xi2", "xi1"]))
    pi = Pseudostructure.build(
        ["t1", "t2"], [("xi1", as_expr("t1")), ("xi2", as_expr("t2"))]
    )
    chain = sequential_integration(r, [pi])
    assert chain.completed
    assert [k for k, _ in chain.stages] == [1, 0]


def test_chain_failure_keeps_partial_results():
    coords = ("xi1", "xi2", "xi3")
    r = build_relation(balance(["xi2", "0", "0"], coords=coords))
    bad = Pseudostructure.build(
        ["t1", "t2"],
        [("xi1", as_expr("t1")), ("xi2", as_expr("t2")), ("xi3", as_expr("0"))],
    )
    chain = sequential_integration(r, [bad])
    assert not chain.completed
    assert chain.stages == ()
    assert chain.failure is not None
    assert chain.failure.residual == Form(("t1", "t2"), 2, {(0, 1): -1})


def test_two_stage_chain_from_degree_two():
    coords = ("x1", "x2", "x3")
    omega = d_flat(Form(coords, 1, {(0,): "x2^2", (1,): "x3"}))  # exact 2-form
    r = relation_from_form("psi", omega)
    plane = Pseudostructure.build(
        ["t1", "t2"],
        [("x1", as_expr("t1")), ("x2", as_expr("t2")), ("x3", as_expr("t1"))],
    )
    line = Pseudostructure.build(["s"], [("t1", as_expr("s")), ("t2", as_expr("2*s"))])
    chain = sequential_integration(r, [plane, line])
    assert chain.completed
    assert [k for k, _ in chain.stages] == [2, 1, 0]
    for _, stage in chain.stages:
        if stage.antiderivative is not None:
            assert d_flat(stage.antiderivative) == stage.omega_pi


# -- numeric cross-check -----------------------------------------------------------------


def test_commutator_matches_central_difference_curl(rng):
    a1 = rand_poly(rng, XI, 2, 3)
    a2 = rand_poly(rng, XI, 2, 3)
    r = build_relation(BalanceSystem.build(XI, [a1, a2]))
    k12 = r.commutator.total.coefficient((0, 1))
    h = Fraction(1, 10**5)
    checked = 0
    while checked < 20:
        point = {"xi1": Fraction(rng.randint(-14, 14), 7), "xi2": Fraction(rng.randint(-14, 14), 7)}
        symbolic = float(eval_at(k12, point))
        if abs(symbolic) < 1e-3:
            continue
        da2 = (float(eval_at(a2, {**point, "xi1": point["xi1"] + h}))
               - float(eval_at(a2, {**point, "xi1": point["xi1"] - h}))) / (2 * float(h))
        da1 = (float(eval_at(a1, {**point, "xi2": point["xi2"] + h}))
               - float(eval_at(a1, {**point, "xi2": point["xi2"] - h}))) / (2 * float(h))
        assert da2 - da1 == pytest.approx(symbolic, rel=1e-6)
        checked += 1


# -- degree containers ---------------------------------------------------------------------


def test_relation_from_degree_two_form():
    coords = ("x1", "x2", "x3")
    omega = Form(coords, 2, {(0, 1): "x3"})
    r = relation_from_form("psi", omega)
    assert r.degree == 2
    assert r.commutator.total == d_flat(omega)


def test_relation_from_degree_zero_form():
    r = relation_from_form("psi", Form.scalar(XI, "xi1"))
    assert r.degree == 0
    assert r.commutator.total == Form(XI, 1, {(0,): 1})
