import random

import pytest
import sympy as sp

from conftest import rand_connection, rand_form, symmetrize
from formcalc import (
    Connection,
    DimensionError,
    Form,
    Manifold,
    commutator,
    d_evolutionary,
    d_flat,
    is_deforming,
    torsion_commutator,
)
from formcalc.manifold import commutator_report

C2 = ("x1", "x2")
C3 = ("x1", "x2", "x3")


# -- torsion commutator ------------------------------------------------------


def test_symmetric_connection_has_zero_torsion(rng):
    conn = symmetrize(rand_connection(rng, 2, entries=3))
    m = Manifold(C2, connection=conn)
    torsion = torsion_commutator(m)
    assert all(
        torsion[s][a][b] == 0
        for s in range(2) for a in range(2) for b in range(2)
    )
    assert not is_deforming(m)


def test_single_entry_torsion_component():
    # gamma^1_{2 1} = c gives T(sigma=1, alpha=1, beta=2) = c
    m = Manifold(C2, connection=Connection.single(2, 0, 1, 0, "c"))
    torsion = torsion_commutator(m)
    assert torsion[0][0][1] == sp.Symbol("c")
    assert torsion[0][1][0] == -sp.Symbol("c")


def test_zero_connection_torsion():
    m = Manifold(C2, connection=Connection.zero(2))
    torsion = torsion_commutator(m)
    assert all(torsion[s][a][b] == 0 for s in range(2) for a in range(2) for b in range(2))


def test_torsion_requires_connection():
    with pytest.raises(DimensionError):
        torsion_commutator(Manifold(C2))


def test_torsion_antisymmetry_random(rng):
    for _ in range(8):
        conn = rand_connection(rng, 3, entries=4, polynomial=True, coords=C3)
        torsion = torsion_commutator(Manifold(C3, connection=conn))
        for s in range(3):
            for a in range(3):
                for b in range(3):
                    assert torsion[s][a][b] == -torsion[s][b][a]


# -- commutator ---------------------------------------------------------------


def test_commutator_flat_rotation_form():
    m = Manifold(C2)
    theta = Form(C2, 1, {(0,): "-x2", (1,): "x1"})
    report = commutator(m, theta)
    assert report.coefficient_term == Form(C2, 2, {(0, 1): 2})
    assert report.metric_term.is_zero_form()
    assert report.total == Form(C2, 2, {(0, 1): 2})


def test_commutator_metric_term_only():
    m = Manifold(C2, connection=Connection.single(2, 0, 1, 0, "c"))
    theta = Form(C2, 1, {(0,): "a1"})  # constant coefficient
    report = commutator(m, theta)
    assert report.coefficient_term.is_zero_form()
    assert report.metric_term == Form(C2, 2, {(0, 1): "c*a1"})


def test_commutator_of_exact_form_vanishes_on_flat():
    m = Manifold(C2)
    theta = d_flat(Form.scalar(C2, "x1^2*x2 - x2"))
    assert commutator(m, theta).total.is_zero_form()


def test_commutator_requires_degree_one():
    with pytest.raises(DimensionError):
        commutator(Manifold(C2), Form.basis(C2, (0, 1)))


def test_commutator_report_additivity(rng):
    for _ in range(8):
        conn = rand_connection(rng, 3, entries=3, polynomial=True, coords=C3)
        m = Manifold(C3, connection=conn)
        theta = rand_form(rng, C3, 1)
        report = commutator(m, theta)
        assert report.total == report.coefficient_term + report.metric_term


def test_commutator_oracle_random(rng):
    # independent term-by-term expansion of
    # K_ab = (dA_b/dx_a - dA_a/dx_b) + (gamma^s_{ba} - gamma^s_{ab}) A_s
    for _ in range(8):
        conn = rand_connection(rng, 3, entries=4, polynomial=True, coords=C3)
        m = Manifold(C3, connection=conn)
        theta = rand_form(rng, C3, 1)
        report = commutator(m, theta)
        a = [theta.terms.get((i,), sp.Integer(0)) for i in range(3)]
        xs = [sp.Symbol(name) for name in C3]
        for alpha in range(3):
            for beta in range(alpha + 1, 3):
                expected = sp.diff(a[beta], xs[alpha]) - sp.diff(a[alpha], xs[beta])
                for sigma in range(3):
                    expected += (conn[sigma, beta, alpha] - conn[sigma, alpha, beta]) * a[sigma]
                got = report.total.terms.get((alpha, beta), sp.Integer(0))
                assert sp.expand(got - expected) == 0


# -- evolutionary differential ---------------------------------------------------


def test_d_evolutionary_without_connection_is_flat(rng):
    m = Manifold(C3)
    for _ in range(25):
        theta = rand_form(rng, C3, rng.randint(0, 2))
        assert d_evolutionary(m, theta) == d_flat(theta)


def test_d_evolutionary_symmetric_connection_is_flat(rng):
    # non-deforming manifolds (zero torsion) never see the extra term
    for _ in range(25):
        conn = symmetrize(rand_connection(rng, 3, entries=4, polynomial=True, coords=C3))
        m = Manifold(C3, connection=conn)
        assert not is_deforming(m)
        theta = rand_form(rng, C3, rng.randint(0, 3))
        assert d_evolutionary(m, theta) == d_flat(theta)


def test_d_evolutionary_metric_term_fixture():
    m = Manifold(C2, connection=Connection.single(2, 0, 1, 0, "c"))
    theta = Form(C2, 1, {(0,): "a1"})
    assert d_evolutionary(m, theta) == Form(C2, 2, {(0, 1): "c*a1"})


def test_d_evolutionary_degree_one_equals_commutator_total(rng):
    for _ in range(8):
        conn = rand_connection(rng, 3, entries=3, polynomial=True, coords=C3)
        m = Manifold(C3, connection=conn)
        theta = rand_form(rng, C3, 1)
        assert d_evolutionary(m, theta) == commutator(m, theta).total


def test_d_evolutionary_degree_zero_is_flat():
    m = Manifold(C2, connection=Connection.single(2, 0, 1, 0, "c"))
    f = Form.scalar(C2, "x1*x2")
    assert d_evolutionary(m, f) == d_flat(f)


def test_torsion_term_degree_two_slot_rule():
    # gamma^1_{2 1} = c, omega = dx1^dx3: the only surviving contraction is
    # (k=0, slot=0): gamma^1_{2 1} * omega_{1 3} giving c dx1^dx2^dx3
    m = Manifold(C3, connection=Connection.single(3, 0, 1, 0, "c"))
    omega = Form.basis(C3, (0, 2))
    assert d_evolutionary(m, omega) - d_flat(omega) == Form(C3, 3, {(0, 1, 2): "c"})


def test_evolutionary_differential_is_not_nilpotent_on_deforming_manifold():
    m = Manifold(C3, connection=Connection.single(3, 0, 1, 0, "c"))
    theta = Form(C3, 1, {(2,): "x1"})
    twice = d_evolutionary(m, d_evolutionary(m, theta))
    assert twice == Form(C3, 3, {(0, 1, 2): "c"})
    assert not twice.is_zero_form()


# -- deformation flag -------------------------------------------------------------


def test_is_deforming_zero_connection():
    assert not is_deforming(Manifold(C2, connection=Connection.zero(2)))
    assert not is_deforming(Manifold(C2))


def test_is_deforming_levi_civita_style():
    # symmetric in the lower pair, entries depending on coordinates
    nested = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    nested[0][0][1] = sp.Symbol("x1")
    nested[0][1][0] = sp.Symbol("x1")
    m = Manifold(C2, connection=Connection.from_nested(nested))
    assert not is_deforming(m)


def test_is_deforming_single_torsion_entry():
    m = Manifold(C2, connection=Connection.single(2, 0, 1, 0, "c"))
    assert is_deforming(m)


def test_manifold_shape_validation():
    with pytest.raises(DimensionError):
        Manifold(C3, connection=Connection.zero(2))
    with pytest.raises(DimensionError):
        Manifold(("x1", "x1"))


def test_commutator_report_any_degree():
    m = Manifold(C3, connection=Connection.single(3, 0, 1, 0, "c"))
    omega = Form.basis(C3, (0, 2))
    report = commutator_report(omega, m)
    assert report.total == d_evolutionary(m, omega)
    assert report.metric_term == Form(C3, 3, {(0, 1, 2): "c"})
    flat = commutator_report(omega)
    assert flat.total == flat.coefficient_term == d_flat(omega)
    assert flat.metric_term == Form.zero(C3, 3)
