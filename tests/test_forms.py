import itertools
import random

import pytest
import sympy as sp

from conftest import rand_form, rand_poly
from formcalc import (
    ClosureStatus,
    DimensionError,
    Form,
    add,
    d_flat,
    is_closed_flat,
    scale,
    wedge,
)
from formcalc.forms import collect, sort_index
from formcalc.symexpr import as_expr

C2 = ("x1", "x2")
C3 = ("x1", "x2", "x3")


# -- index helpers ---------------------------------------------------------


def test_sort_index_parity():
    assert sort_index((0, 1)) == (1, (0, 1))
    assert sort_index((1, 0)) == (-1, (0, 1))
    assert sort_index((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_index((0, 0)) is None


def test_merge_indices_sign():
    assert sort_index((0,) + (1,)) == (1, (0, 1))
    assert sort_index((1,) + (0,)) == (-1, (0, 1))
    assert sort_index((0,) + (0,)) is None


# -- collect -----------------------------------------------------------------


def test_collect_unsorted_tuple_takes_the_sort_index_sign():
    x3 = as_expr("x3")
    assert collect(C3, 2, [((1, 0), x3)]) == Form(C3, 2, {(0, 1): "-x3"})
    assert collect(C3, 3, [((2, 0, 1), x3)]) == Form(C3, 3, {(0, 1, 2): "x3"})


def test_collect_repeated_index_drops_the_term():
    f = collect(C3, 2, [((0, 0), as_expr("x1")), ((2, 1), as_expr("x2"))])
    assert f == Form(C3, 2, {(1, 2): "-x2"})
    assert collect(C2, 2, [((1, 1), as_expr("x1"))]) == Form.zero(C2, 2)


def test_collect_sums_terms_on_one_tuple():
    x1, x2 = as_expr("x1"), as_expr("x2")
    assert collect(C2, 1, [((0,), x1), ((0,), x2)]) == Form(C2, 1, {(0,): "x1 + x2"})
    # literally cancelling, and cancelling only after canonicalisation
    assert collect(C2, 2, [((0, 1), x1), ((1, 0), x1)]).terms == {}
    square, expanded = as_expr("(x1 + 1)^2"), as_expr("x1^2 + 2*x1 + 1")
    assert collect(C2, 2, [((0, 1), square), ((1, 0), expanded)]).terms == {}


def test_basis_with_unsorted_or_repeated_indices():
    assert Form.basis(C3, (2, 0), "x1") == Form(C3, 2, {(0, 2): "-x1"})
    assert Form.basis(C3, (1, 2, 0)) == Form(C3, 3, {(0, 1, 2): 1})
    repeated = Form.basis(C3, (1, 1), "x1")
    assert repeated.is_zero_form() and repeated.degree == 2


# -- wedge -------------------------------------------------------------------


def test_wedge_repeated_index_annihilates():
    dx1 = Form.basis(C2, (0,))
    assert wedge(dx1, dx1).is_zero_form()


def test_wedge_antisymmetry_of_basis():
    dx1, dx2 = Form.basis(C2, (0,)), Form.basis(C2, (1,))
    assert wedge(dx2, dx1) == scale(wedge(dx1, dx2), -1)


def _dense_wedge_oracle(a: Form, b: Form) -> Form:
    """Independent bilinear expansion over all (unsorted) index pairs."""
    table = {}
    for ia in itertools.permutations(range(len(a.coords)), a.degree):
        for ib in itertools.permutations(range(len(b.coords)), b.degree):
            ca = a.coefficient(ia)
            cb = b.coefficient(ib)
            if ca == 0 or cb == 0:
                continue
            normalized = sort_index(ia + ib)
            if normalized is None:
                continue
            sign, idx = normalized
            # each canonical component is counted p! q! times by the loops
            table[idx] = table.get(idx, sp.Integer(0)) + sp.Integer(sign) * ca * cb
    p_fact = sp.factorial(a.degree) * sp.factorial(b.degree)
    return Form(a.coords, a.degree + b.degree,
                {k: v / p_fact for k, v in table.items()})


def test_wedge_matches_bilinear_expansion_oracle():
    a = Form(C2, 1, {(0,): "x2"})
    b = Form(C2, 1, {(1,): "x1"})
    result = wedge(a, b)
    assert result == Form(C2, 2, {(0, 1): "x1*x2"})
    assert result == _dense_wedge_oracle(a, b)


def test_wedge_random_forms_match_oracle(rng):
    for _ in range(10):
        pa, pb = rng.randint(0, 2), rng.randint(0, 2)
        a = rand_form(rng, C3, pa)
        b = rand_form(rng, C3, pb)
        assert wedge(a, b) == _dense_wedge_oracle(a, b)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionError):
        wedge(Form.basis(C2, (0,)), Form.basis(C3, (0,)))


def test_wedge_above_dimension_is_zero():
    a = Form.basis(C2, (0, 1))
    assert wedge(a, Form.basis(C2, (0,))).is_zero_form()


# -- add / scale ----------------------------------------------------------------


def test_add_cancels():
    dx1 = Form.basis(C2, (0,))
    assert add(dx1, scale(dx1, -1)).is_zero_form()


def test_scale_by_zero():
    assert scale(Form.basis(C2, (0, 1)), 0).is_zero_form()


def test_add_collects_like_terms():
    a = Form(C2, 1, {(0,): "x1"})
    b = Form(C2, 1, {(0,): "x2"})
    assert add(a, b) == Form(C2, 1, {(0,): "x1 + x2"})


def test_add_degree_mismatch():
    with pytest.raises(DimensionError):
        add(Form.basis(C2, (0,)), Form.basis(C2, (0, 1)))


# -- d_flat ----------------------------------------------------------------------


def test_d_flat_basic():
    assert d_flat(Form(C2, 1, {(1,): "x1"})) == Form(C2, 2, {(0, 1): 1})


def test_d_flat_nilpotent_on_scalar():
    f = Form.scalar(C2, "x1^2*x2")
    assert d_flat(d_flat(f)).is_zero_form()


def test_d_flat_rotation_form():
    theta = Form(C2, 1, {(0,): "-x2", (1,): "x1"})
    assert d_flat(theta) == Form(C2, 2, {(0, 1): 2})


# -- closure ----------------------------------------------------------------------


def test_closed_exact_form():
    omega = Form(C2, 1, {(0,): "x1", (1,): "x2"})  # d((x1^2+x2^2)/2)
    assert is_closed_flat(omega) is ClosureStatus.CLOSED


def test_rotation_form_not_closed():
    theta = Form(C2, 1, {(0,): "-x2", (1,): "x1"})
    assert is_closed_flat(theta) is ClosureStatus.NOT_CLOSED


def test_cauchy_riemann_style_condition():
    # u dx1 - v dx2 closed iff du/dx2 + dv/dx1 = 0; the differential is
    # -(du/dx2 + dv/dx1) dx1^dx2 (confirmed against d_flat directly)
    u, v = "x1", "x2"
    balanced = Form(C2, 1, {(0,): u, (1,): f"-({v})"})
    assert d_flat(balanced) == Form(C2, 2, {(0, 1): 0})
    assert is_closed_flat(balanced) is ClosureStatus.CLOSED

    unbalanced = Form(C2, 1, {(0,): "x2"})  # u = x2, v = 0
    assert d_flat(unbalanced) == Form(C2, 2, {(0, 1): -1})
    assert is_closed_flat(unbalanced) is ClosureStatus.NOT_CLOSED


# -- algebraic laws on random forms ------------------------------------------------


def test_graded_anticommutativity(rng):
    for _ in range(15):
        pa, pb = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(rng, C3, pa), rand_form(rng, C3, pb)
        assert wedge(a, b) == scale(wedge(b, a), (-1) ** (pa * pb))


def test_wedge_associativity(rng):
    for _ in range(10):
        a = rand_form(rng, C3, rng.randint(0, 1))
        b = rand_form(rng, C3, rng.randint(0, 1))
        c = rand_form(rng, C3, rng.randint(0, 1))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_graded_leibniz(rng):
    for _ in range(10):
        pa = rng.randint(0, 2)
        a = rand_form(rng, C3, pa)
        b = rand_form(rng, C3, rng.randint(0, 2))
        left = d_flat(wedge(a, b))
        right = add(wedge(d_flat(a), b), scale(wedge(a, d_flat(b)), (-1) ** pa))
        assert left == right


def test_d_flat_nilpotency_random(rng):
    for _ in range(15):
        a = rand_form(rng, C3, rng.randint(0, 2))
        assert d_flat(d_flat(a)).is_zero_form()


# -- normalization invariants --------------------------------------------------------


def test_no_stored_zero_coefficients():
    f = Form(C2, 1, {(0,): "x1 - x1", (1,): "x2"})
    assert (0,) not in f.terms
    assert list(f.terms) == [(1,)]


def test_degree_above_dimension_normalizes_to_zero():
    f = Form(C2, 3)
    assert f.is_zero_form()
    assert f.degree == 3


def test_rejects_bad_indices():
    with pytest.raises(DimensionError):
        Form(C2, 2, {(1, 0): 1})
    with pytest.raises(DimensionError):
        Form(C2, 1, {(5,): 1})
    with pytest.raises(DimensionError):
        Form(C2, 2, {(0,): 1})


def test_form_text_rendering():
    theta = Form(C2, 1, {(0,): "-x2", (1,): "x1"})
    assert str(theta) == "(-x2) dx1 + (x1) dx2"
    assert str(Form.zero(C2, 1)) == "(0) dx1"
    assert str(Form.zero(C2, 0)) == "(0)"
    assert str(Form.scalar(C2, "x1 + 1")) == "(x1 + 1)"
