import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    BalanceSystem,
    Connection,
    EvaluationError,
    Form,
    Metric,
    Pseudostructure,
    UnsupportedExpressionError,
    ZeroStatus,
    as_expr,
    differentiate,
    eval_at,
    expr_text,
    is_zero,
    simplify_expr,
    substitute,
)
from formcalc.symexpr import _canonical

x, y = sp.symbols("x y")


# -- differentiate -------------------------------------------------------------


def test_differentiate_constant():
    assert differentiate(sp.Rational(7, 3), "x") == 0


def test_differentiate_power_rule():
    assert differentiate(x**2 + y, "x") == 2 * x


def test_differentiate_chain_rule_against_finite_differences():
    e = sp.sin(x * y)
    de = differentiate(e, "x")
    assert de == y * sp.cos(x * y)
    rng = random.Random(11)
    h = Fraction(1, 10**5)
    for _ in range(5):
        point = {"x": Fraction(rng.randint(-20, 20), 7), "y": Fraction(rng.randint(-20, 20), 7)}
        up = dict(point, x=point["x"] + h)
        down = dict(point, x=point["x"] - h)
        numeric = (eval_at(e, up) - eval_at(e, down)) / (2 * float(h))
        symbolic = eval_at(de, point)
        assert numeric == pytest.approx(symbolic, rel=1e-6, abs=1e-8)


def test_differentiate_rejects_unknown_function():
    with pytest.raises(UnsupportedExpressionError):
        differentiate(sp.tan(x), "x")


# -- substitute ---------------------------------------------------------------


def test_substitute_merges_like_terms():
    t = sp.Symbol("t")
    assert substitute(x + y, {"x": t, "y": t}) == 2 * t


def test_substitute_direct_replacement():
    t = sp.Symbol("t")
    assert substitute(x * y, {"x": sp.cos(t), "y": sp.sin(t)}) == sp.cos(t) * sp.sin(t)


def test_substitute_expands_polynomials():
    result = substitute(x**2, {"x": x + 1})
    assert result == sp.expand((x + 1) ** 2)


def test_substitute_is_simultaneous():
    # x and y swap without clobbering each other
    assert substitute(x - y, {"x": y, "y": x}) == y - x


# -- eval_at -------------------------------------------------------------------


def test_eval_at_exact_rational():
    assert eval_at(x / y, {"x": 1, "y": 2}) == Fraction(1, 2)


def test_eval_at_division_by_zero():
    with pytest.raises(EvaluationError):
        eval_at(x / y, {"x": 1, "y": 0})


def test_eval_at_transcendental_gives_float():
    value = eval_at(sp.exp(sp.Integer(0)) + x, {"x": 1})
    assert isinstance(value, (float, Fraction))
    assert float(value) == pytest.approx(2.0)


def test_eval_at_unbound_variable():
    with pytest.raises(EvaluationError):
        eval_at(x + y, {"x": 1})


def test_eval_at_log_of_negative():
    with pytest.raises(EvaluationError):
        eval_at(sp.log(x), {"x": -2})


# -- is_zero -------------------------------------------------------------------


def test_is_zero_algebraic_identity():
    assert is_zero((x + 1) ** 2 - x**2 - 2 * x - 1) is ZeroStatus.ZERO


def test_is_zero_difference_of_variables():
    assert is_zero(x - y) is ZeroStatus.NONZERO


def test_is_zero_pythagorean_identity():
    assert is_zero(sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1) is ZeroStatus.ZERO


def test_is_zero_double_angle_is_only_probable():
    # mathematically zero but outside the fixed rule list and not rational
    e = sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x)
    assert is_zero(e) is ZeroStatus.PROBABLY_NONZERO


def test_is_zero_transcendental_nonzero():
    assert is_zero(sp.sin(x) - x) is ZeroStatus.NONZERO


def test_is_zero_polynomials_are_exact(rng):
    from conftest import rand_poly

    for _ in range(25):
        p = rand_poly(rng, ("x", "y", "z"), 3, 3)
        verdict = is_zero(p)
        assert verdict is not ZeroStatus.PROBABLY_NONZERO
        assert (verdict is ZeroStatus.ZERO) == (sp.expand(p) == 0)


# -- simplify / canonical form --------------------------------------------------


def test_simplify_is_deterministic_under_commutation():
    left = simplify_expr(sp.Add(x, y, x * y, evaluate=False))
    right = simplify_expr(sp.Add(x * y, y, x, evaluate=False))
    assert left == right
    assert sp.srepr(left) == sp.srepr(right)


def test_simplify_cancels_rational_functions():
    assert simplify_expr((x**2 - 1) / (x - 1)) == x + 1


def test_simplify_keeps_harmless_sines():
    e = sp.sin(x) ** 2
    assert simplify_expr(e) == e


def test_simplify_hidden_zero_denominator_matches_cancel():
    e = as_expr("1/(x*(x + 1) - x^2 - x)")
    assert simplify_expr(e) == sp.cancel(e) == sp.zoo
    assert simplify_expr(sp.sin(x) * e) == sp.zoo * sp.sin(x)


# Function-free trees over coordinates whose names sort differently as
# strings and as numbered symbols (x2 < x10), mixed with plain names.
CANCEL_NAMES = ("x1", "x2", "x3", "x9", "x10", "x11", "x12", "a", "y", "t1", "xi1", "b")

rational_leaves = st.one_of(
    st.sampled_from(CANCEL_NAMES).map(sp.Symbol),
    st.builds(sp.Rational, st.integers(-9, 9), st.integers(1, 6)),
)


def _function_free_node(children):
    sums = st.lists(children, min_size=2, max_size=4).map(lambda a: sp.Add(*a))
    products = st.lists(children, min_size=2, max_size=3).map(lambda a: sp.Mul(*a))
    powers = st.tuples(children, st.sampled_from([-2, -1, -1, 2, 3])).map(
        lambda be: sp.Pow(be[0], be[1])
    )
    # a reciprocal at the root keeps a negative leading coefficient in the
    # denominator unless the canonicaliser flips the sign
    negated = st.tuples(children, children).map(lambda ab: sp.Pow(ab[0] - ab[1] ** 2, -1))
    return st.one_of(sums, products, powers, negated)


function_free_trees = st.recursive(rational_leaves, _function_free_node, max_leaves=12).filter(
    lambda e: not e.has(sp.zoo, sp.nan)
)


@settings(max_examples=80, deadline=None)
@given(function_free_trees)
def test_simplify_matches_cancel_on_function_free_trees(e):
    expected = sp.cancel(e)
    got = simplify_expr(e)
    assert sp.srepr(got) == sp.srepr(expected)
    assert expr_text(got) == expr_text(expected)


@settings(max_examples=40, deadline=None)
@given(function_free_trees)
def test_simplify_is_idempotent(e):
    once = simplify_expr(e)
    assert sp.srepr(simplify_expr(once)) == sp.srepr(once)


def cancel_then_pythagorean(e):
    """Reference canonical form: ``sp.cancel``, then the Pythagorean
    candidate, the shorter one kept."""
    base = sp.cancel(e)
    if not base.atoms(sp.sin):
        return base
    collapsed = base
    for s in sorted(base.atoms(sp.sin), key=sp.default_sort_key):
        collapsed = collapsed.subs(s**2, 1 - sp.cos(s.args[0]) ** 2)
    collapsed = sp.cancel(collapsed)
    return min((base, collapsed), key=lambda c: (sp.count_ops(c), sp.default_sort_key(c)))


def _transcendental_node(children):
    functions = st.tuples(st.sampled_from([sp.sin, sp.cos, sp.exp, sp.log]), children)
    return st.one_of(_function_free_node(children), functions.map(lambda fa: fa[0](fa[1])))


def _accepted(e):
    try:
        as_expr(e)
    except UnsupportedExpressionError:  # log of a negative constant brings in I*pi
        return False
    return not e.has(sp.zoo, sp.nan)


# function arguments may be rational or nested, so every route is drawn
transcendental_trees = st.recursive(
    st.one_of(rational_leaves, st.just(sp.E)), _transcendental_node, max_leaves=10
).filter(_accepted)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transcendental_trees)
def test_simplify_matches_cancel_on_transcendental_trees(e):
    assert sp.srepr(simplify_expr(e)) == sp.srepr(cancel_then_pythagorean(e))


T1, T2 = sp.symbols("t1 t2")

# one case per route to sp.cancel: log with integer content, an exp(c*u)
# generator with c negative or fractional, a rational or nested-rational
# argument, a zero denominator
ROUTED_TO_CANCEL = {
    "log-content": sp.sympify("-3*log(2*x**2 + 2)"),
    "log-square": sp.sympify("2*log((-3*y**2 - 3)**2) + 2*log(3)"),
    # built with xreplace: parsing would distribute the minus sign
    "exp-negative": (2 * (T1 - T1 * T2) * sp.exp(-x * y)).xreplace(
        {x: T1**2 + T2, y: -2 * T1 * T2 - 2 * T1}
    ),
    "exp-constant": sp.sympify("exp(7/3)/(E - exp(2))", rational=True),
    "exp-fraction": sp.sympify("-(-x + 3*exp(x) + 3*exp(-x)*sin(x))*exp(2*x/3)/2", rational=True),
    "rational-argument": sp.sympify("sin(3*x + 3/2 + 1/(x - 81/4))", rational=True),
    "nested-argument": sp.sympify("exp(1/(-x**3*y/2 - 4/(a**2*x**2)))", rational=True),
    "zero-denominator": sp.sympify("sin(x)/(x*(x + 1) - x^2 - x)", convert_xor=True),
}


@pytest.mark.parametrize("e", ROUTED_TO_CANCEL.values(), ids=ROUTED_TO_CANCEL.keys())
def test_simplify_matches_cancel_where_the_ring_path_would_not(e):
    assert sp.srepr(simplify_expr(e)) == sp.srepr(cancel_then_pythagorean(e))


def test_sin_cos_exp_of_polynomials_never_call_cancel(monkeypatch):
    x1, x2 = sp.symbols("x1 x2")
    trees = [
        x1 * sp.sin(x1 * x2 - 1) + sp.cos(x2) / x1,
        # sring splits exp(x1 - x2) into exp(x1)*exp(-x2), a route to cancel
        (sp.exp(x1 + x2**2) * x2 - x1) / (x1**2 * x2 - x1 * x2**2),
    ]
    expected = [cancel_then_pythagorean(e) for e in trees]

    def no_cancel(*args, **kwargs):
        raise AssertionError("sympy.cancel called")

    monkeypatch.setattr(sp, "cancel", no_cancel)
    _canonical.cache_clear()  # a memoized result would hide a call
    for e, want in zip(trees, expected):
        assert sp.srepr(simplify_expr(e)) == sp.srepr(want)


@pytest.mark.parametrize("text", ["1/(x10 - x2) + x2/(x2*x10 - 1)", "1/(1 - x)", "y/(2 - x10*a)^3"])
def test_simplify_matches_cancel_on_sign_and_order_cases(text):
    e = sp.sympify(text, rational=True, convert_xor=True)
    assert sp.srepr(simplify_expr(e)) == sp.srepr(sp.cancel(e))


def test_rational_constants_are_reduced():
    e = as_expr("2/4")
    assert e == sp.Rational(1, 2)
    assert (e.p, e.q) == (1, 2)


def test_validate_rejects_floats():
    with pytest.raises(UnsupportedExpressionError):
        as_expr(sp.Float(0.5) * x)


def test_validate_rejects_symbolic_exponents():
    with pytest.raises(UnsupportedExpressionError):
        as_expr(x**y)


def test_validate_accepts_quotients_and_functions():
    as_expr(1 / (x + y) + sp.log(x) * sp.exp(y) - sp.cos(x) ** 3)


#: Every public entry point that takes a coefficient, as value -> result.
GATED_CONSTRUCTORS = {
    "Form": lambda v: Form(("x", "y"), 1, {(0,): v}),
    "Connection.from_nested": lambda v: Connection.from_nested([[[v, 0], [0, 0]], [[0, 0], [0, 0]]]),
    "Metric.from_nested": lambda v: Metric.from_nested([[v, 0], [0, 1]]),
    "BalanceSystem.build": lambda v: BalanceSystem.build(("x", "y"), [v, 0]),
    "Pseudostructure.build": lambda v: Pseudostructure.build(["x"], [("a", "x"), ("b", v)], constants=["y"]),
    "simplify_expr": simplify_expr,
    "as_expr": as_expr,
}


@pytest.mark.parametrize("construct", GATED_CONSTRUCTORS.values(), ids=GATED_CONSTRUCTORS.keys())
def test_every_constructor_applies_the_coefficient_gate(construct):
    for bad in (sp.Float(0.5) * x, x**y):
        with pytest.raises(UnsupportedExpressionError):
            construct(bad)
    construct("1/2")


# -- linearity and product rule (property-based) --------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def small_polys(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return rand_poly_from_seed(seed)


def rand_poly_from_seed(seed):
    from conftest import rand_poly

    return rand_poly(random.Random(seed), ("x", "y"), 2, 3)


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys(), rationals, rationals)
def test_differentiate_linearity(e1, e2, a, b):
    a, b = sp.Rational(a.numerator, a.denominator), sp.Rational(b.numerator, b.denominator)
    combined = differentiate(a * e1 + b * e2, "x")
    split = simplify_expr(a * differentiate(e1, "x") + b * differentiate(e2, "x"))
    assert combined == split


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys())
def test_product_rule_matches_expand_then_differentiate(e1, e2):
    via_rule = simplify_expr(differentiate(e1, "x") * e2 + e1 * differentiate(e2, "x"))
    via_expansion = simplify_expr(sp.diff(sp.expand(e1 * e2), sp.Symbol("x")))
    assert via_rule == via_expansion


def test_derivative_matches_central_difference_for_smooth_expr():
    e = sp.exp(x) * sp.cos(y) + x**2 * y
    de = differentiate(e, "y")
    rng = random.Random(5)
    h = Fraction(1, 10**5)
    for _ in range(5):
        point = {"x": Fraction(rng.randint(-10, 10), 7), "y": Fraction(rng.randint(-10, 10), 7)}
        up = dict(point, y=point["y"] + h)
        down = dict(point, y=point["y"] - h)
        numeric = (float(eval_at(e, up)) - float(eval_at(e, down))) / (2 * float(h))
        assert numeric == pytest.approx(float(eval_at(de, point)), rel=1e-6, abs=1e-8)
