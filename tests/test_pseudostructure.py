import random
from fractions import Fraction

import pytest
import sympy as sp

from conftest import rand_form, rand_poly
from formcalc import (
    ClosureStatus,
    DimensionError,
    Form,
    ImmersionError,
    Manifold,
    Pseudostructure,
    as_expr,
    d_pi,
    defines_pseudostructure,
    degenerate_locus,
    euclidean,
    eval_at,
    is_closed_on,
    jacobian_determinant,
    poisson_bracket,
    pullback,
)
from formcalc.forms import d_flat, scale, wedge

XY = ("x", "y")


def line_curve(c=0):
    constants = [c] if isinstance(c, str) else []
    return Pseudostructure.build(
        ["t"], [("x", as_expr("t")), ("y", as_expr(c))], constants=constants
    )


def circle():
    return Pseudostructure.build(["t"], [("x", as_expr("cos(t)")), ("y", as_expr("sin(t)"))])


def rand_polynomial_map(rng, params, ambient):
    mapping = []
    for i, name in enumerate(ambient):
        # affine base guarantees generic full rank, plus a nonlinear tail
        base = sp.Symbol(params[i]) if i < len(params) else sp.Integer(0)
        mapping.append((name, base + rand_poly(rng, params, 1, 2)))
    return Pseudostructure.build(params, mapping)


# -- pullback -------------------------------------------------------------------


def test_pullback_above_parameter_dimension_vanishes():
    pi = Pseudostructure.build(["t"], [("x", as_expr("t")), ("y", as_expr("t"))])
    assert pullback(pi, Form.basis(XY, (0, 1))).is_zero_form()


def test_pullback_radial_form_on_circle():
    omega = Form(XY, 1, {(0,): "x", (1,): "y"})
    assert pullback(circle(), omega).is_zero_form()


def test_pullback_rotation_form_on_axis_line():
    omega = Form(XY, 1, {(0,): "-y", (1,): "x"})
    assert pullback(line_curve(0), omega).is_zero_form()


def test_pullback_substitutes_coefficients():
    omega = Form(XY, 1, {(0,): "y"})
    pulled = pullback(line_curve("c"), omega)
    assert pulled == Form(("t",), 1, {(0,): "c"})


def test_pullback_dimension_mismatch():
    omega = Form(("x", "y", "z"), 1, {(0,): 1})
    with pytest.raises(DimensionError):
        pullback(circle(), omega)


def test_pullback_naturality_random(rng):
    for _ in range(10):
        pi = rand_polynomial_map(rng, ("t1", "t2"), ("x", "y", "z"))
        theta = rand_form(rng, ("x", "y", "z"), rng.randint(0, 2))
        assert pullback(pi, d_flat(theta)) == d_flat(pullback(pi, theta))


def test_pullback_multiplicativity_and_scaling(rng):
    for _ in range(6):
        pi = rand_polynomial_map(rng, ("t1", "t2"), ("x", "y", "z"))
        a = rand_form(rng, ("x", "y", "z"), 1)
        b = rand_form(rng, ("x", "y", "z"), rng.randint(0, 1))
        assert pullback(pi, wedge(a, b)) == wedge(pullback(pi, a), pullback(pi, b))
        assert pullback(pi, scale(a, 3)) == scale(pullback(pi, a), 3)


def test_pullback_additivity(rng):
    for _ in range(6):
        pi = rand_polynomial_map(rng, ("t1", "t2"), ("x", "y", "z"))
        a = rand_form(rng, ("x", "y", "z"), 1)
        b = rand_form(rng, ("x", "y", "z"), 1)
        assert pullback(pi, a + b) == pullback(pi, a) + pullback(pi, b)


# -- interior differential and closure -------------------------------------------


def test_d_pi_commutes_with_d_for_exact_forms(rng):
    for _ in range(5):
        pi = rand_polynomial_map(rng, ("t1", "t2"), ("x", "y", "z"))
        theta = rand_form(rng, ("x", "y", "z"), 1)
        exact = d_flat(theta)
        assert d_pi(pi, exact).is_zero_form()
        assert is_closed_on(pi, exact) is ClosureStatus.CLOSED


def test_unclosed_plane_form_closes_on_any_curve():
    omega = Form(XY, 1, {(0,): "-y", (1,): "x"})
    assert d_flat(omega) == Form(XY, 2, {(0, 1): 2})  # unclosed in the plane
    for pi in (line_curve(0), line_curve(2), circle()):
        assert is_closed_on(pi, omega) is ClosureStatus.CLOSED


def test_closes_on_line_though_unclosed_in_plane():
    omega = Form(XY, 1, {(0,): "y"})
    pi = line_curve("c")
    assert pullback(pi, omega) == Form(("t",), 1, {(0,): "c"})
    assert d_pi(pi, omega).is_zero_form()
    assert is_closed_on(pi, omega) is ClosureStatus.CLOSED


def test_defines_pseudostructure_checks_both_conditions():
    m = Manifold(XY, metric=euclidean(2))
    # omega = x dx + y dy: closed everywhere; its dual -y dx + x dy pulls
    # back to t^2 dt + ... on the diagonal line, still closed on a 1-dim carrier
    omega = Form(XY, 1, {(0,): "x", (1,): "y"})
    pi = Pseudostructure.build(["t"], [("x", as_expr("t")), ("y", as_expr("t"))])
    check = defines_pseudostructure(m, pi, omega)
    assert check.primal is ClosureStatus.CLOSED
    assert check.dual is ClosureStatus.CLOSED
    assert check.satisfied


# -- immersion validation ----------------------------------------------------------


def test_rank_deficient_map_rejected():
    with pytest.raises(ImmersionError):
        Pseudostructure.build(
            ["t1", "t2"],
            [("x", as_expr("t1")), ("y", as_expr("t1"))],
        )


def test_rank_deficient_everywhere_rejected_with_rank_in_message():
    # columns stay equal at every point: the rank is 1 on the exact path
    with pytest.raises(ImmersionError) as err:
        Pseudostructure.build(
            ["t1", "t2"],
            [("x", as_expr("t1 + t2")), ("y", as_expr("(t1 + t2)^2 / 3")), ("z", as_expr("1"))],
        )
    assert str(err.value) == "map Jacobian has generic rank 1 < 2; not an immersion"


def test_transcendental_immersion_passes_on_float_path():
    sphere_patch = Pseudostructure.build(
        ["u", "v"],
        [
            ("x", as_expr("cos(u) * cos(v)")),
            ("y", as_expr("cos(u) * sin(v)")),
            ("z", as_expr("sin(u)")),
        ],
    )
    assert sphere_patch.parameter_dim == 2


def test_transcendental_rank_deficient_map_rejected_on_float_path():
    with pytest.raises(ImmersionError) as err:
        Pseudostructure.build(
            ["u", "v"],
            [("x", as_expr("cos(u + v)")), ("y", as_expr("sin(u + v)"))],
        )
    assert str(err.value) == "map Jacobian has generic rank 1 < 2; not an immersion"


def test_stray_symbols_rejected_without_declaration():
    with pytest.raises(ImmersionError):
        Pseudostructure.build(["t"], [("x", as_expr("t")), ("y", as_expr("c0"))])
    # declaring the constant makes the same map valid
    Pseudostructure.build(["t"], [("x", as_expr("t")), ("y", as_expr("c0"))], constants=["c0"])


def test_more_parameters_than_coordinates_rejected():
    with pytest.raises(ImmersionError):
        Pseudostructure.build(["t1", "t2"], [("x", as_expr("t1"))])


# -- jacobian determinant ------------------------------------------------------------


def test_jacobian_identity():
    assert jacobian_determinant([as_expr("x"), as_expr("y")], ["x", "y"]) == 1


def test_jacobian_polar():
    det = jacobian_determinant(
        [as_expr("r*cos(phi)"), as_expr("r*sin(phi)")], ["r", "phi"]
    )
    assert det == sp.Symbol("r")


def test_jacobian_square_map():
    det = jacobian_determinant([as_expr("x^2"), as_expr("y")], ["x", "y"])
    assert det == 2 * sp.Symbol("x")


def test_jacobian_requires_square():
    with pytest.raises(DimensionError):
        jacobian_determinant([as_expr("x")], ["x", "y"])


def test_jacobian_composition_is_product_at_points(rng):
    # for affine maps F, G: det(J_{F o G}) = det(J_F) det(J_G); checked numerically
    for _ in range(5):
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        x_, y_ = sp.symbols("x y")
        f = [a[0][0] * x_ + a[0][1] * y_, a[1][0] * x_ + a[1][1] * y_]
        g = [b[0][0] * x_ + b[0][1] * y_, b[1][0] * x_ + b[1][1] * y_]
        comp = [fi.subs({x_: g[0], y_: g[1]}, simultaneous=True) for fi in f]
        det_comp = jacobian_determinant(comp, ["x", "y"])
        det_f = jacobian_determinant(f, ["x", "y"])
        det_g = jacobian_determinant(g, ["x", "y"])
        point = {"x": Fraction(rng.randint(-5, 5), 3), "y": Fraction(rng.randint(-5, 5), 3)}
        assert eval_at(det_comp, point) == eval_at(det_f, point) * eval_at(det_g, point)


# -- poisson bracket ------------------------------------------------------------------


def test_poisson_canonical_pair():
    assert poisson_bracket(as_expr("q"), as_expr("p"), [("q", "p")]) == 1


def test_poisson_self_bracket_vanishes():
    f = as_expr("q^2*p + p^3")
    assert poisson_bracket(f, f, [("q", "p")]) == 0


def test_poisson_quadratic():
    assert poisson_bracket(as_expr("q^2"), as_expr("p"), [("q", "p")]) == 2 * sp.Symbol("q")


def test_poisson_antisymmetry_and_leibniz(rng):
    names = ("q", "p", "u", "v")
    pairs = [("q", "p"), ("u", "v")]
    for _ in range(6):
        f = rand_poly(rng, names, 2, 2)
        g = rand_poly(rng, names, 2, 2)
        h = rand_poly(rng, names, 2, 2)
        assert sp.expand(poisson_bracket(f, g, pairs) + poisson_bracket(g, f, pairs)) == 0
        left = poisson_bracket(f * g, h, pairs)
        right = sp.expand(f * poisson_bracket(g, h, pairs) + g * poisson_bracket(f, h, pairs))
        assert sp.expand(left - right) == 0


def test_poisson_rejects_duplicate_names():
    with pytest.raises(DimensionError):
        poisson_bracket(as_expr("q"), as_expr("p"), [("q", "p"), ("q", "r")])


# -- degenerate locus ------------------------------------------------------------------


def test_locus_of_polar_jacobian():
    report = degenerate_locus(as_expr("r"))
    assert report.exact
    assert report.locus_components == (sp.Symbol("r"),)


def test_locus_of_nonzero_constant_is_empty():
    report = degenerate_locus(as_expr("1"))
    assert report.exact
    assert report.factors == ()


def test_locus_factors_difference_of_squares():
    report = degenerate_locus(as_expr("x^2 - y^2"))
    assert report.exact
    components = set(map(str, report.locus_components))
    assert components == {"x - y", "x + y"}


def test_locus_reconstructs_polynomial():
    e = as_expr("2*x^2*y - 2*y^3")
    report = degenerate_locus(e)
    product = report.constant
    for f, mult in report.factors:
        product *= f**mult
    assert sp.expand(product - e) == 0


def test_locus_multiplicities():
    report = degenerate_locus(as_expr("x^2*(x - 1)"))
    table = {str(f): m for f, m in report.factors}
    assert table == {"x": 2, "x - 1": 1}


def test_locus_transcendental_probes_zeros():
    report = degenerate_locus(as_expr("sin(x)"))
    assert not report.exact
    assert report.sample_zeros
    for z in report.sample_zeros:
        assert abs(float(sp.sin(z["x"]))) < 1e-6


def test_locus_transcendental_without_zero():
    report = degenerate_locus(as_expr("exp(x) + 1"))
    assert not report.exact
    assert report.sample_zeros == ()
    assert report.note == "no zero found in probe box"
