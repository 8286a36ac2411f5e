import pytest
import sympy as sp

from formcalc import Form, ParseError
from formcalc.dsl import MAX_NESTING, default_coords, parse_expr, parse_form
from formcalc.symexpr import expr_text

C2 = ("x1", "x2")


# -- expressions ---------------------------------------------------------------


def test_parse_basic_arithmetic():
    x1, x2 = sp.symbols("x1 x2")
    assert parse_expr("x1 + 2*x2") == x1 + 2 * x2
    assert parse_expr("x1^2 - 1/2") == x1**2 - sp.Rational(1, 2)
    assert parse_expr("-x1^2") == -(x1**2)
    assert parse_expr("(x1 + x2)/3") == (x1 + x2) / 3


def test_parse_functions():
    t = sp.Symbol("t")
    assert parse_expr("sin(t)*cos(t)") == sp.sin(t) * sp.cos(t)
    assert parse_expr("exp(2*t) + log(t)") == sp.exp(2 * t) + sp.log(t)


def test_parse_power_is_right_associative():
    x = sp.Symbol("x")
    assert parse_expr("x^2^3") == x**8


def test_parse_negative_exponent():
    x = sp.Symbol("x")
    assert parse_expr("x^(-2)") == x**-2
    assert parse_expr("x^-2") == x**-2


def test_reserved_exponential_base():
    assert parse_expr("E") is sp.E
    assert parse_expr("exp(1)") is sp.E


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + + x2")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_expr("x1 +\n  * x2")
    assert err.value.line == 2
    assert err.value.column == 3


def test_parse_rejects_floats_and_unknown_functions():
    with pytest.raises(ParseError):
        parse_expr("0.5*x")
    with pytest.raises(ParseError):
        parse_expr("tan(x)")
    with pytest.raises(ParseError):
        parse_expr("x^y")


def test_expr_round_trip():
    cases = [
        "x1 + 2*x2",
        "x1^2 - 1/2",
        "-3*x1*x2 + x2^3",
        "sin(x1*x2)",
        "exp(x1)/(x2 + 1)",
        "log(x1)^2 - cos(x2)",
        "1/(x1 + x2)^2",
    ]
    for text in cases:
        e = parse_expr(text)
        assert parse_expr(expr_text(e)) == e


# -- forms -----------------------------------------------------------------------


def test_parse_repeated_basis_index_is_zero():
    assert parse_form("dx1^dx1", C2).is_zero_form()


def test_parse_one_form():
    f = parse_form("(x2) dx1 + (x1) dx2", C2)
    assert f == Form(C2, 1, {(0,): "x2", (1,): "x1"})


def test_parse_unsorted_basis_picks_up_sign():
    f = parse_form("dx2^dx1", C2)
    assert f == Form(C2, 2, {(0, 1): -1})


def test_parse_degree_zero_form():
    f = parse_form("(x1^2 + x2)", C2)
    assert f == Form.scalar(C2, "x1^2 + x2")


def test_parse_subtraction_of_terms():
    f = parse_form("(x1) dx1 - (x2) dx2", C2)
    assert f == Form(C2, 1, {(0,): "x1", (1,): "-x2"})


def test_parse_unknown_coordinate():
    with pytest.raises(ParseError) as err:
        parse_form("(x1) dx9", C2)
    assert "unknown coordinate" in str(err.value)


def test_parse_mixed_degrees_rejected():
    with pytest.raises(ParseError):
        parse_form("(x1) dx1 + (x2) dx1^dx2", C2)


def test_parse_bare_identifier_is_not_a_form():
    with pytest.raises(ParseError):
        parse_form("x1", C2)


def test_form_round_trip_with_loose_whitespace():
    f = parse_form("( -x2 ) dx1 + ( x1 ) dx2", C2)
    assert str(f) == "(-x2) dx1 + (x1) dx2"
    assert parse_form(str(f), C2) == f


def test_zero_form_round_trip_keeps_degree():
    zero2 = parse_form("dx1^dx1", C2)
    assert zero2.degree == 2 and zero2.is_zero_form()
    assert str(zero2) == "(0) dx1^dx2"
    assert parse_form(str(zero2), C2) == zero2
    zero0 = parse_form("0", C2)
    assert zero0 == Form.zero(C2, 0)
    assert parse_form(str(zero0), C2) == zero0


def test_form_round_trip_cases():
    coords3 = default_coords(3)
    cases = [
        ("dx1^dx2", C2),
        ("(x2) dx1 + (x1) dx2", C2),
        ("(1/2) dx1^dx2", C2),
        ("(x1^2 - x2) dx1", C2),
        ("(sin(x1)) dx2", C2),
        ("(x1*x2*x3) dx1^dx2^dx3", coords3),
        ("(x3) dx1^dx2 + (-x1) dx2^dx3", coords3),
        ("(2)", C2),
        ("(x1 + 1/3)", C2),
    ]
    for text, coords in cases:
        f = parse_form(text, coords)
        assert parse_form(str(f), coords) == f


def test_default_coords():
    assert default_coords(3) == ("x1", "x2", "x3")


def test_nesting_limit_is_a_positioned_parse_error():
    x = sp.Symbol("x")
    assert MAX_NESTING == 100
    assert parse_expr("(" * 100 + "x" + ")" * 100) == x
    assert parse_expr("-" * 100 + "x") == x
    with pytest.raises(ParseError, match=r"nested deeper than 100 levels \(line 1, column 102\)"):
        parse_expr("(" * 101 + "x" + ")" * 101)
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_expr("-" * 101 + "x")
