import json

import jsonschema
import pytest

from formcalc.cli import REPORT_SCHEMA, _build_parser, main, run


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def rotation_balance(tmp_path):
    return write_json(tmp_path / "balance.json", {
        "coords": ["xi1", "xi2"],
        "A": ["xi2", "-xi1"],
        "psi": "psi",
    })


@pytest.fixture
def shear_balance(tmp_path):
    return write_json(tmp_path / "shear.json", {
        "coords": ["xi1", "xi2"],
        "A": ["xi2", "0"],
    })


@pytest.fixture
def constant_line(tmp_path):
    return write_json(tmp_path / "line.json", {
        "params": ["t"],
        "map": {"xi1": "t", "xi2": "c0"},
        "constants": ["c0"],
    })


@pytest.fixture
def torsion_manifold(tmp_path):
    gamma = [[["0", "0"], ["c", "0"]], [["0", "0"], ["0", "0"]]]
    return write_json(tmp_path / "manifold.json", {
        "dim": 2,
        "coords": ["x1", "x2"],
        "gamma": gamma,
    })


def check(record):
    jsonschema.validate(record, REPORT_SCHEMA)
    return record


# -- basic command behavior -----------------------------------------------------


def test_d_command():
    code, record = run(["d", "--form", "(x1) dx2", "--dim", "2"])
    check(record)
    assert code == 0
    assert record["status"] == "ok"
    assert record["result"]["form"]["text"] == "(1) dx1^dx2"


def test_wedge_command():
    code, record = run([
        "wedge", "--form", "(x2) dx1", "--form", "(x1) dx2", "--dim", "2",
    ])
    check(record)
    assert code == 0
    assert record["result"]["form"]["terms"] == {"dx1^dx2": "x1*x2"}


def test_closure_command_exit_codes():
    code, record = run(["closure", "--form", "(x1) dx1 + (x2) dx2", "--dim", "2"])
    check(record)
    assert (code, record["status"]) == (0, "ok")
    assert record["result"]["closed"] == "closed"

    code, record = run(["closure", "--form", "(-x2) dx1 + (x1) dx2", "--dim", "2"])
    check(record)
    assert (code, record["status"]) == (1, "closure-failed")
    assert record["result"]["differential"]["terms"] == {"dx1^dx2": "2"}


def test_d_evo_command(torsion_manifold):
    code, record = run([
        "d-evo", "--form", "(a1) dx1", "--manifold", torsion_manifold,
    ])
    check(record)
    assert code == 0
    assert record["result"]["deforming"] is True
    assert record["result"]["form"]["terms"] == {"dx1^dx2": "a1*c"}


def test_commutator_command(torsion_manifold):
    code, record = run([
        "commutator", "--form", "(a1) dx1", "--manifold", torsion_manifold,
    ])
    check(record)
    assert code == 0
    rep = record["result"]["commutator"]
    assert rep["coefficient_term"]["text"] == "(0) dx1^dx2"
    assert rep["metric_term"]["terms"] == {"dx1^dx2": "a1*c"}


def test_star_delta_laplacian_commands():
    code, record = run(["star", "--form", "(1) dx1", "--dim", "2"])
    check(record)
    assert record["result"]["form"]["text"] == "(1) dx2"

    code, record = run(["delta", "--form", "(x1) dx1", "--dim", "2"])
    assert check(record)["result"]["form"]["text"] == "(1)"

    code, record = run([
        "laplacian", "--form", "(x1^2 + x2^2)", "--dim", "2", "--variant", "paper",
    ])
    assert check(record)["result"]["form"]["text"] == "(-4)"
    assert check(record)["inputs"]["variant"] == "paper"


def test_pullback_and_dpi_commands(tmp_path, constant_line):
    code, record = run(["pullback", "--form", "(xi2) dxi1", "--pseudo", constant_line])
    check(record)
    assert code == 0
    assert record["result"]["form"]["text"] == "(c0) dt"

    code, record = run(["dpi", "--form", "(xi2) dxi1", "--pseudo", constant_line])
    check(record)
    assert code == 0
    assert record["result"]["closed"] == "closed"

    plane = write_json(tmp_path / "plane.json", {
        "params": ["t1", "t2"],
        "map": {"xi1": "t1", "xi2": "t2"},
    })
    code, record = run(["dpi", "--form", "(xi2) dxi1", "--pseudo", plane])
    check(record)
    assert code == 1
    assert record["status"] == "closure-failed"
    assert record["result"]["closed"] == "not-closed"


def test_jacobian_command():
    code, record = run([
        "jacobian",
        "--expr", "r*cos(phi)", "--expr", "r*sin(phi)",
        "--vars", "r,phi",
    ])
    check(record)
    assert code == 0
    assert record["result"]["determinant"] == "r"


def test_poisson_command():
    code, record = run(["poisson", "--f", "q^2", "--g", "p", "--pairs", "q:p"])
    check(record)
    assert record["result"]["bracket"] == "2*q"


def test_locus_command():
    code, record = run(["locus", "--expr", "x^2 - y^2"])
    check(record)
    factors = {f["factor"] for f in record["result"]["factors"]}
    assert factors == {"x - y", "x + y"}


def test_relation_command(rotation_balance):
    code, record = run(["relation", "--balance", rotation_balance])
    check(record)
    assert code == 0
    assert record["status"] == "ok"
    assert record["result"]["verdict"] == "nonidentical"
    assert record["result"]["commutator"]["total"]["terms"] == {"dxi1^dxi2": "-2"}


def test_transform_command(shear_balance, constant_line):
    code, record = run([
        "transform", "--balance", shear_balance, "--pseudo", constant_line,
    ])
    check(record)
    assert code == 0
    identical = record["result"]["identical_relation"]
    assert identical["omega_pi"]["text"] == "(c0) dt"
    assert identical["state_function"] == "c0*t"
    assert record["result"]["original_verdict"] == "nonidentical"


def test_transform_failure(tmp_path):
    balance = write_json(tmp_path / "b3.json", {
        "coords": ["xi1", "xi2", "xi3"],
        "A": ["xi2", "0", "0"],
    })
    plane = write_json(tmp_path / "p3.json", {
        "params": ["t1", "t2"],
        "map": {"xi1": "t1", "xi2": "t2", "xi3": "0"},
    })
    code, record = run(["transform", "--balance", balance, "--pseudo", plane])
    check(record)
    assert code == 1
    assert record["status"] == "closure-failed"
    assert record["result"]["failure"]["residual"]["terms"] == {"dt1^dt2": "-1"}


def test_integrate_command(shear_balance, constant_line):
    code, record = run([
        "integrate", "--balance", shear_balance, "--pseudo", constant_line,
    ])
    check(record)
    assert code == 0
    ks = [stage["k"] for stage in record["result"]["stages"]]
    assert ks == [1, 0]
    assert record["result"]["stages"][-1]["identical_relation"]["state_function"] == "c0*t"


def test_classify_command():
    code, record = run(["classify", "-p", "3", "-k", "2", "-N", "4"])
    check(record)
    assert code == 0
    assert record["result"]["interaction"] == "electromagnetic"
    assert record["result"]["pseudostructure_dim"] == 2


# -- error paths -------------------------------------------------------------------


def test_parse_error_exit_code():
    code, record = run(["d", "--form", "(x1 +) dx2", "--dim", "2"])
    check(record)
    assert code == 2
    assert record["status"] == "error"


def test_unknown_coordinate_exit_code():
    code, record = run(["d", "--form", "(x1) dx9", "--dim", "2"])
    check(record)
    assert code == 2


def test_zero_dim_is_usage_error():
    code, record = run(["d", "--form", "(1)", "--dim", "0"])
    check(record)
    assert code == 2
    assert record["result"]["error"] == "--dim must be a positive integer"


def test_negative_dim_is_usage_error():
    code, record = run(["star", "--form", "(1)", "--dim", "-1"])
    check(record)
    assert code == 2
    assert record["result"]["error"] == "--dim must be a positive integer"


def test_usage_error_exit_code():
    code, record = run(["no-such-command"])
    assert code == 2
    assert record["status"] == "error"


def test_missing_config_exit_code(tmp_path):
    code, record = run(["relation", "--balance", str(tmp_path / "absent.json")])
    check(record)
    assert code == 2


def test_classify_out_of_range_is_usage_error():
    code, record = run(["classify", "-p", "1", "-k", "2", "-N", "4"])
    check(record)
    assert code == 2


@pytest.mark.parametrize("argv", [["--help"], ["d", "--help"]])
def test_help_record_is_schema_valid(argv, capsys):
    code, record = run(argv)
    check(record)
    assert (code, record["status"], record["command"]) == (0, "ok", "")


def test_main_help_prints_help_text_and_no_record(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == _build_parser().format_help()
    assert '"command"' not in out


@pytest.mark.parametrize("form", [
    "(" * 3000 + "x1" + ")" * 3000 + " dx2",
    "(" + "-" * 5000 + "x1) dx2",
])
def test_deep_nesting_is_a_usage_error(form):
    code, record = run(["d", "--form", form, "--dim", "2"])
    check(record)
    assert (code, record["status"]) == (2, "error")
    assert "nested deeper than 100 levels" in record["result"]["error"]


@pytest.mark.parametrize("coefficient", [
    "(" * 100 + "x1" + ")" * 100,
    # cos rather than sin: a sine tree also gets the Pythagorean rewrite,
    # which is slow on a 100-deep nest
    "cos(" * 100 + "x1" + ")" * 100,
    "^".join(["1"] * 101),
])
def test_nesting_at_the_limit_computes(coefficient):
    code, record = run(["d", "--form", f"({coefficient}) dx1", "--dim", "2"])
    check(record)
    assert code == 0


def test_inline_and_referenced_manifold_give_the_same_relation(tmp_path):
    table = {"coords": ["xi1", "xi2"],
             "gamma": [[["0", "0"], ["1", "0"]], [["xi2", "0"], ["0", "0"]]]}
    write_json(tmp_path / "m.json", table)
    balance = {"coords": ["xi1", "xi2"], "A": ["xi1*xi2", "xi2^2"]}
    inline = write_json(tmp_path / "inline.json", {**balance, "manifold": table})
    referenced = write_json(tmp_path / "referenced.json", {**balance, "manifold": "m.json"})
    code, record = run(["relation", "--balance", inline])
    other_code, other = run(["relation", "--balance", referenced])
    check(record)
    assert code == other_code == 0
    assert record["result"] == other["result"]
    assert {**record["inputs"], "balance": ""} == {**other["inputs"], "balance": ""}
    assert record["result"]["deformation_term"]["terms"]  # the connection was read


def test_inline_manifold_coords_must_match_balance(tmp_path):
    path = write_json(tmp_path / "b.json", {
        "coords": ["xi1", "xi2"],
        "A": ["xi2", "xi1"],
        "manifold": {"coords": ["y1", "y2"]},
    })
    code, record = run(["relation", "--balance", path])
    check(record)
    assert code == 2
    assert record["result"]["error"] == f"{path}: inline manifold coords differ from balance coords"


# -- determinism ---------------------------------------------------------------------


def run_main_capture(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_byte_identical_output_under_fixed_seed(capsys, rotation_balance):
    argv = ["relation", "--balance", rotation_balance, "--seed", "7"]
    code1, out1 = run_main_capture(argv, capsys)
    code2, out2 = run_main_capture(argv, capsys)
    assert (code1, out1) == (code2, out2)
    record = json.loads(out1)
    check(record)
    assert record["seed"] == 7


def test_compact_and_pretty_modes_are_both_json(capsys):
    _, compact = run_main_capture(["classify", "-p", "3", "-k", "2", "-N", "4"], capsys)
    _, pretty = run_main_capture(
        ["classify", "-p", "3", "-k", "2", "-N", "4", "--json"], capsys
    )
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


def test_verbose_writes_summary_to_stderr(capsys):
    main(["classify", "-p", "3", "-k", "2", "-N", "4", "--verbose"])
    captured = capsys.readouterr()
    assert "classify: ok" in captured.err
    json.loads(captured.out)  # stdout stays machine-readable
