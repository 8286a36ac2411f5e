"""Command-line driver: every operation as a subcommand, one structured
record per invocation on stdout.

Human-readable commentary goes to stderr under ``--verbose``; stdout is
reserved for a single JSON record so identical invocations produce
byte-identical output (probe randomness is pinned by ``--seed``).
Exit codes: 0 ok, 1 mathematical negative result (e.g. a closure that
fails, with diagnostics in the record), 2 usage or parse error; the
record's status follows from the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

from . import dsl, symexpr
from .classify import classify
from .errors import ClosureError, ConfigError, FormcalcError, HomotopyError
from .evolution import (
    BalanceSystem,
    attempt_degenerate_transformation,
    build_relation,
    nonidentity_check,
    sequential_integration,
)
from .forms import ClosureStatus, Form, closure_status, d_flat, wedge
from .hodge import EUCLIDEAN, Metric, delta, euclidean, laplacian, minkowski, star
from .manifold import Connection, Manifold, commutator, d_evolutionary, is_deforming
from .pseudostructure import (
    Pseudostructure,
    d_pi,
    degenerate_locus,
    jacobian_determinant,
    poisson_bracket,
    pullback,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

STATUS_OK = "ok"
STATUS_CLOSURE_FAILED = "closure-failed"
STATUS_ERROR = "error"

#: Record status of each exit code.
_STATUS_OF_EXIT = {EXIT_OK: STATUS_OK, EXIT_NEGATIVE: STATUS_CLOSURE_FAILED, EXIT_USAGE: STATUS_ERROR}

#: Shape of the stdout record; tests validate every emitted record against it.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "status", "inputs", "result", "seed"],
    "properties": {
        "command": {"type": "string"},
        "status": {"enum": [STATUS_OK, STATUS_CLOSURE_FAILED, STATUS_ERROR]},
        "inputs": {"type": "object"},
        "result": {"type": "object"},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}


# -- serialization helpers ---------------------------------------------------


def _optional(convert: Callable, value):
    return None if value is None else convert(value)


def _form_record(f: Form) -> dict:
    terms = {}
    for idx in sorted(f.terms):
        key = "^".join("d" + f.coords[i] for i in idx) if idx else "1"
        terms[key] = symexpr.expr_text(f.terms[idx])
    return {
        "degree": f.degree,
        "coords": list(f.coords),
        "terms": terms,
        "text": str(f),
    }


def _commutator_record(report) -> dict:
    return {
        "total": _form_record(report.total),
        "coefficient_term": _form_record(report.coefficient_term),
        "metric_term": _form_record(report.metric_term),
    }


def _identical_record(identical) -> dict:
    return {
        "psi": identical.psi,
        "pseudostructure": {
            "params": list(identical.pseudostructure.params),
            "map": {
                name: symexpr.expr_text(expr)
                for name, expr in identical.pseudostructure.component_map
            },
        },
        "omega_pi": _form_record(identical.omega_pi),
        "antiderivative": _optional(_form_record, identical.antiderivative),
        "state_function": _optional(symexpr.expr_text, identical.state_function),
    }


def _closure_failure_record(err: ClosureError) -> dict:
    return {
        "message": str(err),
        "residual": _optional(_form_record, err.residual),
        "verdicts": {str(k): v for k, v in (err.verdicts or {}).items()},
    }


# -- config loading -----------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _metric_from_config(obj, seed: int) -> Metric:
    if isinstance(obj, dict):
        g = obj.get("g")
        signature = obj.get("signature", EUCLIDEAN)
        if g is None:
            raise ConfigError('metric object needs a "g" table')
    else:
        g = obj
        signature = EUCLIDEAN
    rows = [[dsl.parse_expr(str(v)) for v in row] for row in g]
    return Metric.from_nested(rows, signature=signature, seed=seed)


def _manifold_from_config(data: dict, path: str, seed: int) -> Manifold:
    """Manifold from a config table, a file's or an inline one; ``path``
    names the file in error messages."""
    coords = data.get("coords")
    if not coords:
        dim = data.get("dim")
        if not dim:
            raise ConfigError(f'{path}: need "coords" or "dim"')
        coords = list(dsl.default_coords(int(dim)))
    if "dim" in data and int(data["dim"]) != len(coords):
        raise ConfigError(f'{path}: "dim" does not match the number of coordinates')
    connection = None
    if data.get("gamma") is not None:
        nested = [
            [[dsl.parse_expr(str(v)) for v in row] for row in plane]
            for plane in data["gamma"]
        ]
        connection = Connection.from_nested(nested)
    metric = None
    if data.get("metric") is not None:
        metric = _metric_from_config(data["metric"], seed)
    return Manifold(tuple(coords), connection=connection, metric=metric)


def load_manifold(path: str, seed: int) -> Manifold:
    return _manifold_from_config(_load_json(path), path, seed)


def load_pseudostructure(path: str, seed: int) -> Pseudostructure:
    data = _load_json(path)
    params = data.get("params")
    mapping = data.get("map")
    if not params or not mapping:
        raise ConfigError(f'{path}: need "params" and "map"')
    parsed = [(name, dsl.parse_expr(str(expr))) for name, expr in mapping.items()]
    return Pseudostructure.build(
        [str(p) for p in params],
        parsed,
        constants=[str(c) for c in data.get("constants", [])],
        seed=seed,
    )


def load_balance(path: str, seed: int) -> BalanceSystem:
    data = _load_json(path)
    coords = data.get("coords")
    action = data.get("A")
    if not coords or action is None:
        raise ConfigError(f'{path}: need "coords" and "A"')
    manifold = None
    ref = data.get("manifold")
    if isinstance(ref, str):
        manifold = load_manifold(str(Path(path).parent / ref), seed)
    elif isinstance(ref, dict):
        if list(ref.setdefault("coords", list(coords))) != list(coords):
            raise ConfigError(f"{path}: inline manifold coords differ from balance coords")
        manifold = _manifold_from_config(ref, path, seed)
    return BalanceSystem.build(
        [str(c) for c in coords],
        [dsl.parse_expr(str(a)) for a in action],
        psi=str(data.get("psi", "psi")),
        manifold=manifold,
    )


def _space(args) -> Manifold:
    """The space of ``--form``: ``--manifold``, else ``--coords``, else ``--dim``."""
    if args.manifold:
        return load_manifold(args.manifold, args.seed)
    if args.coords:
        return Manifold(tuple(name.strip() for name in args.coords.split(",") if name.strip()))
    if args.dim is None:
        raise ConfigError("need --dim, --coords, or --manifold to fix the coordinate space")
    if args.dim <= 0:
        raise ConfigError("--dim must be a positive integer")
    return Manifold(dsl.default_coords(args.dim))


def _metric_space(args) -> Manifold:
    """``_space`` with a metric: the manifold's own, else the one ``--metric`` names."""
    m = _space(args)
    if m.metric is not None:
        return m
    if args.manifold and args.metric is None:
        raise ConfigError(f"{args.manifold} has no metric; pass --metric")
    if args.metric in (None, "euclid", "euclidean"):
        return Manifold(m.coords, metric=euclidean(m.dim))
    if args.metric == "minkowski":
        return Manifold(m.coords, metric=minkowski(m.dim))
    return Manifold(m.coords, metric=_metric_from_config(_load_json(args.metric), args.seed))


# -- subcommands ----------------------------------------------------------------
# A handler maps the parsed arguments to (inputs, result, exit code).  It
# calls library functions through this module's globals, so rebinding one
# of them reaches every handler.


def _wedge(args):
    m = _space(args)
    if len(args.form) != 2:
        raise ConfigError("wedge needs exactly two --form operands")
    a = dsl.parse_form(args.form[0], m.coords)
    b = dsl.parse_form(args.form[1], m.coords)
    inputs = {"left": _form_record(a), "right": _form_record(b)}
    return inputs, {"form": _form_record(wedge(a, b))}, EXIT_OK


def _d(args):
    a = dsl.parse_form(args.form[0], _space(args).coords)
    return {"form": _form_record(a)}, {"form": _form_record(d_flat(a))}, EXIT_OK


def _d_evo(args):
    if not args.manifold:
        raise ConfigError("d-evo needs --manifold (its connection drives the extra term)")
    m = _space(args)
    a = dsl.parse_form(args.form[0], m.coords)
    result = {"form": _form_record(d_evolutionary(m, a)),
              "deforming": is_deforming(m, seed=args.seed)}
    return {"form": _form_record(a), "manifold": args.manifold}, result, EXIT_OK


def _commutator(args):
    m = _space(args)
    a = dsl.parse_form(args.form[0], m.coords)
    result = {"commutator": _commutator_record(commutator(m, a))}
    return {"form": _form_record(a), "manifold": args.manifold}, result, EXIT_OK


def _closure(args):
    a = dsl.parse_form(args.form[0], _space(args).coords)
    differential = d_flat(a)
    status = closure_status(differential, seed=args.seed)
    result = {"closed": status.value, "differential": _form_record(differential)}
    code = EXIT_OK if status is ClosureStatus.CLOSED else EXIT_NEGATIVE
    return {"form": _form_record(a)}, result, code


def _metric_command(operator: Callable, *echoed: str) -> Callable:
    """Handler of ``operator(args, m, a)``, a metric operator on one
    ``--form``; ``echoed`` names further arguments to copy into the inputs."""
    def handler(args):
        m = _metric_space(args)
        a = dsl.parse_form(args.form[0], m.coords)
        inputs = {"form": _form_record(a), "metric": args.metric or args.manifold or "euclid"}
        inputs.update((name, getattr(args, name)) for name in echoed)
        return inputs, {"form": _form_record(operator(args, m, a))}, EXIT_OK
    return handler


def _pullback(args):
    pi = load_pseudostructure(args.pseudo, args.seed)
    a = dsl.parse_form(args.form[0], pi.ambient_coords)
    inputs = {"form": _form_record(a), "pseudo": args.pseudo}
    return inputs, {"form": _form_record(pullback(pi, a))}, EXIT_OK


def _dpi(args):
    pi = load_pseudostructure(args.pseudo, args.seed)
    a = dsl.parse_form(args.form[0], pi.ambient_coords)
    inputs = {"form": _form_record(a), "pseudo": args.pseudo, "dual": args.dual}
    differential = d_pi(pi, a)
    status = closure_status(differential, seed=args.seed)
    result = {"form": _form_record(differential), "closed": status.value}
    if not args.dual:
        return inputs, result, EXIT_OK if status is ClosureStatus.CLOSED else EXIT_NEGATIVE
    if not args.manifold:
        raise ConfigError("--dual needs --manifold with a metric")
    m = load_manifold(args.manifold, args.seed)
    dual = closure_status(d_pi(pi, star(m, a)), seed=args.seed)
    satisfied = status is ClosureStatus.CLOSED and dual is ClosureStatus.CLOSED
    result["dual_closed"] = dual.value
    result["defines_pseudostructure"] = satisfied
    return inputs, result, EXIT_OK if satisfied else EXIT_NEGATIVE


def _jacobian(args):
    variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    exprs = [dsl.parse_expr(text) for text in args.expr]
    inputs = {"map": [symexpr.expr_text(e) for e in exprs], "vars": variables}
    result = {"determinant": symexpr.expr_text(jacobian_determinant(exprs, variables))}
    return inputs, result, EXIT_OK


def _poisson(args):
    pairs = []
    for chunk in args.pairs.split(","):
        q, _, p = chunk.partition(":")
        if not p:
            raise ConfigError(f"bad pair {chunk!r}; expected 'q:p'")
        pairs.append((q.strip(), p.strip()))
    f = dsl.parse_expr(args.f)
    g = dsl.parse_expr(args.g)
    inputs = {"f": symexpr.expr_text(f), "g": symexpr.expr_text(g),
              "pairs": [list(pair) for pair in pairs]}
    return inputs, {"bracket": symexpr.expr_text(poisson_bracket(f, g, pairs))}, EXIT_OK


def _locus(args):
    e = dsl.parse_expr(args.expr)
    report = degenerate_locus(e, seed=args.seed)
    result = {
        "expression": symexpr.expr_text(report.expression),
        "factors": [
            {"factor": symexpr.expr_text(f), "multiplicity": mult}
            for f, mult in report.factors
        ],
        "constant": symexpr.expr_text(report.constant),
        "exact": report.exact,
        "sample_zeros": [dict(sorted(z.items())) for z in report.sample_zeros],
        "note": report.note,
    }
    return {"expr": symexpr.expr_text(e)}, result, EXIT_OK


def _relation(args):
    balance = load_balance(args.balance, args.seed)
    relation = build_relation(balance)
    inputs = {"balance": args.balance, "A": [symexpr.expr_text(a) for a in balance.action],
              "coords": list(balance.coords), "psi": balance.psi}
    result = {
        "omega": _form_record(relation.omega),
        "verdict": nonidentity_check(relation, seed=args.seed).value,
        "commutator": _commutator_record(relation.commutator),
        "quantum_term": _form_record(relation.commutator.coefficient_term),
        "deformation_term": _form_record(relation.commutator.metric_term),
    }
    return inputs, result, EXIT_OK


def _transform(args):
    relation = build_relation(load_balance(args.balance, args.seed))
    pi = load_pseudostructure(args.pseudo, args.seed)
    inputs = {"balance": args.balance, "pseudo": args.pseudo}
    try:
        identical = attempt_degenerate_transformation(relation, pi, seed=args.seed)
    except ClosureError as err:
        return inputs, {"failure": _closure_failure_record(err)}, EXIT_NEGATIVE
    result = {
        "identical_relation": _identical_record(identical),
        "original_verdict": nonidentity_check(relation, seed=args.seed).value,
    }
    return inputs, result, EXIT_OK


def _integrate(args):
    relation = build_relation(load_balance(args.balance, args.seed))
    pis = [load_pseudostructure(path, args.seed) for path in args.pseudo]
    chain = sequential_integration(relation, pis, seed=args.seed)
    result = {
        "stages": [
            {"k": k, "identical_relation": _identical_record(identical)}
            for k, identical in chain.stages
        ],
        "completed": chain.completed,
    }
    if chain.failure is not None:
        result["failure"] = _closure_failure_record(chain.failure)
    inputs = {"balance": args.balance, "pseudo": list(args.pseudo)}
    return inputs, result, EXIT_OK if chain.completed else EXIT_NEGATIVE


def _classify(args):
    inputs = {"p": args.p, "k": args.k, "N": args.N, "n": args.n}
    return inputs, asdict(classify(args.p, args.k, args.N, n=args.n)), EXIT_OK


def _form_args(operands: str = "") -> dict:
    return {
        "--form": dict(action="append", required=True,
                       help="form in the DSL, e.g. '(x2) dx1 + (x1) dx2'" + operands),
        "--dim": dict(type=int, help="space dimension (coords default to x1..xn)"),
        "--coords": dict(help="comma-separated coordinate names"),
        "--manifold": dict(help="manifold config file (JSON)"),
    }


_METRIC_ARGS = {**_form_args(), "--metric": dict(help="'euclid', 'minkowski', or a metric config file")}
_OPERAND = dict(action="append", required=True)
_REQUIRED = dict(required=True)

#: Subcommand name -> (help line, {flag: argparse options}, handler).
COMMANDS: dict[str, tuple[str, dict, Callable]] = {
    "wedge": ("exterior product of two forms", _form_args(" (repeat for each operand)"), _wedge),
    "d": ("flat exterior derivative", _form_args(), _d),
    "d-evo": ("differential on a manifold with connection", _form_args(), _d_evo),
    "commutator": ("two-term commutator of a degree-1 form", _form_args(), _commutator),
    "closure": ("closure test of a form", _form_args(), _closure),
    "star": ("metric dual", _METRIC_ARGS, _metric_command(lambda args, m, a: star(m, a))),
    "delta": ("degree-lowering operator", _METRIC_ARGS,
              _metric_command(lambda args, m, a: delta(m, a))),
    "laplacian": ("second-order operator",
                  {**_METRIC_ARGS, "--variant": dict(choices=["standard", "paper"], default="standard")},
                  _metric_command(lambda args, m, a: laplacian(m, a, variant=args.variant), "variant")),
    "pullback": ("restrict a form to a pseudostructure",
                 {"--form": _OPERAND, "--pseudo": dict(required=True, help="pseudostructure config file")},
                 _pullback),
    "dpi": ("interior differential on a pseudostructure", {
        "--form": _OPERAND,
        "--pseudo": _REQUIRED,
        "--dual": dict(action="store_true",
                       help="also test the metric dual (requires --manifold with metric)"),
        "--manifold": {},
    }, _dpi),
    "jacobian": ("Jacobian determinant of a square map", {
        "--expr": dict(action="append", required=True, help="one component per flag"),
        "--vars": dict(required=True, help="comma-separated input variables"),
    }, _jacobian),
    "poisson": ("canonical Poisson bracket", {
        "--f": _REQUIRED,
        "--g": _REQUIRED,
        "--pairs": dict(required=True, help="pairs like 'q:p' or 'q1:p1,q2:p2'"),
    }, _poisson),
    "locus": ("vanishing locus of a functional expression", {"--expr": _REQUIRED}, _locus),
    "relation": ("evolutionary relation from a balance system",
                 {"--balance": dict(required=True, help="balance config file")}, _relation),
    "transform": ("degenerate transformation onto a pseudostructure",
                  {"--balance": _REQUIRED, "--pseudo": _REQUIRED}, _transform),
    "integrate": ("sequential integration over a chain of carriers", {
        "--balance": _REQUIRED,
        "--pseudo": dict(action="append", required=True,
                         help="one pseudostructure config per stage, in order"),
    }, _integrate),
    "classify": ("(p, k, N) structure classification", {
        "-p": dict(type=int, required=True, help="degree of the generating form"),
        "-k": dict(type=int, required=True, help="degree of the realized closed form"),
        "-N": dict(type=int, required=True, help="dimension of the space formed"),
        "--n": dict(type=int, default=None, help="original-space dimension (metadata)"),
    }, _classify),
}


# -- entry points -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: ``main`` reads --json and --verbose by their full names
    parser = argparse.ArgumentParser(
        prog="formcalc",
        description="exterior and evolutionary skew-symmetric form calculator",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=symexpr.DEFAULT_PROBE_SEED,
                        help="seed for probe-point randomness (pins output bytes)")
    parser.add_argument("--json", action="store_true",
                        help="pretty-print the stdout record instead of compact JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="human-readable summary on stderr")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-level absence from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], allow_abbrev=False, **kw)
    ))
    for name, (help_, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def _record(command: str, inputs: dict, result: dict, code: int, seed: int) -> tuple[int, dict]:
    status = _STATUS_OF_EXIT[code]
    return code, {"command": command, "status": status, "inputs": inputs, "result": result, "seed": seed}


def run(argv: Sequence[str] | None = None) -> tuple[int, dict]:
    """Parse arguments and execute; returns (exit code, report record)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (code 0) or a usage message
        code = EXIT_USAGE if exc.code else EXIT_OK
        return _record("", {}, {"error": "usage error" if code else "help"}, code,
                       symexpr.DEFAULT_PROBE_SEED)
    try:
        inputs, result, code = args.handler(args)
    except FormcalcError as err:  # closure and homotopy failures are negative results
        inputs = {}
        code = EXIT_NEGATIVE if isinstance(err, (ClosureError, HomotopyError)) else EXIT_USAGE
        result = ({"failure": _closure_failure_record(err)} if isinstance(err, ClosureError)
                  else {"error": str(err)})
    return _record(args.command, inputs, result, code, args.seed)


def main(argv: Sequence[str] | None = None) -> int:
    code, record = run(argv)
    if code == EXIT_OK and not record["command"]:
        return code  # --help: argparse already wrote the help text to stdout
    raw = list(argv) if argv is not None else sys.argv[1:]
    if "--json" in raw:
        text = json.dumps(record, sort_keys=True, indent=2)
    else:
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    if "--verbose" in raw:
        summary = f"{record['command'] or 'formcalc'}: {record['status']}"
        sys.stderr.write(summary + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
