"""Command-line driver: every operation as a subcommand, one structured
record per invocation on stdout.

Human-readable commentary goes to stderr under ``--verbose``; stdout is
reserved for a single JSON record so identical invocations produce
byte-identical output (probe randomness is pinned by ``--seed``).
Exit codes: 0 ok, 1 mathematical negative result (e.g. a closure that
fails, with diagnostics in the record), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import dsl, symexpr
from .classify import classify as run_classify
from .errors import (
    ClosureError,
    ConfigError,
    FormcalcError,
    HomotopyError,
    ParseError,
)
from .evolution import (
    BalanceSystem,
    attempt_degenerate_transformation,
    build_relation,
    commutator_decomposition,
    nonidentity_check,
    sequential_integration,
)
from .forms import ClosureStatus, Form, add, d_flat, is_closed_flat, scale, wedge
from .hodge import EUCLIDEAN, Metric, delta, euclidean, laplacian, minkowski, star
from .manifold import Connection, Manifold, commutator, d_evolutionary, is_deforming, torsion_commutator
from .pseudostructure import (
    Pseudostructure,
    d_pi,
    defines_pseudostructure,
    degenerate_locus,
    is_closed_on,
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
        "antiderivative": (
            _form_record(identical.antiderivative)
            if identical.antiderivative is not None
            else None
        ),
        "state_function": (
            symexpr.expr_text(identical.state_function)
            if identical.state_function is not None
            else None
        ),
    }


def _closure_failure_record(err: ClosureError) -> dict:
    return {
        "message": str(err),
        "residual": _form_record(err.residual) if err.residual is not None else None,
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


def load_manifold(path: str, seed: int) -> Manifold:
    data = _load_json(path)
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
        coords_ref = ref.setdefault("coords", list(coords))
        if list(coords_ref) != list(coords):
            raise ConfigError(f"{path}: inline manifold coords differ from balance coords")
        connection = None
        if ref.get("gamma") is not None:
            nested = [
                [[dsl.parse_expr(str(v)) for v in row] for row in plane]
                for plane in ref["gamma"]
            ]
            connection = Connection.from_nested(nested)
        metric = _metric_from_config(ref["metric"], seed) if ref.get("metric") else None
        manifold = Manifold(tuple(coords), connection=connection, metric=metric)
    return BalanceSystem.build(
        [str(c) for c in coords],
        [dsl.parse_expr(str(a)) for a in action],
        psi=str(data.get("psi", "psi")),
        manifold=manifold,
    )


# -- argument plumbing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcalc",
        description="exterior and evolutionary skew-symmetric form calculator",
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
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)
    ))

    def add_form_flags(p, forms=1):
        p.add_argument("--form", action="append", required=True,
                       help="form in the DSL, e.g. '(x2) dx1 + (x1) dx2'"
                            + (" (repeat for each operand)" if forms > 1 else ""))
        p.add_argument("--dim", type=int, help="space dimension (coords default to x1..xn)")
        p.add_argument("--coords", help="comma-separated coordinate names")
        p.add_argument("--manifold", help="manifold config file (JSON)")

    p = sub.add_parser("wedge", help="exterior product of two forms")
    add_form_flags(p, forms=2)

    p = sub.add_parser("d", help="flat exterior derivative")
    add_form_flags(p)

    p = sub.add_parser("d-evo", help="differential on a manifold with connection")
    add_form_flags(p)

    p = sub.add_parser("commutator", help="two-term commutator of a degree-1 form")
    add_form_flags(p)

    p = sub.add_parser("closure", help="closure test of a form")
    add_form_flags(p)

    for name, help_ in (("star", "metric dual"), ("delta", "degree-lowering operator"),
                        ("laplacian", "second-order operator")):
        p = sub.add_parser(name, help=help_)
        add_form_flags(p)
        p.add_argument("--metric", help="'euclid', 'minkowski', or a metric config file")
        if name == "laplacian":
            p.add_argument("--variant", choices=["standard", "paper"], default="standard")

    p = sub.add_parser("pullback", help="restrict a form to a pseudostructure")
    p.add_argument("--form", action="append", required=True)
    p.add_argument("--pseudo", required=True, help="pseudostructure config file")

    p = sub.add_parser("dpi", help="interior differential on a pseudostructure")
    p.add_argument("--form", action="append", required=True)
    p.add_argument("--pseudo", required=True)
    p.add_argument("--dual", action="store_true",
                   help="also test the metric dual (requires --manifold with metric)")
    p.add_argument("--manifold")

    p = sub.add_parser("jacobian", help="Jacobian determinant of a square map")
    p.add_argument("--expr", action="append", required=True, help="one component per flag")
    p.add_argument("--vars", required=True, help="comma-separated input variables")

    p = sub.add_parser("poisson", help="canonical Poisson bracket")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--pairs", required=True, help="pairs like 'q:p' or 'q1:p1,q2:p2'")

    p = sub.add_parser("locus", help="vanishing locus of a functional expression")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("relation", help="evolutionary relation from a balance system")
    p.add_argument("--balance", required=True, help="balance config file")

    p = sub.add_parser("transform", help="degenerate transformation onto a pseudostructure")
    p.add_argument("--balance", required=True)
    p.add_argument("--pseudo", required=True)

    p = sub.add_parser("integrate", help="sequential integration over a chain of carriers")
    p.add_argument("--balance", required=True)
    p.add_argument("--pseudo", action="append", required=True,
                   help="one pseudostructure config per stage, in order")

    p = sub.add_parser("classify", help="(p, k, N) structure classification")
    p.add_argument("-p", type=int, required=True, help="degree of the generating form")
    p.add_argument("-k", type=int, required=True, help="degree of the realized closed form")
    p.add_argument("-N", type=int, required=True, help="dimension of the space formed")
    p.add_argument("--n", type=int, default=None, help="original-space dimension (metadata)")

    return parser


def _resolve_coords(args, default_from_form: str | None = None) -> tuple[str, ...]:
    if getattr(args, "manifold", None):
        return load_manifold(args.manifold, args.seed).coords
    if getattr(args, "coords", None):
        return tuple(name.strip() for name in args.coords.split(",") if name.strip())
    dim = getattr(args, "dim", None)
    if dim is not None:
        if dim <= 0:
            raise ConfigError("--dim must be a positive integer")
        return dsl.default_coords(dim)
    raise ConfigError("need --dim, --coords, or --manifold to fix the coordinate space")


def _metric_manifold(args, coords: tuple[str, ...]) -> Manifold:
    choice = getattr(args, "metric", None)
    if getattr(args, "manifold", None):
        m = load_manifold(args.manifold, args.seed)
        if m.metric is not None:
            return m
        if choice is None:
            raise ConfigError(f"{args.manifold} has no metric; pass --metric")
        coords = m.coords
    if choice in (None, "euclid", "euclidean"):
        return Manifold(coords, metric=euclidean(len(coords)))
    if choice == "minkowski":
        return Manifold(coords, metric=minkowski(len(coords)))
    return Manifold(coords, metric=_metric_from_config(_load_json(choice), args.seed))


# -- subcommand implementations ------------------------------------------------


def _closure_status_result(status: ClosureStatus, differential: Form) -> tuple[dict, int]:
    result = {"closed": status.value, "differential": _form_record(differential)}
    code = EXIT_OK if status is ClosureStatus.CLOSED else EXIT_NEGATIVE
    return result, code


def _run_command(args) -> tuple[int, dict]:
    seed = args.seed
    inputs: dict = {}
    result: dict = {}
    status = STATUS_OK
    code = EXIT_OK

    if args.command == "wedge":
        coords = _resolve_coords(args)
        if len(args.form) != 2:
            raise ConfigError("wedge needs exactly two --form operands")
        a = dsl.parse_form(args.form[0], coords)
        b = dsl.parse_form(args.form[1], coords)
        inputs = {"left": _form_record(a), "right": _form_record(b)}
        result = {"form": _form_record(wedge(a, b))}

    elif args.command == "d":
        coords = _resolve_coords(args)
        a = dsl.parse_form(args.form[0], coords)
        inputs = {"form": _form_record(a)}
        result = {"form": _form_record(d_flat(a))}

    elif args.command == "d-evo":
        if not args.manifold:
            raise ConfigError("d-evo needs --manifold (its connection drives the extra term)")
        m = load_manifold(args.manifold, seed)
        a = dsl.parse_form(args.form[0], m.coords)
        inputs = {"form": _form_record(a), "manifold": args.manifold}
        result = {
            "form": _form_record(d_evolutionary(m, a)),
            "deforming": is_deforming(m, seed=seed),
        }

    elif args.command == "commutator":
        coords = _resolve_coords(args)
        m = load_manifold(args.manifold, seed) if args.manifold else Manifold(coords)
        a = dsl.parse_form(args.form[0], m.coords)
        inputs = {"form": _form_record(a), "manifold": args.manifold}
        result = {"commutator": _commutator_record(commutator(m, a))}

    elif args.command == "closure":
        coords = _resolve_coords(args)
        a = dsl.parse_form(args.form[0], coords)
        inputs = {"form": _form_record(a)}
        result, code = _closure_status_result(is_closed_flat(a, seed=seed), d_flat(a))
        if code != EXIT_OK:
            status = STATUS_CLOSURE_FAILED

    elif args.command in ("star", "delta", "laplacian"):
        coords = _resolve_coords(args)
        m = _metric_manifold(args, coords)
        a = dsl.parse_form(args.form[0], m.coords)
        inputs = {"form": _form_record(a),
                  "metric": args.metric or args.manifold or "euclid"}
        if args.command == "star":
            result = {"form": _form_record(star(m, a))}
        elif args.command == "delta":
            result = {"form": _form_record(delta(m, a))}
        else:
            inputs["variant"] = args.variant
            result = {"form": _form_record(laplacian(m, a, variant=args.variant))}

    elif args.command == "pullback":
        pi = load_pseudostructure(args.pseudo, seed)
        a = dsl.parse_form(args.form[0], pi.ambient_coords)
        inputs = {"form": _form_record(a), "pseudo": args.pseudo}
        result = {"form": _form_record(pullback(pi, a))}

    elif args.command == "dpi":
        pi = load_pseudostructure(args.pseudo, seed)
        a = dsl.parse_form(args.form[0], pi.ambient_coords)
        inputs = {"form": _form_record(a), "pseudo": args.pseudo, "dual": args.dual}
        differential = d_pi(pi, a)
        primal = is_closed_on(pi, a, seed=seed)
        result = {"form": _form_record(differential), "closed": primal.value}
        code = EXIT_OK if primal is ClosureStatus.CLOSED else EXIT_NEGATIVE
        if args.dual:
            if not args.manifold:
                raise ConfigError("--dual needs --manifold with a metric")
            m = load_manifold(args.manifold, seed)
            check = defines_pseudostructure(m, pi, a, seed=seed)
            result["dual_closed"] = check.dual.value
            result["defines_pseudostructure"] = check.satisfied
            code = EXIT_OK if check.satisfied else EXIT_NEGATIVE
        if code != EXIT_OK:
            status = STATUS_CLOSURE_FAILED

    elif args.command == "jacobian":
        variables = [v.strip() for v in args.vars.split(",") if v.strip()]
        exprs = [dsl.parse_expr(text) for text in args.expr]
        inputs = {"map": [symexpr.expr_text(e) for e in exprs], "vars": variables}
        result = {"determinant": symexpr.expr_text(jacobian_determinant(exprs, variables))}

    elif args.command == "poisson":
        pairs = []
        for chunk in args.pairs.split(","):
            q, _, p_ = chunk.partition(":")
            if not p_:
                raise ConfigError(f"bad pair {chunk!r}; expected 'q:p'")
            pairs.append((q.strip(), p_.strip()))
        f = dsl.parse_expr(args.f)
        g = dsl.parse_expr(args.g)
        inputs = {"f": symexpr.expr_text(f), "g": symexpr.expr_text(g),
                  "pairs": [list(p_) for p_ in pairs]}
        result = {"bracket": symexpr.expr_text(poisson_bracket(f, g, pairs))}

    elif args.command == "locus":
        e = dsl.parse_expr(args.expr)
        inputs = {"expr": symexpr.expr_text(e)}
        report = degenerate_locus(e, seed=seed)
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

    elif args.command == "relation":
        balance = load_balance(args.balance, seed)
        relation = build_relation(balance)
        quantum, deformation = commutator_decomposition(relation)
        inputs = {"balance": args.balance,
                  "A": [symexpr.expr_text(a) for a in balance.action],
                  "coords": list(balance.coords), "psi": balance.psi}
        result = {
            "omega": _form_record(relation.omega),
            "verdict": nonidentity_check(relation, seed=seed).value,
            "commutator": _commutator_record(relation.commutator),
            "quantum_term": _form_record(quantum),
            "deformation_term": _form_record(deformation),
        }

    elif args.command == "transform":
        balance = load_balance(args.balance, seed)
        relation = build_relation(balance)
        pi = load_pseudostructure(args.pseudo, seed)
        inputs = {"balance": args.balance, "pseudo": args.pseudo}
        try:
            identical = attempt_degenerate_transformation(relation, pi, seed=seed)
        except ClosureError as err:
            status = STATUS_CLOSURE_FAILED
            code = EXIT_NEGATIVE
            result = {"failure": _closure_failure_record(err)}
        else:
            result = {
                "identical_relation": _identical_record(identical),
                "original_verdict": nonidentity_check(relation, seed=seed).value,
            }

    elif args.command == "integrate":
        balance = load_balance(args.balance, seed)
        relation = build_relation(balance)
        pis = [load_pseudostructure(path, seed) for path in args.pseudo]
        inputs = {"balance": args.balance, "pseudo": list(args.pseudo)}
        chain = sequential_integration(relation, pis, seed=seed)
        result = {
            "stages": [
                {"k": k, "identical_relation": _identical_record(identical)}
                for k, identical in chain.stages
            ],
            "completed": chain.completed,
        }
        if chain.failure is not None:
            result["failure"] = _closure_failure_record(chain.failure)
            status = STATUS_CLOSURE_FAILED
            code = EXIT_NEGATIVE

    elif args.command == "classify":
        sc = run_classify(args.p, args.k, args.N, n=args.n)
        inputs = {"p": args.p, "k": args.k, "N": args.N, "n": args.n}
        result = {
            "p": sc.p, "k": sc.k, "N": sc.N,
            "pseudostructure_dim": sc.pseudostructure_dim,
            "interaction": sc.interaction,
            "n": sc.n,
        }

    else:  # pragma: no cover - argparse guards the choices
        raise ConfigError(f"unknown command {args.command!r}")

    record = {
        "command": args.command,
        "status": status,
        "inputs": inputs,
        "result": result,
        "seed": seed,
    }
    return code, record


def run(argv: Sequence[str] | None = None) -> tuple[int, dict]:
    """Parse arguments and execute; returns (exit code, report record)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
        record = {
            "command": "",
            "status": STATUS_ERROR if code else STATUS_OK,
            "inputs": {},
            "result": {"error": "usage error" if code else "help"},
            "seed": symexpr.DEFAULT_PROBE_SEED,
        }
        if code == 0:
            # argparse already printed help to stdout; keep it clean
            record["_suppress_stdout"] = True
        return (EXIT_USAGE if code else EXIT_OK), record
    try:
        return _run_command(args)
    except (ParseError, ConfigError) as err:
        return EXIT_USAGE, {
            "command": args.command,
            "status": STATUS_ERROR,
            "inputs": {},
            "result": {"error": str(err)},
            "seed": args.seed,
        }
    except (ClosureError, HomotopyError) as err:
        record = {
            "command": args.command,
            "status": STATUS_CLOSURE_FAILED,
            "inputs": {},
            "result": (
                {"failure": _closure_failure_record(err)}
                if isinstance(err, ClosureError)
                else {"error": str(err)}
            ),
            "seed": args.seed,
        }
        return EXIT_NEGATIVE, record
    except FormcalcError as err:
        return EXIT_USAGE, {
            "command": args.command,
            "status": STATUS_ERROR,
            "inputs": {},
            "result": {"error": str(err)},
            "seed": args.seed,
        }


def main(argv: Sequence[str] | None = None) -> int:
    code, record = run(argv)
    if record.get("_suppress_stdout"):  # pragma: no cover - reserved
        return code
    pretty = False
    raw = list(argv) if argv is not None else sys.argv[1:]
    pretty = "--json" in raw
    if pretty:
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
