"""Fixed corpus of the ``cli`` workload: every one of the 17 subcommands,
exit codes 0, 1 and 2, and the config files the invocations read.

Config files are written to a temporary directory during set-up and each
invocation runs with that directory as its working directory, so the
relative paths echoed in the JSON record are the same in every run.
The expected exit code of each entry is written here by hand; it is the
oracle for the entry, next to the stored sha256 of its stdout bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_EYE3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _gamma(n, entries):
    table = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for (sigma, beta, alpha), value in entries.items():
        table[sigma][beta][alpha] = value
    return table


CONFIGS = {
    "m3.json": {"coords": ["x1", "x2", "x3"],
                "gamma": _gamma(3, {(0, 1, 0): "x3", (2, 0, 1): "2", (1, 2, 0): "x1*x2"}),
                "metric": _EYE3},
    "m2.json": {"dim": 2, "gamma": _gamma(2, {(1, 0, 1): "c", (0, 1, 1): "x1"}),
                "metric": {"g": [["1", "0"], ["0", "-1"]], "signature": "lorentzian"}},
    "m2diag.json": {"dim": 2, "metric": [["4", "0"], ["0", "1"]]},
    "line.json": {"params": ["t"], "map": {"xi1": "t", "xi2": "c0"}, "constants": ["c0"]},
    "plane.json": {"params": ["t1", "t2"], "map": {"xi1": "t1 + t2^2", "xi2": "t2 - t1*t2"}},
    "surf.json": {"params": ["u", "v"], "map": {"x1": "u", "x2": "v", "x3": "u^2 + v^2"}},
    "curve.json": {"params": ["t"], "map": {"x1": "t", "x2": "t^2", "x3": "t^3"}},
    "flat_curve.json": {"params": ["t"], "map": {"x1": "1", "x2": "2", "x3": "3"}},
    "shear.json": {"coords": ["xi1", "xi2"], "A": ["xi2", "0"]},
    "rot.json": {"coords": ["xi1", "xi2"], "A": ["xi2", "-xi1"], "psi": "psi"},
    "trig.json": {"coords": ["xi1", "xi2"], "A": ["sin(xi2)", "cos(xi1)*xi2"]},
    "exact3.json": {"coords": ["x1", "x2", "x3"], "A": ["2*x1*x2", "x1^2 + x3", "x2"]},
    "torsion3.json": {"coords": ["x1", "x2", "x3"], "A": ["x2", "x3", "x1"], "manifold": "m3.json"},
    "inline.json": {"coords": ["xi1", "xi2"], "A": ["xi1*xi2", "xi2^2"],
                    "manifold": {"gamma": _gamma(2, {(0, 1, 0): "1", (1, 0, 0): "xi2"})}},
    "bad.json": "{\"coords\": [\"x1\",",
}

#: (entry id, argv after ``formcalc``, expected exit code), grouped by subcommand.
CORPUS = {
    "wedge": [
        ("wedge-1forms", ["wedge", "--form", "(x2) dx1", "--form", "(x1) dx2", "--dim", "2"], 0),
        ("wedge-annihilate", ["wedge", "--form", "dx1", "--form", "(x2) dx1", "--dim", "2"], 0),
        ("wedge-3d", ["wedge", "--form", "(x1*x2) dx1 + (x3) dx2", "--form", "(x1^2) dx3", "--dim", "3"], 0),
        ("wedge-one-operand", ["wedge", "--form", "(x1) dx1", "--dim", "2"], 2),
    ],
    "d": [
        ("d-exact", ["d", "--form", "(x2) dx1 + (x1) dx2", "--dim", "2"], 0),
        ("d-2form", ["d", "--form", "(x1^2*x3 - x2) dx1^dx2", "--dim", "3"], 0),
        ("d-trig", ["d", "--form", "(sin(x1*x2)) dx1", "--coords", "x1,x2"], 0),
        ("d-parse-error", ["d", "--form", "(x1 +) dx2", "--dim", "2"], 2),
        ("d-no-space", ["d", "--form", "(x1) dx1"], 2),
    ],
    "d-evo": [
        ("devo-m3", ["d-evo", "--form", "(x3) dx1 + (x1) dx2", "--manifold", "m3.json"], 0),
        ("devo-m2", ["d-evo", "--form", "(x1) dx2", "--manifold", "m2.json"], 0),
        ("devo-no-manifold", ["d-evo", "--form", "(x1) dx2", "--dim", "2"], 2),
    ],
    "commutator": [
        ("comm-flat", ["commutator", "--form", "(x2) dx1 + (x1^2) dx2", "--dim", "2"], 0),
        ("comm-m3", ["commutator", "--form", "(x1*x2) dx1 + (x3) dx3", "--manifold", "m3.json"], 0),
        ("comm-degree2", ["commutator", "--form", "(x1) dx1^dx2", "--dim", "2"], 2),
    ],
    "closure": [
        ("closure-closed", ["closure", "--form", "(x2) dx1 + (x1) dx2", "--dim", "2"], 0),
        ("closure-open", ["closure", "--form", "(-x2) dx1 + (x1) dx2", "--dim", "2"], 1),
        ("closure-exp", ["closure", "--form", "(exp(x1)*x2) dx1 + (exp(x1)) dx2", "--dim", "2", "--seed", "5"], 0),
        ("closure-pretty", ["closure", "--form", "(x1*x3) dx2", "--dim", "3", "--json"], 1),
    ],
    "star": [
        ("star-euclid", ["star", "--form", "(x1) dx1", "--dim", "3"], 0),
        ("star-minkowski", ["star", "--form", "(x2) dx1^dx2", "--dim", "2", "--metric", "minkowski"], 0),
        ("star-diag", ["star", "--form", "(x1) dx1", "--manifold", "m2diag.json"], 0),
        ("star-missing-metric", ["star", "--form", "dx1", "--dim", "2", "--metric", "missing.json"], 2),
    ],
    "delta": [
        ("delta-1form", ["delta", "--form", "(x1^2) dx1 + (x2^2) dx2", "--dim", "2"], 0),
        ("delta-2form", ["delta", "--form", "(x1*x2*x3) dx1^dx2", "--dim", "3"], 0),
    ],
    "laplacian": [
        ("lap-scalar", ["laplacian", "--form", "(x1^2 + x2^2)", "--dim", "2"], 0),
        ("lap-paper", ["laplacian", "--form", "(x1^3) dx2", "--dim", "2", "--variant", "paper"], 0),
    ],
    "pullback": [
        ("pull-line", ["pullback", "--form", "(xi2) dxi1", "--pseudo", "line.json"], 0),
        ("pull-surf", ["pullback", "--form", "(x1*x2) dx1^dx2 + (x3) dx2^dx3", "--pseudo", "surf.json"], 0),
        ("pull-curve", ["pullback", "--form", "(x1) dx1 + (x2) dx3", "--pseudo", "curve.json"], 0),
        ("pull-degenerate", ["pullback", "--form", "(x1) dx1", "--pseudo", "flat_curve.json"], 2),
    ],
    "dpi": [
        ("dpi-open", ["dpi", "--form", "(x2) dx1 + (x3) dx2", "--pseudo", "surf.json"], 1),
        ("dpi-exact", ["dpi", "--form", "(x1) dx1 + (x2) dx2 + (x3) dx3", "--pseudo", "surf.json"], 0),
        ("dpi-dual", ["dpi", "--form", "(x1) dx1 + (x2) dx2 + (x3) dx3", "--pseudo", "surf.json",
                      "--dual", "--manifold", "m3.json"], 0),
        ("dpi-dual-no-manifold", ["dpi", "--form", "(x1) dx1", "--pseudo", "surf.json", "--dual"], 2),
    ],
    "jacobian": [
        ("jac-product", ["jacobian", "--expr", "x*y", "--expr", "x+y", "--vars", "x,y"], 0),
        ("jac-conformal", ["jacobian", "--expr", "x^2 - y^2", "--expr", "2*x*y", "--vars", "x,y"], 0),
        ("jac-not-square", ["jacobian", "--expr", "x", "--vars", "x,y"], 2),
    ],
    "poisson": [
        ("poisson-1", ["poisson", "--f", "q^2*p", "--g", "q*p^2", "--pairs", "q:p"], 0),
        ("poisson-2", ["poisson", "--f", "q1*p2", "--g", "q2*p1", "--pairs", "q1:p1,q2:p2"], 0),
        ("poisson-bad-pair", ["poisson", "--f", "q", "--g", "p", "--pairs", "qp"], 2),
    ],
    "locus": [
        ("locus-factor", ["locus", "--expr", "x^2 - y^2"], 0),
        ("locus-multiplicity", ["locus", "--expr", "(x-1)^2*(y+2)"], 0),
        ("locus-trig", ["locus", "--expr", "sin(x) - y"], 0),
    ],
    "relation": [
        ("rel-rot", ["relation", "--balance", "rot.json"], 0),
        ("rel-torsion", ["relation", "--balance", "torsion3.json"], 0),
        ("rel-trig", ["relation", "--balance", "trig.json", "--seed", "3"], 0),
        ("rel-inline", ["relation", "--balance", "inline.json"], 0),
        ("rel-bad-json", ["relation", "--balance", "bad.json"], 2),
    ],
    "transform": [
        ("trans-shear", ["transform", "--balance", "shear.json", "--pseudo", "line.json"], 0),
        ("trans-rot-plane", ["transform", "--balance", "rot.json", "--pseudo", "plane.json"], 1),
        ("trans-exact-surf", ["transform", "--balance", "exact3.json", "--pseudo", "surf.json"], 0),
    ],
    "integrate": [
        ("int-shear", ["integrate", "--balance", "shear.json", "--pseudo", "line.json"], 0),
        ("int-exact-chain", ["integrate", "--balance", "exact3.json", "--pseudo", "surf.json",
                             "--pseudo", "curve.json"], 0),
        ("int-rot-plane", ["integrate", "--balance", "rot.json", "--pseudo", "plane.json"], 1),
    ],
    "classify": [
        ("cls-weak", ["classify", "-p", "3", "-k", "1", "-N", "4"], 0),
        ("cls-strong", ["classify", "-p", "3", "-k", "0", "-N", "4", "--n", "4"], 0),
        ("cls-bad-k", ["classify", "-p", "3", "-k", "5", "-N", "4"], 2),
    ],
    "usage": [
        ("usage-none", [], 2),
        ("usage-unknown", ["frobnicate"], 2),
    ],
}

ENTRIES = {entry_id: (argv, code) for group in CORPUS.values() for entry_id, argv, code in group}


def write_configs(directory: Path) -> None:
    for name, payload in CONFIGS.items():
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
        (directory / name).write_text(text, encoding="utf-8")


def order(seed: int) -> list[str]:
    """Entry ids in run order: round r takes the r-th entry of every
    subcommand (each subcommand's entries in a seeded order), rounds in a
    seeded command order.  The first round covers every subcommand, so a
    run that completes it has covered the whole CLI surface."""
    rng = random.Random(f"cli:{seed}")
    groups = []
    for command in sorted(CORPUS):
        ids = [entry_id for entry_id, _, _ in CORPUS[command]]
        rng.shuffle(ids)
        groups.append(ids)
    ordered = []
    for round_ in range(max(len(g) for g in groups)):
        batch = [g[round_] for g in groups if round_ < len(g)]
        rng.shuffle(batch)
        ordered.extend(batch)
    return ordered
