"""Acceptance suite: every criterion at its stated scale, one PASS line each.

Symbolic laws are exact (zero tolerance), numeric cross-checks use the
stated relative tolerance, and the CLI contract is checked byte-for-byte.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy as sp

from conftest import rand_connection, rand_form, rand_poly, symmetrize
from formcalc import (
    BalanceSystem,
    Form,
    Manifold,
    Pseudostructure,
    RelationVerdict,
    as_expr,
    attempt_degenerate_transformation,
    build_relation,
    classify,
    commutator,
    d_evolutionary,
    d_flat,
    delta,
    euclidean,
    eval_at,
    laplacian,
    nonidentity_check,
    poincare_antiderivative,
    pullback,
    scale,
    star,
    wedge,
)
from formcalc.cli import main, run
from formcalc.dsl import default_coords, parse_form
from formcalc.manifold import Connection


def report(criterion, label):
    print(f"[acceptance] criterion {criterion} ({label}): PASS")


def pool_of_forms(rng, count):
    forms = []
    for _ in range(count):
        n = rng.randint(2, 4)
        coords = default_coords(n)
        p = rng.randint(0, min(3, n))
        forms.append(rand_form(rng, coords, p, max_terms=2, max_coeff_terms=2, max_degree=3))
    return forms


def test_criterion_1_exterior_algebra_laws():
    rng = random.Random(101)
    pool = pool_of_forms(rng, 200)
    for form in pool:
        assert d_flat(d_flat(form)).is_zero_form()

    by_coords = {}
    for form in pool:
        by_coords.setdefault(form.coords, []).append(form)
    pairs = []
    triples = []
    for group in by_coords.values():
        pairs.extend(zip(group, group[1:]))
        triples.extend(zip(group, group[1:], group[2:]))
    assert len(pairs) >= 190 and len(triples) >= 180

    for a, b in pairs:
        assert wedge(a, b) == scale(wedge(b, a), (-1) ** (a.degree * b.degree))
        left = d_flat(wedge(a, b))
        right = wedge(d_flat(a), b) + scale(wedge(a, d_flat(b)), (-1) ** a.degree)
        assert left == right
    for a, b, c in triples:
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    report(1, "exterior-algebra laws on 200 random forms")


def test_criterion_2_commutator_oracle():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(2, 3)
        coords = default_coords(n)
        conn = rand_connection(rng, n, entries=4, polynomial=True, coords=coords)
        m = Manifold(coords, connection=conn)
        theta = rand_form(rng, coords, 1)
        result = commutator(m, theta).total
        a = [theta.terms.get((i,), sp.Integer(0)) for i in range(n)]
        xs = [sp.Symbol(name) for name in coords]
        for alpha in range(n):
            for beta in range(alpha + 1, n):
                expected = sp.diff(a[beta], xs[alpha]) - sp.diff(a[alpha], xs[beta])
                for sigma in range(n):
                    expected += (conn[sigma, beta, alpha] - conn[sigma, alpha, beta]) * a[sigma]
                got = result.terms.get((alpha, beta), sp.Integer(0))
                assert sp.expand(got - expected) == 0
        # a symmetric connection must reproduce the flat differential exactly
        sym = Manifold(coords, connection=symmetrize(conn))
        assert commutator(sym, theta).total == d_flat(theta)
    report(2, "two-term commutator matches independent expansion, 50 pairs")


def test_criterion_3_evolutionary_nonclosure_witness():
    coords = default_coords(3)
    m = Manifold(coords, connection=Connection.single(3, 0, 1, 0, "c"))
    theta = Form(coords, 1, {(2,): "x1"})
    twice = d_evolutionary(m, d_evolutionary(m, theta))
    assert twice == Form(coords, 3, {(0, 1, 2): "c"})
    assert not twice.is_zero_form()
    report(3, "d_evo o d_evo nonzero on a torsion fixture")


def test_criterion_4_pullback_naturality():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        ambient = default_coords(n)
        params = tuple(f"t{i+1}" for i in range(k))
        mapping = []
        for i, name in enumerate(ambient):
            base = sp.Symbol(params[i]) if i < k else sp.Integer(0)
            mapping.append((name, base + rand_poly(rng, params, 1, 2)))
        pi = Pseudostructure.build(params, mapping, check_rank=False)
        theta = rand_form(rng, ambient, rng.randint(0, min(2, n)))
        assert pullback(pi, d_flat(theta)) == d_flat(pullback(pi, theta))
    report(4, "pullback naturality on 100 random pairs")


def test_criterion_5_homotopy_round_trip():
    rng = random.Random(505)
    coords = default_coords(3)
    for _ in range(50):
        p = rng.randint(1, 3)
        theta0 = rand_form(rng, coords, p - 1)
        omega = d_flat(theta0)
        assert d_flat(poincare_antiderivative(omega)) == omega
    report(5, "antiderivative round trip on 50 random exact forms")


def test_criterion_6_hodge_laws():
    for n in range(1, 5):
        coords = default_coords(n)
        m = Manifold(coords, metric=euclidean(n))
        for p in range(0, n + 1):
            for idx in itertools.combinations(range(n), p):
                theta = Form.basis(coords, idx)
                assert star(m, star(m, theta)) == scale(theta, (-1) ** (p * (n - p)))

    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(2, 3)
        coords = default_coords(n)
        m = Manifold(coords, metric=euclidean(n))
        theta = rand_form(rng, coords, rng.randint(1, n))
        assert delta(m, delta(m, theta)).is_zero_form()

    coords = default_coords(2)
    m = Manifold(coords, metric=euclidean(2))
    result = laplacian(m, Form.scalar(coords, "x1^2 + x2^2"))
    value = result.terms.get((), sp.Integer(0))
    assert abs(value) == 4
    report(6, "star-star sign law, delta nilpotency, laplacian magnitude 4")


def test_criterion_7_degenerate_transformation_pipeline():
    b = BalanceSystem.build(("xi1", "xi2"), [as_expr("xi2"), as_expr("0")])
    r = build_relation(b)
    commutator_before = r.commutator
    pi = Pseudostructure.build(
        ["t"], [("xi1", as_expr("t")), ("xi2", as_expr("c0"))], constants=["c0"],
    )
    identical = attempt_degenerate_transformation(r, pi)
    c0, t = sp.symbols("c0 t")
    assert identical.omega_pi == Form(("t",), 1, {(0,): c0})
    assert identical.antiderivative == Form.scalar(("t",), c0 * t)
    assert d_flat(identical.antiderivative) == identical.omega_pi
    # the ambient relation is untouched and still nonidentical
    assert r.commutator is commutator_before
    assert r.commutator.total == Form(("xi1", "xi2"), 2, {(0, 1): -1})
    assert nonidentity_check(r) is RelationVerdict.NONIDENTICAL
    report(7, "shear fixture restricts to theta = c0*t, original relation intact")


def test_criterion_8_numeric_cross_validation():
    rng = random.Random(808)
    coords = ("xi1", "xi2")
    a1 = rand_poly(rng, coords, 2, 3)
    a2 = rand_poly(rng, coords, 2, 3)
    r = build_relation(BalanceSystem.build(coords, [a1, a2]))
    k12 = r.commutator.total.coefficient((0, 1))
    h = Fraction(1, 10**5)
    checked = 0
    while checked < 20:
        point = {"xi1": Fraction(rng.randint(-14, 14), 7),
                 "xi2": Fraction(rng.randint(-14, 14), 7)}
        symbolic = float(eval_at(k12, point))
        if abs(symbolic) < 1e-3:
            continue
        da2 = (float(eval_at(a2, {**point, "xi1": point["xi1"] + h}))
               - float(eval_at(a2, {**point, "xi1": point["xi1"] - h}))) / (2 * float(h))
        da1 = (float(eval_at(a1, {**point, "xi2": point["xi2"] + h}))
               - float(eval_at(a1, {**point, "xi2": point["xi2"] - h}))) / (2 * float(h))
        assert da2 - da1 == pytest.approx(symbolic, rel=1e-6)
        checked += 1
    report(8, "commutator equals central-difference curl at 20 points, rel 1e-6")


def test_criterion_9_classification_table():
    rows = {
        (3, 0, 4): ("strong", 4),
        (3, 1, 4): ("weak", 3),
        (3, 2, 4): ("electromagnetic", 2),
        (3, 3, 4): ("gravitational", 1),
    }
    for (p, k, N), (interaction, dim) in rows.items():
        sc = classify(p, k, N)
        assert sc.interaction == interaction
        assert sc.pseudostructure_dim == N - k == dim
    report(9, "interaction labels and N-k dimensions match the table")


CORPUS = [
    ("dx1^dx2", 2),
    ("dx2^dx1", 2),
    ("dx1^dx1", 2),
    ("(x1) dx1", 2),
    ("(x2) dx1 + (x1) dx2", 2),
    ("( -x2 ) dx1 + ( x1 ) dx2", 2),
    ("(1/2) dx1^dx2", 2),
    ("(-7/3) dx2", 2),
    ("(x1^2 - x2) dx1", 2),
    ("(x1*x2) dx1 - (x2^3) dx2", 2),
    ("(sin(x1)) dx2", 2),
    ("(cos(x1*x2)) dx1", 2),
    ("(exp(x1)) dx1 + (log(x2)) dx2", 2),
    ("(1/(x1 + 1)) dx2", 2),
    ("(x1^2 + 2*x1 + 1) dx1", 2),
    ("(2)", 2),
    ("(x1 + 1/3)", 2),
    ("(sin(x1)^2) ", 2),
    ("(x1) dx1 + (x1) dx1", 2),
    ("(x2 - x2) dx1 + (x1) dx2", 2),
    ("dx1^dx2^dx3", 3),
    ("(x3) dx1^dx2 + (-x1) dx2^dx3", 3),
    ("(x1*x2*x3) dx1^dx2^dx3", 3),
    ("(x2) dx3", 3),
    ("(x1 - x2 + x3) dx1^dx3", 3),
    ("dx3^dx2^dx1", 3),
    ("(x1^3) dx1^dx2 + (1/5) dx1^dx3 + (x2) dx2^dx3", 3),
    ("(exp(2*x1)) dx2^dx3", 3),
    ("(x4) dx1^dx2^dx3^dx4", 4),
    ("(x1 + x2 + x3 + x4) dx2", 4),
]


def test_criterion_10_cli_contract(capsys, tmp_path):
    # parse/print round trip on the 30-case corpus
    assert len(CORPUS) == 30
    for text, n in CORPUS:
        coords = default_coords(n)
        form = parse_form(text, coords)
        assert parse_form(str(form), coords) == form

    # exit-code semantics
    balance = tmp_path / "balance.json"
    balance.write_text(json.dumps({"coords": ["xi1", "xi2"], "A": ["xi2", "-xi1"]}))
    code_ok, record_ok = run(["relation", "--balance", str(balance)])
    assert code_ok == 0 and record_ok["status"] == "ok"
    assert record_ok["result"]["verdict"] == "nonidentical"
    assert record_ok["result"]["commutator"]["total"]["terms"] == {"dxi1^dxi2": "-2"}

    code_neg, record_neg = run(["closure", "--form", "(-x2) dx1 + (x1) dx2", "--dim", "2"])
    assert code_neg == 1 and record_neg["status"] == "closure-failed"

    code_usage, record_usage = run(["d", "--form", "(x1 +) dx2", "--dim", "2"])
    assert code_usage == 2 and record_usage["status"] == "error"

    # byte-deterministic output under a fixed seed
    argv = ["relation", "--balance", str(balance), "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 3
    report(10, "30-case round trip, exit codes, byte-deterministic output")
