"""Seeded inputs, timed item bodies and independent oracles of the library
workloads (``algebra`` and ``evolution``).

An item is drawn from ``random.Random(f"{workload}:{seed}:{index}")``, so
the stream of a seed is the same in every process and item ``i`` does not
depend on how long earlier items took.  Each workload cycles through a
fixed schedule of item kinds, and a run stops only at the end of a cycle,
so every run has the same mix of kinds by count and the run-to-run spread
comes from coefficients, not from a changing mix.

Every item has two halves:

* ``compute`` (timed) builds the forms from raw sympy coefficient tables
  and calls formcalc through the package namespace (``fc.wedge``...), so
  the tracer's rebinding of those names is seen;
* ``verify`` (untimed, after the timed loop) recomputes the results in
  plain sympy from the raw tables, without formcalc, compares them with
  formcalc's output, and returns the canonical text whose sha256 is
  compared with the stored reference.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import sympy as sp

import formcalc as fc

# -- generators (same shape as tests/conftest.py) --------------------------------


def rand_poly(rng: random.Random, names, max_terms: int = 2, max_degree: int = 3) -> sp.Expr:
    symbols = [sp.Symbol(n) for n in names]
    total = sp.Integer(0)
    for _ in range(rng.randint(1, max_terms)):
        monomial = sp.Integer(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, max_degree)):
            monomial *= rng.choice(symbols)
        total += monomial
    return total


def rand_table(rng: random.Random, coords, degree: int, max_terms: int = 2) -> dict:
    """Raw coefficient table of a random form; {} above the dimension."""
    n = len(coords)
    if degree > n:
        return {}
    indices = list(itertools.combinations(range(n), degree))
    rng.shuffle(indices)
    return {idx: rand_poly(rng, coords) for idx in indices[: rng.randint(1, min(max_terms, len(indices)))]}


def coords_of(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _key(obj: Any) -> str:
    """Stable text of a raw input, used to keep inputs distinct within a run."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_key(k)}:{_key(v)}" for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(_key(v) for v in obj) + ")"
    if isinstance(obj, sp.Basic):
        return sp.srepr(obj)
    return repr(obj)


# -- algebra ---------------------------------------------------------------------


def _gen_forms(count):
    def gen(rng, n):
        coords = coords_of(n)
        return {"coords": coords,
                "forms": [(p, rand_table(rng, coords, p)) for p in (rng.randint(0, min(3, n)) for _ in range(count))]}

    return gen


def _gen_homotopy(rng, n):
    coords = coords_of(n)
    p = rng.randint(1, min(3, n))
    return {"coords": coords, "forms": [(p - 1, rand_table(rng, coords, p - 1))]}


def _gen_hodge(rng, n):
    coords = coords_of(n)
    p = rng.randint(0, n)
    return {"coords": coords, "forms": [(p, rand_table(rng, coords, p))]}


def _forms(inp):
    return [fc.Form(inp["coords"], p, table) for p, table in inp["forms"]]


def _run_pair(inp):
    a, b = _forms(inp)
    da, db = fc.d_flat(a), fc.d_flat(b)
    ab = fc.wedge(a, b)
    d_ab = fc.d_flat(ab)
    return {
        "forms": {"a": a, "b": b, "da": da, "db": db, "ab": ab, "d_ab": d_ab},
        "texts": ["a", "b", "ab", "d_ab"],
        "laws": {
            "d o d = 0 (left)": fc.d_flat(da).is_zero_form(),
            "d o d = 0 (right)": fc.d_flat(db).is_zero_form(),
            "graded anticommutativity": ab == fc.scale(fc.wedge(b, a), (-1) ** (a.degree * b.degree)),
            "Leibniz": d_ab == fc.wedge(da, b) + fc.scale(fc.wedge(a, db), (-1) ** a.degree),
        },
    }


def _run_triple(inp):
    a, b, c = _forms(inp)
    left = fc.wedge(fc.wedge(a, b), c)
    return {"forms": {"left": left}, "texts": ["left"],
            "laws": {"associativity": left == fc.wedge(a, fc.wedge(b, c))}}


def _run_homotopy(inp):
    (theta,) = _forms(inp)
    omega = fc.d_flat(theta)
    alpha = fc.poincare_antiderivative(omega)
    return {"forms": {"omega": omega, "alpha": alpha}, "texts": ["omega", "alpha"],
            "laws": {"d(antiderivative) = omega": fc.d_flat(alpha) == omega}}


def _run_hodge(inp):
    coords = inp["coords"]
    n = len(coords)
    m = fc.Manifold(coords, metric=fc.euclidean(n))
    (theta,) = _forms(inp)
    p = theta.degree
    dual = fc.star(m, theta)
    lowered = fc.delta(m, theta)
    return {
        "forms": {"dual": dual, "lowered": lowered},
        "texts": ["dual", "lowered"],
        "laws": {
            "star o star = (-1)^(p(n-p))": fc.star(m, dual) == fc.scale(theta, (-1) ** (p * (n - p))),
            "delta o delta = 0": fc.delta(m, lowered).is_zero_form(),
        },
    }


# -- evolution -------------------------------------------------------------------

_FUNCTIONS = (sp.sin, sp.cos, sp.exp, sp.log)


def _gen_connection(rng, coords):
    """Non-symmetric table with four entries, constant and polynomial mixed."""
    n = len(coords)
    nested = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(4):
        sigma, beta, alpha = (rng.randrange(n) for _ in range(3))
        nested[sigma][beta][alpha] = (
            rand_poly(rng, coords, 1, 2) if k % 2 else sp.Integer(rng.choice([-2, -1, 1, 2]))
        )
    return nested


def _gen_immersion(rng, coords, k):
    """x_i = t_i + (degree-2 monomial) for i < k, a polynomial of t otherwise.

    The top k x k block of the Jacobian is the identity at t = 0, so the
    map is an immersion; formcalc's rank probe still checks it.  No
    component is constant.
    """
    params = tuple(f"t{j + 1}" for j in range(k))
    symbols = [sp.Symbol(t) for t in params]
    mapping = []
    for i, name in enumerate(coords):
        if i < k:
            bend = sp.Integer(rng.choice([-2, -1, 1, 2])) * rng.choice(symbols) * rng.choice(symbols)
            mapping.append((name, symbols[i] + bend))
        else:
            component = sp.Integer(0)
            while not component.free_symbols:
                component = rand_poly(rng, params, 2, 2)
            mapping.append((name, component))
    return params, mapping


def _gen_action(rng, coords, style):
    xs = [sp.Symbol(c) for c in coords]
    if style == "exact":
        f = rand_poly(rng, coords, 3, 3)
        return [sp.diff(f, x) for x in xs]
    action = [rand_poly(rng, coords, 2, 2) for _ in coords]
    if style == "transcendental":  # one coefficient becomes poly * f(poly)
        inner = sp.Integer(0)
        while not inner.free_symbols:  # log(-2) would bring in I
            inner = rand_poly(rng, coords, 1, 2)
        action[rng.randrange(len(coords))] = rand_poly(rng, coords, 1, 1) * rng.choice(_FUNCTIONS)(inner)
    return action


#: (action style, carrier dimension, integrate through sequential_integration)
EVOLUTION_KINDS = {
    "exact-chain": ("exact", 2, True),
    "curve": ("polynomial", 1, False),
    "surface": ("polynomial", 2, False),
    "transcendental": ("transcendental", 2, False),
}


def _constant_on_carrier(action, mapping) -> bool:
    """True when a function argument is constant on the carrier: there
    log(-2) would leave the real class, which is an input error, not a
    benchmark item."""
    phi = {sp.Symbol(name): e for name, e in mapping}
    return any(not f.args[0].xreplace(phi).free_symbols for a in action for f in a.atoms(sp.Function))


def _gen_evolution(kind):
    style, k, _ = EVOLUTION_KINDS[kind]

    def gen(rng, n):
        coords = tuple(f"xi{i + 1}" for i in range(n))
        while True:
            params, mapping = _gen_immersion(rng, coords, k)
            action = _gen_action(rng, coords, style)
            if not _constant_on_carrier(action, mapping):
                break
        return {
            "kind": kind,
            "coords": coords,
            "gamma": _gen_connection(rng, coords),
            "action": action,
            "params": params,
            "mapping": mapping,
        }

    return gen


def _run_evolution(inp):
    coords = inp["coords"]
    m = fc.Manifold(coords, connection=fc.Connection.from_nested(inp["gamma"]))
    balance = fc.BalanceSystem.build(coords, inp["action"], manifold=m)
    relation = fc.build_relation(balance)
    verdict = fc.nonidentity_check(relation)
    deforming = fc.is_deforming(m)
    commutator = fc.commutator(m, relation.omega)
    total = fc.d_evolutionary(m, relation.omega)
    pi = fc.Pseudostructure.build(inp["params"], inp["mapping"])
    pulled_d = fc.pullback(pi, relation.commutator.coefficient_term)
    out = {"relation": relation, "verdict": verdict, "deforming": deforming,
           "commutator": commutator, "total": total, "pulled_d": pulled_d}
    try:
        if EVOLUTION_KINDS[inp["kind"]][2]:
            chain = fc.sequential_integration(relation, [pi])
            if chain.failure is not None:
                raise chain.failure
            identical = chain.stages[0][1]
        else:
            identical = fc.attempt_degenerate_transformation(relation, pi)
    except fc.ClosureError as err:
        out.update(outcome="closure-error", residual=err.residual, verdicts=err.verdicts)
    except fc.HomotopyError as err:
        out.update(outcome="homotopy-error", message=str(err))
    else:
        out.update(outcome="integrated", omega_pi=identical.omega_pi,
                   antiderivative=identical.antiderivative,
                   closes=identical.antiderivative is None
                   or fc.d_flat(identical.antiderivative) == identical.omega_pi)
    return out


# -- oracles: plain sympy, no formcalc canonical forms ---------------------------

_CHECK_POINTS = 4


def _vanishes(e: sp.Expr, rng: random.Random) -> bool:
    """Exact for rational functions (expanded numerator over a common
    denominator).  Otherwise the value at rational points of
    [-3, 3], evaluated with 40 digits, must be below 1e-20 times the largest
    term (points at a pole are skipped)."""
    if not e.atoms(sp.Function) and not e.has(sp.E):
        return sp.expand(sp.numer(sp.together(e))) == 0
    e = sp.expand(e)
    if e == 0:
        return True
    names = sorted(e.free_symbols, key=lambda s: s.name)
    seen = 0
    for _ in range(4 * _CHECK_POINTS):
        den = rng.randint(1, 7)
        point = {s: sp.Rational(rng.randint(-3 * den, 3 * den), den) for s in names}
        terms = [t.xreplace(point).evalf(40) for t in sp.Add.make_args(e)]
        if any(t.has(sp.zoo, sp.nan, sp.oo, -sp.oo) or not t.is_number for t in terms):
            continue
        scale = max(abs(complex(t)) for t in terms)
        if abs(complex(sum(terms))) > 1e-20 * max(1.0, scale):
            return False
        seen += 1
        if seen >= _CHECK_POINTS:
            return True
    raise ArithmeticError(f"no regular check point for {e}")


def _agree(terms: dict, expected: dict, rng) -> bool:
    """True when the component table of a formcalc form equals the oracle's."""
    return all(_vanishes(terms.get(idx, sp.Integer(0)) - expected.get(idx, 0), rng)
               for idx in set(expected) | set(terms))


def _sign(seq) -> int:
    """Parity of the permutation that sorts ``seq`` (distinct entries)."""
    return (-1) ** sum(1 for i, j in itertools.combinations(seq, 2) if i > j)


def _collect(pairs) -> dict:
    """Table of a sum of (unsorted index, coefficient) basis terms."""
    table = {}
    for idx, value in pairs:
        key = tuple(sorted(idx))
        table[key] = table.get(key, 0) + _sign(idx) * value
    return table


def _o_wedge(a: dict, b: dict) -> dict:
    return _collect((i + j, f * g) for i, f in a.items() for j, g in b.items() if not set(i) & set(j))


def _o_d(a: dict, xs) -> dict:
    return _collect(((k,) + i, sp.diff(f, x)) for i, f in a.items() for k, x in enumerate(xs) if k not in i)


def _o_star(a: dict, n: int) -> dict:
    """Euclidean dual: dx^I -> sign(I, complement) dx^complement."""
    rest = {i: tuple(k for k in range(n) if k not in i) for i in a}
    return {rest[i]: _sign(i + rest[i]) * f for i, f in a.items()}


def _tables(inp):
    return [sp.Symbol(c) for c in inp["coords"]], [table for _, table in inp["forms"]]


def _expect_pair(inp, out):
    xs, (a, b) = _tables(inp)
    ab = _o_wedge(a, b)
    expected = {"a": a, "b": b, "da": _o_d(a, xs), "db": _o_d(b, xs), "ab": ab, "d_ab": _o_d(ab, xs)}
    return {name: (out["forms"][name].terms, table) for name, table in expected.items()}


def _expect_triple(inp, out):
    _, (a, b, c) = _tables(inp)
    return {"left": (out["forms"]["left"].terms, _o_wedge(_o_wedge(a, b), c))}


def _expect_homotopy(inp, out):
    xs, (theta,) = _tables(inp)
    omega = _o_d(theta, xs)
    return {"omega": (out["forms"]["omega"].terms, omega),
            "d(antiderivative)": (_o_d(out["forms"]["alpha"].terms, xs), omega)}


def _expect_hodge(inp, out):
    xs, (theta,) = _tables(inp)
    n = len(xs)
    dual = _o_star(theta, n)
    lowered = _o_star(_o_d(dual, xs), n)  # delta = star d star, no extra sign
    return {"dual": (out["forms"]["dual"].terms, dual), "lowered": (out["forms"]["lowered"].terms, lowered)}


def _verify_algebra(expect):
    """Oracle of an algebra kind: the laws formcalc evaluated in the item,
    and every returned form against its plain-sympy recomputation."""
    def verify(inp, out):
        rng = random.Random(0)
        problems = [f"law failed: {name}" for name, held in out["laws"].items() if not held]
        problems += [f"{label} differs from the plain-sympy recomputation"
                     for label, (terms, table) in expect(inp, out).items() if not _agree(terms, table, rng)]
        return problems, "\n".join(str(out["forms"][name]) for name in out["texts"])

    return verify


# -- evolution oracle ------------------------------------------------------------


def _verify_evolution(inp, out):
    rng = random.Random(0)
    coords, gamma, action = inp["coords"], inp["gamma"], inp["action"]
    n = len(coords)
    xs = [sp.Symbol(c) for c in coords]
    problems = []

    torsion = {(s, a, b): gamma[s][b][a] - gamma[s][a][b] for s in range(n) for a in range(n) for b in range(n)}
    expected_total = {}
    for alpha, beta in itertools.combinations(range(n), 2):
        value = sp.diff(action[beta], xs[alpha]) - sp.diff(action[alpha], xs[beta])
        value += sum(torsion[s, alpha, beta] * action[s] for s in range(n))
        expected_total[(alpha, beta)] = value
    for label, form in (("relation commutator", out["relation"].commutator.total),
                        ("manifold.commutator", out["commutator"].total),
                        ("d_evolutionary", out["total"])):
        if not _agree(form.terms, expected_total, rng):
            problems.append(f"{label} differs from the term-by-term expansion")

    zero_total = all(_vanishes(v, rng) for v in expected_total.values())
    verdict = out["verdict"].value
    if (zero_total and verdict == "nonidentical") or (not zero_total and verdict == "identical"):
        problems.append(f"nonidentity verdict {verdict} contradicts the expansion")
    deforming = not all(_vanishes(v, rng) for v in torsion.values())
    if out["deforming"] != deforming:
        problems.append(f"is_deforming returned {out['deforming']}, torsion says {deforming}")

    # restriction: c_j(t) = sum_mu A_mu(phi(t)) dphi_mu/dt_j, residual = curl c
    params = [sp.Symbol(t) for t in inp["params"]]
    phi = dict((sp.Symbol(name), e) for name, e in inp["mapping"])
    pulled = [a.xreplace(phi) for a in action]
    c = [sum(pulled[mu] * sp.diff(phi[xs[mu]], t) for mu in range(n)) for t in params]
    expected_pi = {(j,): c[j] for j in range(len(params))}
    expected_res = {}
    if len(params) == 2:
        expected_res[(0, 1)] = sp.diff(c[1], params[0]) - sp.diff(c[0], params[1])
    closed = all(_vanishes(v, rng) for v in expected_res.values())

    if not _agree(out["pulled_d"].terms, expected_res, rng):
        problems.append("pullback(d omega) differs from d(omega_pi): naturality fails")
    polynomial = not any(a.atoms(sp.Function) for a in action)
    polynomial_pi = not any(f.free_symbols for cj in c for f in sp.expand(cj).atoms(sp.Function))
    expected_outcome = "closure-error" if not closed else ("integrated" if polynomial_pi else "homotopy-error")
    if out["outcome"] != expected_outcome:
        problems.append(f"outcome {out['outcome']}, oracle expects {expected_outcome}")
    text = [verdict, str(out["deforming"]), str(out["total"]), str(out["pulled_d"]), out["outcome"]]
    if out["outcome"] == "integrated":
        if not _agree(out["omega_pi"].terms, expected_pi, rng):
            problems.append("omega_pi differs from the direct restriction")
        if not out["closes"]:
            problems.append("d(antiderivative) != omega_pi")
        text += [str(out["omega_pi"]), str(out["antiderivative"])]
    elif out["outcome"] == "closure-error":
        if not _agree(out["residual"].terms, expected_res, rng):
            problems.append("closure residual differs from d of the direct restriction")
        if any(v == "zero" for v in out["verdicts"].values()) or (
                polynomial and any(v != "nonzero" for v in out["verdicts"].values())):
            problems.append(f"residual verdicts {out['verdicts']} are inconsistent")
        text += [str(out["residual"]), repr(sorted(out["verdicts"].items()))]
    else:
        text.append(out["message"])
    return problems, "\n".join(text)


# -- workload table --------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    generate: Callable[[random.Random, int], dict]
    compute: Callable[[dict], dict]
    verify: Callable[[dict, dict], tuple[list[str], str]]


ALGEBRA = {
    "pair": Kind(_gen_forms(2), _run_pair, _verify_algebra(_expect_pair)),
    "triple": Kind(_gen_forms(3), _run_triple, _verify_algebra(_expect_triple)),
    "homotopy": Kind(_gen_homotopy, _run_homotopy, _verify_algebra(_expect_homotopy)),
    "hodge": Kind(_gen_hodge, _run_hodge, _verify_algebra(_expect_hodge)),
}

EVOLUTION = {name: Kind(_gen_evolution(name), _run_evolution, _verify_evolution) for name in EVOLUTION_KINDS}

KINDS = {"algebra": ALGEBRA, "evolution": EVOLUTION}

#: Item kinds in the order a run cycles through them.  Item ``i`` of
#: workload ``w`` has kind ``S[i % len(S)]`` and dimension
#: ``D[(i // len(S)) % len(D)]`` with ``S = SCHEDULES[w]``, ``D = DIMENSIONS[w]``:
#: kinds and dimensions follow a schedule instead of being drawn, and a run
#: ends at the end of a cycle, so every run has the schedule's mix by count
#: and only the coefficients differ between seeds.  In ``evolution`` the
#: kinds differ in cost (curve < exact-chain < surface < transcendental);
#: four surface slots of ten put the median item inside the surface kind
#: instead of in the gap between two kinds, where it would jump with small
#: changes of the mix.
DIMENSIONS = {"algebra": (2, 3, 4), "evolution": (2, 3)}
SCHEDULES = {
    "algebra": ("pair", "triple", "pair", "homotopy", "pair", "triple", "hodge", "homotopy"),
    "evolution": ("exact-chain", "surface", "curve", "transcendental", "surface",
                  "exact-chain", "surface", "curve", "transcendental", "surface"),
}


def items(workload: str, seed: int):
    """Yield (index, kind name, kind, input) forever; no input repeats
    within a stream."""
    schedule, dimensions = SCHEDULES[workload], DIMENSIONS[workload]
    seen = set()
    for index in itertools.count():
        name = schedule[index % len(schedule)]
        kind = KINDS[workload][name]
        n = dimensions[(index // len(schedule)) % len(dimensions)]
        rng = random.Random(f"{workload}:{seed}:{index}")
        while True:
            inp = kind.generate(rng, n)
            key = _key(inp)
            if key not in seen:
                seen.add(key)
                break
        yield index, name, kind, inp
