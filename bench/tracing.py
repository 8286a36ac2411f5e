"""Span tracer for the traced run.

``Tracer.install`` rebinds each traced formcalc function, in every
``formcalc`` module namespace that holds a reference to it, to a wrapper
that records a span while an item is open.  Rebinding every namespace
matters: ``d_flat`` is bound in ``forms``, ``manifold``, ``hodge``,
``pseudostructure``, ``evolution``, ``cli`` and the package itself, and a
nested call (``pullback`` -> ``wedge`` -> ``Form`` -> ``simplify_expr``)
must count.  The program itself is not changed; tracing lives only in
the benchmark process.

A span is (name, start, end, parent span, item).  Spans stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the durations of its child spans, so the self times of all spans
of an item, the item's own root span included, add up to the item's
traced wall time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: (module, attribute, metric name).  ``manifold.torsion_term`` wraps the
#: private body that ``commutator``, ``d_evolutionary`` and the public
#: ``torsion_term`` all call, so every torsion contraction is counted once.
TARGETS = (
    ("formcalc.symexpr", "simplify_expr", "symexpr.simplify_expr"),
    ("formcalc.symexpr", "is_zero", "symexpr.is_zero"),
    ("formcalc.symexpr", "eval_at", "symexpr.eval_at"),
    ("formcalc.symexpr", "substitute", "symexpr.substitute"),
    ("formcalc.symexpr", "differentiate", "symexpr.differentiate"),
    ("formcalc.forms", "Form.__init__", "forms.Form"),
    ("formcalc.forms", "wedge", "forms.wedge"),
    ("formcalc.forms", "d_flat", "forms.d_flat"),
    ("formcalc.forms", "add", "forms.add"),
    ("formcalc.manifold", "commutator", "manifold.commutator"),
    ("formcalc.manifold", "d_evolutionary", "manifold.d_evolutionary"),
    ("formcalc.manifold", "_torsion_term", "manifold.torsion_term"),
    ("formcalc.manifold", "is_deforming", "manifold.is_deforming"),
    ("formcalc.pseudostructure", "Pseudostructure.build", "pseudostructure.Pseudostructure.build"),
    ("formcalc.pseudostructure", "pullback", "pseudostructure.pullback"),
    ("formcalc.evolution", "build_relation", "evolution.build_relation"),
    ("formcalc.evolution", "nonidentity_check", "evolution.nonidentity_check"),
    ("formcalc.evolution", "attempt_degenerate_transformation", "evolution.attempt_degenerate_transformation"),
    ("formcalc.evolution", "poincare_antiderivative", "evolution.poincare_antiderivative"),
    ("formcalc.evolution", "sequential_integration", "evolution.sequential_integration"),
    ("formcalc.hodge", "star", "hodge.star"),
    ("formcalc.hodge", "delta", "hodge.delta"),
    ("formcalc.dsl", "parse_form", "dsl.parse_form"),
    ("formcalc.dsl", "parse_expr", "dsl.parse_expr"),
    ("formcalc.cli", "run", "cli.run"),
    ("formcalc.cli", "main", "cli.main"),
)

ITEM = "bench.item"
#: Time to import formcalc.cli inside a traced CLI child.
CLI_IMPORT = "cli.import"
#: Wall time of a CLI item outside the child's root span: interpreter
#: start-up and exit, measured by the parent rather than by a span.
CLI_PROCESS = "cli.process"
SPAN_NAMES = tuple(name for _, _, name in TARGETS) + (CLI_IMPORT, CLI_PROCESS, ITEM)


def _validate_counts() -> tuple[int, int]:
    """(hits, misses) of formcalc's validation cache; zero before import."""
    symexpr = sys.modules.get("formcalc.symexpr")
    if symexpr is None:
        return 0, 0
    info = symexpr._validate.cache_info()
    return info.hits, info.misses


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.stack: list = []
        self.item = None
        self.eval_calls = 0
        self.is_zero_canonical = 0
        self.is_zero_probably_nonzero = 0
        self.validate_hits = 0
        self.validate_misses = 0

    # -- spans -----------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if not self.stack:  # outside an item: generation and checks are not traced
            return fn(*args, **kwargs)
        return self._span(name, fn, args, kwargs)

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        frame = [index, 0.0]  # [span index, time covered by child spans]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans[index] = (name, start, end, parent[0] if parent is not None else -1, self.item)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]

    def run_item(self, item, fn, *args):
        """Run ``fn(*args)`` as item ``item`` under a root span; returns
        (result, traced wall time of the item)."""
        before = _validate_counts()
        self.item = item
        index = len(self.spans)
        try:
            result = self._span(ITEM, fn, args, {})
        finally:
            self.item = None
            after = _validate_counts()
            self.validate_hits += after[0] - before[0]
            self.validate_misses += after[1] - before[1]
        _, start, end, _, _ = self.spans[index]
        return result, end - start

    # -- rebinding -------------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self
        if name == "symexpr.eval_at":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.stack:
                    tracer.eval_calls += 1
                return tracer.call(name, fn, args, kwargs)
        elif name == "symexpr.is_zero":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                evals = tracer.eval_calls
                verdict = tracer.call(name, fn, args, kwargs)
                if tracer.stack:
                    tracer.is_zero_canonical += tracer.eval_calls == evals
                    tracer.is_zero_probably_nonzero += verdict.value == "probably-nonzero"
                return verdict
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return wrapper

    def install(self):
        """Rebind every target in every loaded formcalc module namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "formcalc" or key.startswith("formcalc."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:  # e.g. dsl and cli in a library workload
                continue
            if "." in attr:  # a method: patch the class attribute
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrapper(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrapper(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict:
        """Totals that can be summed across processes (see ``merge``)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "is_zero_canonical": self.is_zero_canonical,
            "is_zero_probably_nonzero": self.is_zero_probably_nonzero,
            "validate_hits": self.validate_hits,
            "validate_misses": self.validate_misses,
        }


def merge(total: dict, part: dict) -> dict:
    """Add the counts and times of ``part`` into ``total``, dict by dict."""
    for key, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total
