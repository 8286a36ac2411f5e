"""The names the benchmark harness reaches into must keep resolving.

``bench/tracing.py`` rebinds the functions in its ``TARGETS`` table and
reads ``symexpr._validate``'s cache counters; ``bench/workloads.py`` calls
the package through ``fc.<name>``.  A rename or deletion in the library
would otherwise surface only when ``bench/run.py`` fails.  The bench files
are read as source, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import formcalc

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing_targets() -> tuple:
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS table")


def _workload_names() -> list[str]:
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return sorted({
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "fc"
    })


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr, _metric", _tracing_targets())
def test_every_traced_target_resolves(module, attr, _metric):
    assert callable(_resolve(importlib.import_module(module), attr))


def test_validate_cache_counters_resolve():
    info = importlib.import_module("formcalc.symexpr")._validate.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_every_package_name_the_workloads_use_resolves():
    names = _workload_names()
    assert names, "bench/workloads.py uses no fc.<name>"
    missing = [name for name in names if not hasattr(formcalc, name)]
    assert missing == []
