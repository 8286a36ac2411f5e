#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.  Takes about two minutes.

    python3 bench/selftest.py

Checks, at the default seed and one second of measurement per run:

* every run prints, as its last line, the contract object, and every
  metric of BENCHMARK.json (end-to-end with ``--trace 0``, per-layer with
  ``--trace 1``) with the unit BENCHMARK.json gives it;
* no item fails its oracle or its reference digest (``failed_frac`` is 0);
* the per-layer self times of the traced run add up to the traced item
  time;
* a traced CLI invocation writes the same stdout bytes and exit code as an
  untraced one;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes and prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import cli_corpus
from run import DEFAULT_SEED, ROOT, WORKLOADS, cli_item

BENCH = Path(__file__).resolve().parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=170, check=False)


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        report = json.loads(proc.stdout.splitlines()[-2])
        problems.append(f"{where}: failed {result['failed']} of {result['attempted']}: {report['failures'][:3]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    if trace and not problems:
        report = json.loads(proc.stdout.splitlines()[-2])
        self_total = sum(m["value"] for name, m in result["metrics"].items() if name.endswith(".self_s"))
        item_time = 1 / report["traced_items_per_s"]
        if abs(self_total - item_time) > 1e-6 * item_time:
            problems.append(f"{where}: self times add up to {self_total}, traced item time is {item_time}")
    return problems


def check_traced_cli_bytes() -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-selftest-") as tmp:
        workdir = Path(tmp)
        cli_corpus.write_configs(workdir)
        (workdir / "trace").mkdir()
        for entry_id in ("rel-torsion", "closure-open", "d-parse-error"):
            plain = cli_item(workdir, entry_id, None)
            traced = cli_item(workdir, entry_id, None, workdir / "trace")
            if plain[:2] != traced[:2]:
                problems.append(f"cli {entry_id}: traced (exit {traced[0]}) and untraced (exit {plain[0]}) "
                                "stdout or exit code differ")
    return problems


def check_without_program() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("algebra", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {trace: {m["name"]: m["unit"] for m in config[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    if [w["name"] for w in config["workloads"]] != list(WORKLOADS):
        problems = [f"BENCHMARK.json workloads differ from {WORKLOADS}"]
    else:
        problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, units[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    problems += check_traced_cli_bytes()
    problems += check_without_program()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
