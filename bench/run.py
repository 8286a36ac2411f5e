#!/usr/bin/env python3
"""One run of the formcalc benchmark.

    python3 bench/run.py --workload {algebra,evolution,cli} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --write-reference

Run from a checkout of the repository; the program is imported from
``src/`` with no installation.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced run.  The line before it is a JSON report with the
environment, the tail percentile and its sample count, ``failed_frac``
and every failed check.  ``--write-reference`` regenerates
``bench/reference.json`` from the current program.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cli_corpus
from tracing import CLI_PROCESS, SPAN_NAMES, TARGETS, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"

WORKLOADS = ("algebra", "evolution", "cli")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: The tail metric is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Library items whose digest is stored in the reference, per workload.
REFERENCE_ITEMS = {"algebra": 1500, "evolution": 300}
#: Wall-clock cap on the CLI loop, whatever the measured time.
WALL_CAP_S = 110
DIGEST_CHARS = 16

#: Time of ``import formcalc`` inside a fresh interpreter, as the library
#: child measures its own.
IMPORT_PROBE = "import time; t = time.perf_counter(); import formcalc; print(time.perf_counter() - t)"
GROUND_TYPES_PROBE = (
    "import numpy, sympy\n"
    "from sympy.external.gmpy import GROUND_TYPES\n"
    "print(sympy.__version__, numpy.__version__, GROUND_TYPES)\n"
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def hash_seed(seed: int, label: str) -> str:
    """PYTHONHASHSEED of one child, fixed by the run seed and the child's role."""
    return str(int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big"))


def run_child(argv, hashseed: str | None = None, cwd=None) -> subprocess.CompletedProcess:
    """Run a child with ``src`` on its path and wait for it to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(argv, capture_output=True, env=env, cwd=cwd, timeout=170, check=False)


def checked_child(argv, hashseed: str | None = None) -> subprocess.CompletedProcess:
    proc = run_child(argv, hashseed)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} failed: {proc.stderr.decode()[-1500:]}")
    return proc


# -- set-up and import time ----------------------------------------------------------


def cli_setup_samples(seed: int) -> list[float]:
    """Wall time of cold ``python -c "import formcalc.cli"`` processes."""
    samples = []
    for j in range(SETUP_SAMPLES):
        start = time.perf_counter()
        checked_child([sys.executable, "-c", "import formcalc.cli"], hash_seed(seed, f"setup{j}"))
        samples.append(time.perf_counter() - start)
    return samples


def library_setup_samples(seed: int, count: int) -> list[float]:
    """``import formcalc`` time in ``count`` fresh interpreters."""
    return [float(checked_child([sys.executable, "-c", IMPORT_PROBE], hash_seed(seed, f"setup{j}")).stdout)
            for j in range(count)]


def parse_importtime(stderr: str) -> dict:
    """Seconds of sympy, numpy and the rest of ``import formcalc.cli``.

    ``-X importtime`` prints ``import time: self | cumulative | name`` with
    the name indented by nesting depth.  sympy and numpy count from the
    first line that imports them (cumulative, so their own dependencies
    are included); formcalc is the cumulative time of ``formcalc.cli`` minus
    those two, i.e. formcalc's own modules and the stdlib they pull in.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        if cum.strip().isdigit() and name not in cumulative:
            cumulative[name] = int(cum) / 1e6
    if "formcalc.cli" not in cumulative:
        raise RuntimeError("no formcalc.cli line in -X importtime output")
    sympy_s = cumulative.get("sympy", 0.0)
    numpy_s = cumulative.get("numpy", 0.0)
    return {"sympy_s": sympy_s, "numpy_s": numpy_s,
            "formcalc_s": cumulative["formcalc.cli"] - sympy_s - numpy_s}


def importtime_samples(seed: int) -> dict:
    runs = [parse_importtime(checked_child([sys.executable, "-X", "importtime", "-c", "import formcalc.cli"],
                                           hash_seed(seed, f"importtime{j}")).stderr.decode())
            for j in range(IMPORTTIME_SAMPLES)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# -- environment ---------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    probe = checked_child([sys.executable, "-c", GROUND_TYPES_PROBE]).stdout.decode().split()
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:  # not an enclosing repository
            commit = git[1]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "sympy": probe[0],
        "numpy": probe[1],
        "sympy_ground_types": probe[2],
        "SYMPY_CACHE_SIZE": os.environ.get("SYMPY_CACHE_SIZE", "unset (sympy default 1000)"),
        "git_commit": commit,
        "seed": seed,
    }


# -- statistics ----------------------------------------------------------------------


def latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = n - 1 - TAIL_BEYOND
    if tail_index < 0:
        raise RuntimeError(f"{n} items are too few for a tail with {TAIL_BEYOND} samples beyond it")
    return {
        "items": n,
        "items_per_s": n / sum(ordered),
        "item_p50_ms": statistics.median(ordered) * 1000,
        "item_tail_ms": ordered[tail_index] * 1000,
        "item_tail_percentile": 100 * (tail_index + 1) / n,
        "item_tail_beyond": TAIL_BEYOND,
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- library workloads ---------------------------------------------------------------


def run_library(args, traced: bool) -> dict:
    """One measured run in a fresh process (bench/library.py)."""
    proc = checked_child([sys.executable, str(BENCH / "library.py"), args.workload, str(args.seed),
                          str(args.seconds), str(int(traced))], hash_seed(args.seed, "library"))
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not traced:
        result["setup"] = [result["setup_s"]] + library_setup_samples(args.seed, SETUP_SAMPLES - 1)
    return result


# -- cli workload --------------------------------------------------------------------


def cli_item(workdir: Path, entry_id: str, hashseed: str | None, stats_dir: Path | None = None):
    """Run one corpus entry in a fresh process; (exit code, stdout, seconds).
    With ``stats_dir`` the entry runs under the tracer (bench/trace_cli.py)."""
    argv, _ = cli_corpus.ENTRIES[entry_id]
    if stats_dir is not None:
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(stats_dir / f"{entry_id}.json"), entry_id, *argv]
    else:
        cmd = [sys.executable, "-m", "formcalc.cli", *argv]
    start = time.perf_counter()
    proc = run_child(cmd, hashseed, cwd=workdir)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def run_cli(args, traced: bool, reference: dict) -> dict:
    """Closed loop, one client: corpus entries one after another, each a
    fresh ``python -m formcalc.cli`` process, until ``seconds`` are measured."""
    total = {"latencies": [], "attempted": 0, "failures": [], "digest_mismatches": [],
             "trace_stats": {}, "spans": [], "stopped_by": "seconds"}
    if not traced:
        total["setup"] = cli_setup_samples(args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-cli-") as tmp:
        workdir = Path(tmp)
        cli_corpus.write_configs(workdir)
        stats_dir = workdir / "trace" if traced else None
        if traced:
            stats_dir.mkdir()
        measured = 0.0
        loop_start = time.perf_counter()
        for position, entry_id in enumerate(cli_corpus.order(args.seed)):
            if measured >= args.seconds and position > TAIL_BEYOND:
                break
            if time.perf_counter() - loop_start >= WALL_CAP_S:
                total["stopped_by"] = "wall cap"
                break
            total["attempted"] += 1
            code, stdout, elapsed = cli_item(workdir, entry_id, hash_seed(args.seed, f"cli{position}"), stats_dir)
            measured += elapsed
            total["latencies"].append(elapsed)
            problems = []
            expected_code = cli_corpus.ENTRIES[entry_id][1]
            if code != expected_code:
                problems.append(f"exit code {code}, expected {expected_code}")
            got = digest(stdout)
            if got != reference.get(entry_id):
                total["digest_mismatches"].append({"item": entry_id, "expected": reference.get(entry_id), "got": got})
                problems.append("stdout digest differs from the reference")
            if traced:
                child = json.loads((stats_dir / f"{entry_id}.json").read_text(encoding="utf-8"))
                child["stats"]["self_s"][CLI_PROCESS] = elapsed - sum(child["stats"]["self_s"].values())
                merge(total["trace_stats"], child["stats"])
                offset = len(total["spans"])
                total["spans"].extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]]
                                      for s in child["spans"])
            if problems:
                total["failures"].append({"item": entry_id, "problems": problems})
    total["digests_checked"] = total["attempted"]
    total["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if traced:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-cli-seed{args.seed}.jsonl"
        write_spans(span_file, total["spans"])
        total["spans_file"] = str(span_file.relative_to(ROOT))
    return total


# -- reference -----------------------------------------------------------------------


def write_reference() -> int:
    """Regenerate the stored digests from the current program; refuses to
    write when any item fails its oracle."""
    sys.path.insert(0, str(SRC))
    import workloads

    reference = {"seed": DEFAULT_SEED, "digest": f"sha256, first {DIGEST_CHARS} hex digits"}
    for workload, count in REFERENCE_ITEMS.items():
        digests = []
        for index, _, kind, inp in workloads.items(workload, DEFAULT_SEED):
            if index == count:
                break
            problems, text = kind.verify(inp, kind.compute(inp))
            if problems:
                print(f"{workload} item {index} fails: {problems}", file=sys.stderr)
                return 1
            digests.append(digest(text.encode()))
        reference[workload] = digests
    cli = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-cli-") as tmp:
        cli_corpus.write_configs(Path(tmp))
        for entry_id, (_, expected_code) in cli_corpus.ENTRIES.items():
            code, stdout, _ = cli_item(Path(tmp), entry_id, None)
            if code != expected_code:
                print(f"cli entry {entry_id} exits {code}, expected {expected_code}", file=sys.stderr)
                return 1
            cli[entry_id] = digest(stdout)
    reference["cli"] = cli
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


# -- traced run ----------------------------------------------------------------------


def write_spans(path: Path, spans) -> None:
    """One JSON array per line: name, start, end, parent index, item."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def per_layer_metrics(stats: dict, items: int, overhead: float, imports: dict) -> dict:
    """Calls and self time per item of every traced function, plus ratios."""
    metrics = {}
    for name in [n for _, _, n in TARGETS]:
        metrics[f"{name}.calls"] = (stats["calls"].get(name, 0) / items, "calls/item")
        metrics[f"{name}.self_s"] = (stats["self_s"].get(name, 0.0) / items, "s/item")
    for name in SPAN_NAMES[len(TARGETS):]:
        metrics[f"{name}.self_s"] = (stats["self_s"].get(name, 0.0) / items, "s/item")
    is_zero_calls = stats["calls"].get("symexpr.is_zero", 0)
    lookups = stats["validate_hits"] + stats["validate_misses"]
    metrics["symexpr.is_zero.canonical_frac"] = (
        stats["is_zero_canonical"] / is_zero_calls if is_zero_calls else 0.0, "ratio")
    metrics["symexpr.is_zero.probably_nonzero"] = (stats["is_zero_probably_nonzero"] / items, "count/item")
    metrics["symexpr.validate.hit_ratio"] = (stats["validate_hits"] / lookups if lookups else 0.0, "ratio")
    for key, value in imports.items():
        metrics[f"cli.import.{key}"] = (value, "s")
    metrics["trace.overhead_items_per_s"] = (overhead, "1/s")
    return metrics


# -- main ----------------------------------------------------------------------------


def measure(args, traced: bool, reference: dict) -> dict:
    if args.workload == "cli":
        return run_cli(args, traced, reference["cli"])
    return run_library(args, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "formcalc" / "__init__.py").is_file():
        print(f"error: {SRC / 'formcalc'} not found; run from a formcalc checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    reference = load_reference()
    # the traced run first repeats the untraced one, for the tracing overhead
    untraced = measure(args, False, reference) if args.trace else None
    result = measure(args, bool(args.trace), reference)
    checked_runs = [result] + ([untraced] if untraced else [])
    failures = [f for r in checked_runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in checked_runs)
    failed = len(failures)

    lat = latency_stats(result["latencies"])
    rss_mb = result["rss_kb"] / 1024
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "items_per_s": {"value": lat["items_per_s"], "unit": "1/s"},
        "item_p50_ms": {"value": lat["item_p50_ms"], "unit": "ms"},
        "item_tail_ms": {"value": lat["item_tail_ms"], "unit": "ms", "percentile": lat["item_tail_percentile"],
                         "samples_beyond": lat["item_tail_beyond"], "samples": lat["items"]},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB",
                        "source": "children (RUSAGE_CHILDREN)" if args.workload == "cli" else "run process"},
        "stopped_by": result["stopped_by"],
        "digests_checked": sum(r["digests_checked"] for r in checked_runs),
        "digest_mismatches": [m for r in checked_runs for m in r["digest_mismatches"]],
        "failures": failures,
    }
    if "kinds" in result:
        report["kinds"] = result["kinds"]
    if args.trace:
        untraced_rate = latency_stats(untraced["latencies"])["items_per_s"]
        report["traced_items_per_s"] = lat["items_per_s"]
        report["untraced_items_per_s"] = untraced_rate
        metrics = per_layer_metrics(result["trace_stats"], lat["items"], lat["items_per_s"] - untraced_rate,
                                    importtime_samples(args.seed))
        report["spans_file"] = result["spans_file"]
    else:
        setup = result["setup"]
        report["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": setup}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (lat["items_per_s"], "1/s"),
            "item_p50_ms": (lat["item_p50_ms"], "ms"),
            "item_tail_ms": (lat["item_tail_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
