"""One measured run of a library workload (``algebra`` or ``evolution``),
in a fresh process started by bench/run.py.

    python bench/library.py WORKLOAD SEED SECONDS TRACE

Times ``import formcalc``, then runs the seeded item stream until
SECONDS of item time are measured and the schedule's current cycle is
complete, so the items have exactly the schedule's mix of kinds.  Outputs
are kept, ``ru_maxrss`` is read when the timed loop ends, and only then
are the outputs checked against the oracles and the reference digests,
so the oracles' sympy work neither shares the sympy cache with timed items
nor counts in the peak RSS.  Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import defaultdict

start = time.perf_counter()
import formcalc  # noqa: E402,F401  (the set-up being timed)

SETUP_S = time.perf_counter() - start

import workloads  # noqa: E402
from run import OUT, ROOT, TAIL_BEYOND, digest, load_reference, write_spans  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Wall-clock cap on the timed loop, whatever the measured time, so that
#: the checks after it still end well inside a run's time limit.
WALL_CAP_S = 100


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cycle = len(workloads.SCHEDULES[workload])
    latencies, done, failures = [], [], []
    by_kind = defaultdict(list)  # kind name -> latencies, None for an item that raised
    measured = 0.0
    stopped_by = "seconds"
    loop_start = time.perf_counter()
    for index, name, kind, inp in workloads.items(workload, seed):
        if index % cycle == 0:
            if measured >= seconds and len(latencies) > TAIL_BEYOND:
                break
            if time.perf_counter() - loop_start >= WALL_CAP_S:
                stopped_by = "wall cap"
                break
        try:
            if tracer is None:
                begin = time.perf_counter()
                out = kind.compute(inp)
                elapsed = time.perf_counter() - begin
            else:
                out, elapsed = tracer.run_item(index, kind.compute, inp)
        except Exception as exc:  # an item that raises counts as failed; the run goes on
            failures.append({"item": index, "error": f"{type(exc).__name__}: {exc}"[:300]})
            by_kind[name].append(None)
            continue
        measured += elapsed
        latencies.append(elapsed)
        by_kind[name].append(elapsed)
        done.append((index, kind, inp, out))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reference = load_reference()
    expected = reference[workload] if seed == reference["seed"] else []
    mismatches = []
    checked = 0
    for index, kind, inp, out in done:
        try:
            problems, text = kind.verify(inp, out)
        except Exception as exc:
            problems, text = [f"oracle raised {type(exc).__name__}: {exc}"[:300]], ""
        if index < len(expected):
            checked += 1
            got = digest(text.encode())
            if got != expected[index]:
                mismatches.append({"item": index, "expected": expected[index], "got": got})
                problems.append("output digest differs from the reference")
        if problems:
            failures.append({"item": index, "problems": problems})

    kinds = {name: {"items": len(times), "p50_ms": 1000 * statistics.median(t for t in times if t is not None)
                    if any(t is not None for t in times) else None}
             for name, times in sorted(by_kind.items())}
    result = {"setup_s": SETUP_S, "latencies": latencies, "attempted": sum(len(t) for t in by_kind.values()),
              "failures": failures, "kinds": kinds, "stopped_by": stopped_by,
              "digests_checked": checked, "digest_mismatches": mismatches, "rss_kb": rss_kb}
    if tracer is not None:
        result["trace_stats"] = tracer.stats()
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
        write_spans(span_file, tracer.spans)
        result["spans_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
