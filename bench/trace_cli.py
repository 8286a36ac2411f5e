"""One traced CLI invocation, for the traced run of the ``cli`` workload.

    python bench/trace_cli.py STATS_FILE ITEM_ID [formcalc arguments...]

Behaves like ``python -m formcalc.cli [arguments...]`` (same stdout bytes,
same exit code) with the tracer installed right after ``formcalc.cli`` is
imported.  The root span starts before the import, so the import is the
``cli.import`` span.  Span totals and the spans go to STATS_FILE as JSON.
"""

import importlib
import json
import sys

from tracing import CLI_IMPORT, Tracer


def main() -> int:
    stats_file, item, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()

    def invoke():
        cli = tracer.call(CLI_IMPORT, importlib.import_module, ("formcalc.cli",), {})
        tracer.install()
        return cli.main(argv)

    code, _ = tracer.run_item(item, invoke)
    sys.stdout.flush()
    with open(stats_file, "w", encoding="utf-8") as fh:
        json.dump({"stats": tracer.stats(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
