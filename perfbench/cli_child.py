"""One ``python -m repro`` command under the per-layer trace.

The traced form of the cold-start workload's operation, run with the
program's source on ``PYTHONPATH``::

    python3 perfbench/cli_child.py TRACE_JSON -- --help

It times the import of the command line, wraps the layer boundaries of the
modules that import loaded (importing nothing more), runs the command, and
writes the per-layer self times, counters, module count and missing
boundaries to ``TRACE_JSON``.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_child.py TRACE_JSON -- REPRO_ARGS...")

    import layers

    started = time.perf_counter()
    import repro.cli

    import_seconds = time.perf_counter() - started
    trace = layers.Trace()
    missing = layers.install(trace)
    trace.enter("other")
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:  # argparse exits after printing the help
        code = exc.code
    finally:
        trace.exit()
    seconds, counts = trace.snapshot()
    seconds["import"] = import_seconds
    record = {"seconds": seconds, "counts": counts, "modules": len(sys.modules), "missing": missing}
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
