"""Benchmark of the RBT release system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload release --seed 1 --seconds 10 --trace 0

It writes the workload's inputs from the seed, sets the workload up
``SETUP_REPEATS`` times, each time followed by a first operation, then
repeats the operation (untimed reset before each, untimed output check
after each) for ``--seconds`` seconds and at least ``MIN_OPERATIONS`` times,
verifies the last outputs, and prints one JSON line as the last line of
standard output.

With ``--trace 0`` the metrics are the end-to-end ones: the median time of
one operation, the peak resident memory while operating, and the median
set-up time.  With ``--trace 1`` the layer boundaries are wrapped (see
``layers.py``) and the metrics are the per-layer medians over the
operations: self time per layer, and counters.

All files go to a scratch directory inside the checkout, removed on exit.
The program is taken from ``src/`` next to this directory; without it the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Operations measured per run even when they outlast ``--seconds``.
MIN_OPERATIONS = 5
#: Measuring stops after this many times ``--seconds``, however few operations ran.
OVERRUN_FACTOR = 6


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def trim_heap() -> None:
    """Hand the heap's free pages back to the kernel (glibc; else a no-op).

    The peak is measured up from the resident set at the start of measuring;
    free heap left by the set-ups would otherwise add an amount that depends
    on their history.
    """
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux; else a no-op)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_bytes() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Runner:
    """Runs and times operations of one workload, traced or not."""

    def __init__(self, workload, trace: layers.Trace | None, import_seconds: float, work: Path):
        self.workload = workload
        self.trace = trace
        self.import_seconds = import_seconds
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        #: Layer boundaries a traced child found gone.
        self.missing: set[str] = set()

    def once(self) -> tuple[float, dict | None] | None:
        """One operation: ``(seconds, per-layer record)``, or None if it failed."""
        workload, trace = self.workload, self.trace
        workload.reset()
        gc.collect()
        trace_file = self.work / "child-trace.json" if trace and not workload.in_process else None
        self.attempted += 1
        try:
            before = trace.snapshot() if trace else None
            started = time.perf_counter()
            if trace:
                trace.enter("other")
            try:
                workload.operation(trace_file)
            finally:
                if trace:
                    trace.exit()
            elapsed = time.perf_counter() - started
            # The layers' figures end here; check() is the benchmark's work.
            after = trace.snapshot() if trace else None
            workload.check()
        except Exception as exc:  # a failing program is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        seconds = workload.op_seconds(elapsed)
        if trace is None:
            return seconds, None
        if trace_file is None:
            layer_seconds, counts = layers.delta(before, after)
            layer_seconds["import"] = self.import_seconds
            modules = len(sys.modules)
        else:
            with open(trace_file, encoding="utf-8") as handle:
                child = json.load(handle)
            layer_seconds, counts, modules = child["seconds"], child["counts"], child["modules"]
            self.missing.update(child["missing"])
            # Interpreter start and exit happen outside the child's spans.
            layer_seconds["other"] += elapsed - sum(layer_seconds.values())
        return seconds, {"seconds": layer_seconds, "counts": counts, "modules": modules}

    def measure(self, seconds: float) -> tuple[list[float], list[dict]]:
        times: list[float] = []
        records: list[dict] = []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(times) >= MIN_OPERATIONS:
                return times, records
            if elapsed >= OVERRUN_FACTOR * seconds:
                return times, records
            if not times and len(self.failures) > MIN_OPERATIONS:
                return times, records  # nothing succeeds
            outcome = self.once()
            if outcome is not None:
                times.append(outcome[0])
                if outcome[1] is not None:
                    records.append(outcome[1])


def set_up(workload, directory: Path) -> float:
    """Set the workload up in a fresh directory and run its first operation.

    Returns the seconds the program spent on both.
    """
    directory.mkdir()
    seconds = workload.setup(directory)
    workload.reset()
    started = time.perf_counter()
    workload.operation()
    seconds += workload.op_seconds(time.perf_counter() - started)
    workload.check()
    return seconds


def end_to_end_metrics(times: list[float], setup_seconds: list[float], peak: int) -> dict:
    return {
        "op_ms": {"value": statistics.median(times) * 1000.0, "unit": "ms"},
        "peak_rss_mib": {"value": peak / 2**20, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
    }


def per_layer_metrics(records: list[dict]) -> dict:
    metrics = {}
    for layer in layers.TIME_LAYERS + ("other",):
        values = [record["seconds"][layer] * 1000.0 for record in records]
        metrics[f"{layer}_ms"] = {"value": statistics.median(values), "unit": "ms"}
    for name in layers.COUNTERS:
        values = [record["counts"][name] for record in records]
        metrics[name] = {"value": statistics.median(values), "unit": "count"}
    modules = [record["modules"] for record in records]
    metrics["modules_loaded"] = {"value": statistics.median(modules), "unit": "count"}
    return metrics


def run(args: argparse.Namespace, src: Path, work: Path) -> dict:
    workload_class = WORKLOADS[args.workload]
    import_seconds = 0.0
    if workload_class.in_process:
        started = time.perf_counter()
        import repro.cli  # noqa: F401  (the program's entry point, imported once)

        import_seconds = time.perf_counter() - started

    inputs = work / "inputs"
    inputs.mkdir()
    workload = workload_class(args.seed, src, inputs)
    workload.prepare()
    setup_seconds = []
    for repeat in range(SETUP_REPEATS):
        setup_seconds.append(set_up(workload, work / f"setup{repeat}"))
        if repeat:
            shutil.rmtree(work / f"setup{repeat - 1}")

    trace = layers.Trace() if args.trace else None
    runner = Runner(workload, trace, import_seconds, work)
    if trace and workload.in_process:
        runner.missing.update(layers.install(trace))
    if workload.in_process:
        gc.collect()
        trim_heap()
        reset_peak_rss()
    else:
        workload.usage.clear()
    times, records = runner.measure(args.seconds)
    # Read before verify(), which holds whole outputs in memory.
    if workload.in_process:
        peak = peak_rss_bytes()
    else:
        peak = max((rss for _, rss in workload.usage), default=0)

    verified = False
    if times:
        try:
            workload.verify()
            verified = True
        except Exception as exc:  # a wrong or unreadable output fails the run's check
            runner.failures.append(f"verify: {type(exc).__name__}: {exc}")
    for label in sorted(runner.missing):
        print(
            f"perfbench: layer boundary {label} is gone; its time counts elsewhere",
            file=sys.stderr,
        )
    for failure in runner.failures[:5]:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
    if not times:
        raise SystemExit(f"perfbench: every {args.workload} operation failed")

    if trace is None:
        metrics = end_to_end_metrics(times, setup_seconds, peak)
    else:
        metrics = per_layer_metrics(records)
    return {
        "correct": verified and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Scratch files the program makes (spill caches, temp dirs) stay in the checkout.
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    # Measure the default serial backend whatever the calling shell selects.
    for name in ("REPRO_BACKEND", "REPRO_KERNEL_WORKERS"):
        os.environ.pop(name, None)
    try:
        result = run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
