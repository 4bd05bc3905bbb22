"""Outside-in per-layer trace of the release system.

The benchmark does not instrument the program.  When tracing is on it wraps,
from its own files, the functions and methods that form the boundaries
between the program's layers (``TARGETS`` below) and records a span around
every call into them.  When tracing is off nothing is wrapped, so the
end-to-end figures carry no tracing cost.

Spans nest: a layer's *self* time is its span's duration minus the part its
child spans cover, so the self times of one operation add up to its wall
time and whatever no layer claims is reported as ``other``.  Counters are
taken at the same boundaries.

A boundary the program no longer has is skipped, not an error: its time
then shows up in its caller's layer (or in ``other``), and the benchmark
names it on stderr so the table can be brought up to date.

Importing this module imports nothing from the program.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types
from pathlib import Path

#: Layers with a self-time metric, in report order.  ``import`` is measured
#: by the benchmark around the program's import, the rest through TARGETS.
TIME_LAYERS = ("import", "decode", "transform", "moments", "plan", "encode", "store")

#: Counters the hooks below maintain, in report order.
COUNTERS = (
    "csv_parses",
    "spill_replays",
    "rows_decoded",
    "moment_rows",
    "rows_encoded",
    "codec_fallbacks",
    "bytes_hashed",
    "bytes_copied",
    "wire_values",
)


class Trace:
    """Span self-times per layer plus counters, for one process."""

    def __init__(self) -> None:
        self.self_seconds = dict.fromkeys(TIME_LAYERS + ("other",), 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # Spans nest per thread; the program runs its layers on the calling
        # thread unless it is asked to pipeline, which the workloads do not.
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        self._stack().append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        layer, started, covered = stack.pop()
        elapsed = time.perf_counter() - started
        self.self_seconds[layer] += elapsed - covered
        if stack:
            stack[-1][2] += elapsed

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.self_seconds), dict(self.counts)


def delta(before: tuple[dict, dict], after: tuple[dict, dict]) -> tuple[dict, dict]:
    """Per-layer seconds and counts accumulated between two snapshots."""
    seconds = {layer: after[0][layer] - before[0][layer] for layer in after[0]}
    counts = {name: after[1][name] - before[1][name] for name in after[1]}
    return seconds, counts


class _TimedIterator:
    """Iterator whose every ``next`` runs inside a span of ``layer``."""

    __slots__ = ("_trace", "_layer", "_iterator", "_on_item")

    def __init__(self, trace: Trace, layer: str, iterator, on_item) -> None:
        self._trace = trace
        self._layer = layer
        self._iterator = iterator
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        self._trace.enter(self._layer)
        try:
            item = next(self._iterator)
        finally:
            self._trace.exit()
        if self._on_item is not None:
            self._on_item(self._trace.counts, item)
        return item

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


# --------------------------------------------------------------------------- #
# Counter hooks: (counts, args, kwargs) on call, (counts, item) per item.
# --------------------------------------------------------------------------- #
def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    return int(shape[0]) if shape else 0


def _file_size(path) -> int:
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0  # the program reports the missing file itself


def _calls(counter: str):
    """A hook counting the calls into a boundary."""

    def hook(counts, args, kwargs) -> None:
        counts[counter] += 1

    return hook


def _count_chunk_rows(counts, item) -> None:
    counts["rows_decoded"] += _rows(getattr(item, "values", None))


def _count_moment_rows(counts, args, kwargs) -> None:
    counts["moment_rows"] += _rows(args[1] if len(args) > 1 else kwargs.get("chunk"))


def _count_encoded_rows(counts, args, kwargs) -> None:
    counts["rows_encoded"] += _rows(args[1] if len(args) > 1 else kwargs.get("values"))


def _count_hashed_file(counts, args, kwargs) -> None:
    counts["bytes_hashed"] += _file_size(args[0] if args else kwargs.get("path"))


def _count_copied_history(counts, args, kwargs) -> None:
    counts["bytes_copied"] += _file_size(kwargs.get("append_from"))


def _count_wire_values(counts, args, kwargs) -> None:
    counts["wire_values"] += int(args[3] if len(args) > 3 else kwargs.get("n_values", 0))


#: The layer boundaries: (module, attribute, layer, call hook, item hook).
#: ``layer`` None counts without a span (the call sits inside a traced one).
TARGETS = (
    # decode: CSV parse (either codec lane), the decoded-chunk spill, and
    # reading persisted bundle state.
    ("repro.data.io", "read_matrix_csv_header", "decode", None, None),
    ("repro.data.io", "iter_matrix_csv", "decode", _calls("csv_parses"), _count_chunk_rows),
    ("repro.perf.csv_codec", "DecodedChunkCache.tee", "decode", None, None),
    ("repro.perf.csv_codec", "DecodedChunkCache.replay", "decode", _calls("spill_replays"), None),
    ("repro.perf.csv_codec", "_python_tail", None, _calls("codec_fallbacks"), None),
    ("repro.pipeline.bundle_format", "load_manifest", "decode", None, None),
    ("repro.pipeline.versioned", "VersionedReleaseBundle._load_sketches", "decode", None, None),
    ("repro.perf.streaming", "state_from_jsonable", "decode", None, None),
    # transform: the per-row maps — normalization, rotations, and the
    # auditor's candidate reconstructions.
    ("repro.preprocessing.normalization", "Normalizer.transform", "transform", None, None),
    ("repro.pipeline.streaming", "apply_decided_rotations", "transform", None, None),
    ("repro.core.rotation", "rotate_pair", "transform", None, None),
    ("repro.core.secrets", "RBTSecret.apply_to_block", "transform", None, None),
    ("repro.attacks.streamed", "LinearReconstruction.apply", "transform", None, None),
    # moments: sketch accumulation, merging (incl. the secure sum) and drains.
    ("repro.preprocessing.normalization", "Normalizer.fit", "moments", None, None),
    ("repro.preprocessing.normalization", "Normalizer.fit_stream", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.update", "moments", _count_moment_rows, None),
    ("repro.perf.streaming", "StreamingMoments.merge", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments._merge_state", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.state", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.from_state", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.means", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.variances", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.covariance", "moments", None, None),
    ("repro.perf.streaming", "StreamingMoments.pair_moments", "moments", None, None),
    ("repro.perf.analytic", "pair_moments", "moments", None, None),
    ("repro.metrics.privacy", "perturbation_variance", "moments", None, None),
    ("repro.distributed.federated", "SecureSketchSum.aggregate_states", "moments", None, None),
    ("repro.distributed.parties", "CommunicationLedger.record", None, _count_wire_values, None),
    # plan: pair selection, security-range solve and angle draw, loading a
    # frozen plan, and the auditor's attack planning.
    ("repro.pipeline.streaming", "plan_rotations", "plan", None, None),
    ("repro.core.rbt", "RBT.transform", "plan", None, None),
    ("repro.pipeline.bundle_format", "plan_from_payload", "plan", None, None),
    ("repro.pipeline.bundle_format", "normalizer_from_payload", "plan", None, None),
    ("repro.attacks.streamed", "plan_attack", "plan", None, None),
    ("repro.attacks.streamed", "plan_known_sample", "plan", None, None),
    # encode: serializing results — released rows, sketch states, reports.
    ("repro.data.io", "MatrixCsvWriter.write_rows", "encode", _count_encoded_rows, None),
    ("repro.perf.csv_codec", "encode_block_via_csv_writer", None, _calls("codec_fallbacks"), None),
    ("repro.perf.streaming", "state_to_jsonable", "encode", None, None),
    ("repro.pipeline.audit", "AuditReport.to_json", "encode", None, None),
    ("repro.pipeline.audit", "AuditReport.to_markdown", "encode", None, None),
    # store: durable-storage bookkeeping — staging and atomically publishing
    # files, copying history, content hashing, manifest writes.
    ("repro.data.io", "MatrixCsvWriter.__init__", "store", _count_copied_history, None),
    ("repro.data.io", "MatrixCsvWriter.close", "store", None, None),
    ("repro.data.io", "atomic_write_text", "store", None, None),
    ("repro.pipeline.bundle_format", "file_sha256", "store", _count_hashed_file, None),
    ("repro.pipeline.bundle_format", "write_json_atomic", "store", None, None),
    ("repro.pipeline.audit", "_file_fingerprint", "store", _count_hashed_file, None),
    ("repro.core.secrets", "RBTSecret.save", "store", None, None),
)


def _wrap(trace: Trace, function, layer, on_call, on_item):
    counts = trace.counts

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(counts, args, kwargs)
        if layer is None:
            return function(*args, **kwargs)
        trace.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            trace.exit()
        if isinstance(result, types.GeneratorType):
            # Work in a generator happens when it is advanced, not called.
            return _TimedIterator(trace, layer, result, on_item)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every program-module global bound to ``original`` at ``replacement``.

    Functions are imported by name across the program, so each importer
    holds its own reference.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)


def _has_source(module_name: str) -> bool:
    """Whether the program still ships ``module_name``, found without importing it."""
    package = Path(sys.modules["repro"].__file__).parent
    base = package.joinpath(*module_name.split(".")[1:])
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def install(trace: Trace) -> list[str]:
    """Wrap the boundaries in TARGETS of the modules the program has loaded.

    Call it once the workload's commands have run at least once, so that
    every module they use is loaded.  It imports nothing: a module no
    command loaded has no calls to trace, and importing it would add to the
    process's imports.  Returns the boundaries the program no longer has.
    """
    missing = []
    for module_name, path, layer, on_call, on_item in TARGETS:
        label = f"{module_name}.{path}"
        module = sys.modules.get(module_name)
        if module is None:
            if not _has_source(module_name):
                missing.append(label)
            continue
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else vars(owner).get(attribute)
            if raw is None:
                missing.append(label)
                continue
            if isinstance(raw, classmethod | staticmethod):
                replacement = type(raw)(_wrap(trace, raw.__func__, layer, on_call, on_item))
            else:
                replacement = _wrap(trace, raw, layer, on_call, on_item)
            setattr(owner, attribute, replacement)
        else:
            original = getattr(module, attribute, None)
            if not callable(original):
                missing.append(label)
                continue
            _rebind(original, _wrap(trace, original, layer, on_call, on_item))
    return missing
