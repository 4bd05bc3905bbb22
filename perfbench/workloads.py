"""The benchmark's workloads: seeded inputs, set-up, one timed operation, checks.

Every workload drives the program the way its users do, through the
``repro`` command line: in-process through ``repro.cli.main`` for the four
data-path workloads, and as a fresh ``python -m repro`` process for the
cold-start one.  The sizes are the project's headline workloads: a 500k-row
streamed release, a 500k-row streamed audit, a 1% append to a 500k-row
bundle, a three-party federated release and ``repro --help``.

The program receives only the CSV files generated here from the seed.  All
inputs are 2-decimal measurements drawn from a Gaussian mixture (cluster
data, as in the paper's setting); the released outputs are checked against
facts the benchmark computes on its own:

- the release is an isometry of the z-score normalized input (row norms and
  sampled pairwise distances agree to 1e-9), which is Theorem 2;
- it is not the normalized data itself, and with disjoint pairs every
  attribute meets the security threshold, ``Var(X - X') >= rho``;
- repeated operations write the same bytes, the federated release writes
  the single-party bytes, and an append only extends the published file.

Set-up is what the program does before its operation reaches a steady
state: the commands that create the state the operation reads, then the
first operation on that fresh state, which pays whatever the program defers
to first use (lazy imports, caches, bytecode).  Writing the inputs is the
benchmark's work and is not timed.

Why each workload exists is written on its class; the one-line reasons are
repeated in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: Rows per streamed block for every data-path command (several blocks per file).
CHUNK_ROWS = 65536
#: Pairwise-security threshold rho for every release.
THRESHOLD = 0.3
#: Relative and absolute tolerance of the isometry checks.
TOLERANCE = 1e-9
#: The streaming flag of every data-path command.
STREAMED = ("--chunk-rows", str(CHUNK_ROWS))
#: Rows the benchmark formats at a time when it writes an input.
WRITE_BLOCK = 50_000
#: Seconds a child process may run before it is killed.
CHILD_TIMEOUT = 60


class OperationFailed(Exception):
    """An operation did not complete, or its output failed a check."""


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def generate(seed: int, stream: int, rows: int, width: int) -> np.ndarray:
    """2-decimal values of ``rows`` draws from a 4-cluster Gaussian mixture.

    The mixture is fixed per ``stream``, so every seed asks the same work of
    the program (the exact moment sketches cost more on wider-spread data);
    the seed draws only the rows.
    """
    mixture = np.random.default_rng([stream, width])
    centers = mixture.uniform(20.0, 180.0, size=(4, width))
    spreads = mixture.uniform(2.0, 12.0, size=(4, width))
    rng = np.random.default_rng([seed, stream])
    labels = rng.integers(0, 4, size=rows)
    values = centers[labels] + spreads[labels] * rng.standard_normal((rows, width))
    return np.round(values, 2)


def row_ids(stream: int, start: int, stop: int) -> np.ndarray:
    """The id column of rows ``start`` to ``stop`` of an input stream."""
    return np.array([f"s{stream}r{index:07d}" for index in range(start, stop)])


def column_names(width: int) -> list[str]:
    return [f"a{index}" for index in range(width)]


def write_csv(path: Path, stream: int, values: np.ndarray, start: int = 0) -> None:
    """Write rows ``start..`` of an input stream with the benchmark's own formatter."""
    width = values.shape[1]
    template = f"s{stream}r%07d," + ",".join(["%.2f"] * width) + "\n"
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(",".join(["id", *column_names(width)]) + "\n")
        for first in range(0, len(values), WRITE_BLOCK):
            block = values[first : first + WRITE_BLOCK]
            indices = range(start + first, start + first + len(block))
            handle.write("".join(map(template.__mod__, zip(indices, *block.T.tolist()))))


def read_csv(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(header, ids, values)`` of a matrix CSV with a leading id column."""
    with open(path, encoding="utf-8", newline="") as handle:
        header = handle.readline().rstrip("\r\n").split(",")
    body = {"delimiter": ",", "skiprows": 1, "encoding": "utf-8", "ndmin": 1}
    ids = np.loadtxt(path, usecols=0, dtype=str, **body)
    values = np.loadtxt(path, usecols=range(1, len(header)), **body).reshape(len(ids), -1)
    return header, ids, values


def zscore(values: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
    """Z-score ``values`` with the mean and sample deviation of ``reference``."""
    reference = values if reference is None else reference
    return (values - reference.mean(axis=0)) / reference.std(axis=0, ddof=1)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #
def require(condition: bool, message: str) -> None:
    if not condition:
        raise OperationFailed(message)


def check_release(
    header: list[str],
    ids: np.ndarray,
    released: np.ndarray,
    expected_ids: np.ndarray,
    normalized: np.ndarray,
    *,
    check_threshold: bool,
) -> None:
    """Check a released matrix against the normalized input it came from.

    ``check_threshold`` when the security ranges were solved on exactly these
    rows and the pairs are disjoint, so every attribute must meet rho.
    """
    width = normalized.shape[1]
    require(header == ["id", *column_names(width)], f"unexpected header {header[:8]}")
    require(np.array_equal(ids, expected_ids), "released ids differ from the input ids")
    require(released.shape == normalized.shape, f"released shape {released.shape}")
    require(
        np.allclose(
            np.linalg.norm(released, axis=1),
            np.linalg.norm(normalized, axis=1),
            rtol=TOLERANCE,
            atol=TOLERANCE,
        ),
        "row norms of the release differ from the normalized input",
    )
    rng = np.random.default_rng(0)
    first = rng.integers(0, len(ids), size=2000)
    second = rng.integers(0, len(ids), size=2000)
    require(
        np.allclose(
            np.linalg.norm(released[first] - released[second], axis=1),
            np.linalg.norm(normalized[first] - normalized[second], axis=1),
            rtol=TOLERANCE,
            atol=TOLERANCE,
        ),
        "pairwise distances of the release differ from the normalized input",
    )
    require(
        float(np.abs(released - normalized).mean()) > 0.05,
        "the release is the normalized input",
    )
    if check_threshold:
        variance = np.var(normalized - released, axis=0, ddof=1)
        require(
            bool((variance >= THRESHOLD - 1e-6).all()),
            f"Var(X - X') {variance.round(4).tolist()} below the threshold {THRESHOLD}",
        )


# --------------------------------------------------------------------------- #
# Running the program
# --------------------------------------------------------------------------- #
def cli(*argv: str) -> float:
    """Run one ``repro`` command in this process and return its wall seconds.

    Raises if the command does not exit 0.
    """
    from repro.cli import main

    captured = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    elapsed = time.perf_counter() - started
    if code != 0:
        tail = captured.getvalue().strip().splitlines()[-3:]
        raise OperationFailed(f"repro {argv[0]} exited {code}: {' | '.join(tail)}")
    return elapsed


class Workload:
    """One workload: its inputs, set-up, the timed operation, and its checks.

    ``prepare`` writes the inputs once, untimed.  ``setup`` runs several
    times, each in a fresh directory, and returns the seconds its program
    commands took; the benchmark adds the first operation that follows.  The
    last set-up is the one operated on.  ``reset`` runs untimed before every
    operation, ``check`` untimed after it, ``verify`` once at the end.
    """

    #: Whether the operation runs in the benchmark's process (else a child).
    in_process = True

    def __init__(self, seed: int, src: Path, inputs: Path) -> None:
        self.seed = seed
        self.src = src
        self.inputs = inputs
        self.directory: Path | None = None
        self.first_digest: str | None = None
        #: The release policy flags of every command that plans rotations.
        self.policy = ("--threshold", str(THRESHOLD), "--seed", str(seed))

    def path(self, name: str) -> str:
        """A file of the current set-up, as a command-line argument."""
        return str(self.directory / name)

    def input(self, name: str) -> str:
        """An input file, as a command-line argument."""
        return str(self.inputs / name)

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, directory: Path) -> float:
        """Run the program commands the operation depends on; return their seconds."""
        self.directory = directory
        return 0.0

    def reset(self) -> None:
        """Bring the set-up state back before an operation (untimed).

        Each operation writes a new file, as a user's run does; publishing
        over the previous run's output would time that file's deletion too.
        """
        self.output().unlink(missing_ok=True)

    def operation(self, trace_file: Path | None = None) -> None:
        raise NotImplementedError

    def op_seconds(self, wall_seconds: float) -> float:
        """The time charged to the operation that just ran, given its wall time."""
        return wall_seconds

    def output(self) -> Path:
        """The file an operation produces."""
        raise NotImplementedError

    def check(self) -> None:
        """Every operation must write the same bytes as the first one."""
        digest = sha256(self.output())
        if self.first_digest is None:
            self.first_digest = digest
        require(digest == self.first_digest, f"{self.output().name} changed between runs")

    def verify(self) -> None:
        raise NotImplementedError


class Release(Workload):
    """The headline streamed release: ``repro transform`` of 500k rows x 4.

    Eight blocks through the stats, moment and transform passes, with the
    decoded-chunk spill replaying the later two.  Exercises decode, moments,
    plan, transform and encode together.  Its set-up is the first release.
    """

    STREAM, ROWS, WIDTH = 1, 500_000, 4

    def values(self) -> np.ndarray:
        return generate(self.seed, self.STREAM, self.ROWS, self.WIDTH)

    def prepare(self) -> None:
        write_csv(self.inputs / "input.csv", self.STREAM, self.values())

    def output(self) -> Path:
        return self.directory / "released.csv"

    def operation(self, trace_file: Path | None = None) -> None:
        cli("transform", self.input("input.csv"), str(self.output()), *self.policy, *STREAMED)

    def verify(self) -> None:
        header, ids, released = read_csv(self.output())
        expected_ids = row_ids(self.STREAM, 0, self.ROWS)
        normalized = zscore(self.values())
        check_release(header, ids, released, expected_ids, normalized, check_threshold=True)


class Audit(Workload):
    """The owner's streamed audit of a 500k x 4 release under the full threat model.

    Every pass decodes the released and the original CSV (no spill cache),
    the attacks plan in moment space and score in one more pass; nothing is
    written but the report.  Decode-bound, unlike Release.  Set-up releases
    the input with its secret and inverts the release to get the owner's
    normalized original.
    """

    STREAM, ROWS, WIDTH = 2, 500_000, 4

    def values(self) -> np.ndarray:
        return generate(self.seed, self.STREAM, self.ROWS, self.WIDTH)

    def prepare(self) -> None:
        write_csv(self.inputs / "input.csv", self.STREAM, self.values())

    def setup(self, directory: Path) -> float:
        super().setup(directory)
        released, secret = self.path("released.csv"), ("--secret", self.path("secret.json"))
        seconds = cli(
            "transform", self.input("input.csv"), released, *self.policy, *secret, *STREAMED
        )
        # The owner's normalized original is the inverted release.
        return seconds + cli("invert", released, self.path("original.csv"), *secret, *STREAMED)

    def output(self) -> Path:
        return self.directory / "audit" / "full_audit.json"

    def reset(self) -> None:
        shutil.rmtree(self.output().parent, ignore_errors=True)  # both reports

    def operation(self, trace_file: Path | None = None) -> None:
        cli(
            "audit",
            self.path("released.csv"),
            "--original",
            self.path("original.csv"),
            "--threat-model",
            "full",
            "--no-cache",
            "--quiet",
            "--output-dir",
            str(self.output().parent),
            *STREAMED,
        )

    def verify(self) -> None:
        header, ids, released = read_csv(self.directory / "released.csv")
        expected_ids = row_ids(self.STREAM, 0, self.ROWS)
        normalized = zscore(self.values())
        check_release(header, ids, released, expected_ids, normalized, check_threshold=True)
        with open(self.output(), encoding="utf-8") as handle:
            report = json.load(handle)
        require(report["n_objects"] == self.ROWS, f"audited {report['n_objects']} rows")
        require(len(report["attacks"]) == 4, f"{len(report['attacks'])} attacks ran, not 4")
        expected = float(np.var(normalized - released, axis=0, ddof=1).min())
        reported = float(report["verdicts"]["min_variance_difference"])
        require(
            abs(reported - expected) <= 1e-6 * max(1.0, abs(expected)),
            f"audit reports min Var(X - X') {reported}, the release has {expected}",
        )
        require(report["verdicts"]["privacy_satisfied"] is True, "audit finds privacy unmet")


class Append(Workload):
    """A 1% append: 5k rows onto a versioned bundle holding 500k rows.

    The delta is tiny, so the cost is what the bundle does around it:
    verifying and hashing the history, copying the published file, writing
    sketches and the manifest.  The codec barely matters here.  Set-up
    creates the bundle (``release --init``).
    """

    STREAM, ROWS, DELTA, WIDTH = 3, 500_000, 5_000, 4

    def values(self) -> np.ndarray:
        return generate(self.seed, self.STREAM, self.ROWS + self.DELTA, self.WIDTH)

    def prepare(self) -> None:
        values = self.values()
        write_csv(self.inputs / "base.csv", self.STREAM, values[: self.ROWS])
        write_csv(self.inputs / "delta.csv", self.STREAM, values[self.ROWS :], start=self.ROWS)

    def setup(self, directory: Path) -> float:
        super().setup(directory)
        initial = ("--init", self.input("base.csv"))
        seconds = cli("release", self.path("pristine"), *initial, *self.policy, *STREAMED)
        self.pristine = self._stat_files(directory / "pristine")
        return seconds

    @staticmethod
    def _released_path(bundle: Path) -> Path:
        from repro.pipeline.versioned import open_release

        return Path(open_release(bundle).released_path)

    @staticmethod
    def _stat_files(directory: Path) -> dict:
        return {
            path.name: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in sorted(directory.iterdir())
        }

    def reset(self) -> None:
        # Hard links restore version 1 without writing 40 MB per operation
        # (that write-back would disturb the timings); the bundle publishes
        # by atomic replace, and check() proves the linked files untouched.
        bundle = self.directory / "bundle"
        shutil.rmtree(bundle, ignore_errors=True)
        shutil.copytree(self.directory / "pristine", bundle, copy_function=os.link)

    def output(self) -> Path:
        return self._released_path(self.directory / "bundle")

    def check(self) -> None:
        super().check()
        require(
            self._stat_files(self.directory / "pristine") == self.pristine,
            "the append modified version 1 in place",
        )

    def operation(self, trace_file: Path | None = None) -> None:
        append = ("--append", self.input("delta.csv"), "--expect-version", "1")
        cli("release", self.path("bundle"), *append, *STREAMED)

    def verify(self) -> None:
        cli("release", self.path("bundle"))  # verifies the artifacts
        tail_path = self.directory / "appended.csv"
        with (
            open(self._released_path(self.directory / "pristine"), "rb") as base,
            open(self.output(), "rb") as published,
            open(tail_path, "wb") as tail,
        ):
            tail.write(base.readline())
            base.seek(0)
            for block in iter(lambda: base.read(1 << 20), b""):
                require(published.read(len(block)) == block, "the append rewrote published rows")
            shutil.copyfileobj(published, tail)
        header, ids, appended = read_csv(tail_path)
        values = self.values()
        # The frozen ranges were solved on the base rows, not on the delta.
        normalized = zscore(values[self.ROWS :], reference=values[: self.ROWS])
        expected_ids = row_ids(self.STREAM, self.ROWS, self.ROWS + self.DELTA)
        check_release(header, ids, appended, expected_ids, normalized, check_threshold=False)


class Federated(Workload):
    """Three parties release the union of their shards (3 x 40k rows, 5 attributes).

    Each party re-parses its shard on every pass (no spill cache) and the
    sketches travel through the masked secure sum; the odd width chains a
    pair onto a rotated column, which adds one planning round.  Set-up
    releases the union as one owner: the bytes the protocol must reproduce.
    """

    PARTIES, ROWS, WIDTH = 3, 40_000, 5
    #: Input stream of party 0; party ``p`` draws stream ``FIRST_STREAM + p``.
    FIRST_STREAM = 10

    def shard(self, party: int) -> np.ndarray:
        return generate(self.seed, self.FIRST_STREAM + party, self.ROWS, self.WIDTH)

    def prepare(self) -> None:
        with open(self.inputs / "union.csv", "wb") as union:
            for party in range(self.PARTIES):
                path = self.inputs / f"party{party}.csv"
                write_csv(path, self.FIRST_STREAM + party, self.shard(party))
                with open(path, "rb") as shard:
                    header = shard.readline()
                    if not party:
                        union.write(header)
                    shutil.copyfileobj(shard, union)

    def setup(self, directory: Path) -> float:
        super().setup(directory)
        reference = self.path("reference.csv")
        seconds = cli("transform", self.input("union.csv"), reference, *self.policy, *STREAMED)
        self.first_digest = sha256(directory / "reference.csv")
        return seconds

    def output(self) -> Path:
        return self.directory / "released.csv"

    def operation(self, trace_file: Path | None = None) -> None:
        shards = [self.input(f"party{party}.csv") for party in range(self.PARTIES)]
        protocol = ("--protocol-seed", str(self.seed + 1))
        cli("distributed", *shards, str(self.output()), *self.policy, *protocol, *STREAMED)

    def verify(self) -> None:
        header, ids, released = read_csv(self.output())
        streams = [self.FIRST_STREAM + party for party in range(self.PARTIES)]
        expected_ids = np.concatenate([row_ids(stream, 0, self.ROWS) for stream in streams])
        normalized = zscore(np.vstack([self.shard(party) for party in range(self.PARTIES)]))
        check_release(header, ids, released, expected_ids, normalized, check_threshold=False)


class CliStart(Workload):
    """``python -m repro --help`` in a fresh interpreter, per operation.

    Interpreter start and the program's imports are all there is, and no
    chunk work amortizes them: the cost every one-shot command pays.  Each
    set-up copies the program's source to a fresh directory (untimed); the
    first start from there byte-compiles every module the command imports,
    as the first run after a source install does.  The operations then start
    from that bytecode cache.

    The time charged to a start is the child's CPU time (user + system), not
    its wall time: a start is CPU-bound once its files are cached, and its
    wall time swings with the load of a shared host.
    """

    in_process = False
    #: Subcommands the help must list.
    COMMANDS = ("transform", "invert", "audit", "release", "distributed")

    def __init__(self, seed: int, src: Path, inputs: Path) -> None:
        super().__init__(seed, src, inputs)
        #: ``(cpu_seconds, peak_rss_bytes)`` of each child, in order.
        self.usage: list[tuple[float, int]] = []

    def prepare(self) -> None:
        pass  # the help reads no input

    def setup(self, directory: Path) -> float:
        super().setup(directory)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(self.src / "repro", directory / "src" / "repro", ignore=ignore)
        return 0.0

    def output(self) -> Path:
        return self.directory / "help.txt"

    def operation(self, trace_file: Path | None = None) -> None:
        if trace_file is None:
            command = [sys.executable, "-m", "repro", "--help"]
        else:
            child = Path(__file__).with_name("cli_child.py")
            command = [sys.executable, str(child), str(trace_file), "--", "--help"]
        # A fixed width keeps the help's bytes the same from run to run.
        environment = dict(os.environ, PYTHONPATH=str(self.directory / "src"), COLUMNS="100")
        # Bytecode is cached beside the copy, whatever the caller's shell says,
        # so that only the set-up's first start compiles.
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            environment.pop(name, None)
        errors = self.directory / "stderr.txt"
        with open(self.output(), "wb") as stdout, open(errors, "wb") as stderr:
            process = subprocess.Popen(
                command, cwd=self.directory, env=environment, stdout=stdout, stderr=stderr
            )
            watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        self.usage.append((usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024))
        if process.returncode != 0:
            tail = errors.read_text(errors="replace").strip().splitlines()[-3:]
            raise OperationFailed(f"repro exited {process.returncode}: {' | '.join(tail)}")

    def op_seconds(self, wall_seconds: float) -> float:
        return self.usage[-1][0]

    def verify(self) -> None:
        text = self.output().read_text(encoding="utf-8")
        require(text.startswith("usage:"), "the help does not start with a usage line")
        missing = [name for name in self.COMMANDS if name not in text]
        require(not missing, f"the help does not list {missing}")


WORKLOADS = {
    "release": Release,
    "audit": Audit,
    "append": Append,
    "federated": Federated,
    "cli_start": CliStart,
}
