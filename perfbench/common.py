"""Shared machinery of the benchmark: children, timing statistics, spans.

Every workload is driven from outside the package.  The parent process
(``run.py``) spawns *children*: fresh interpreters that import
``repro`` from the checkout's ``src/`` directory, report when they are
ready (that instant, measured against the parent's spawn instant, is
``setup_s``), run a fixed list of *units* and print one JSON record
per line on stdout.  Host times are built from repeatable units, each
run several times in one run of the benchmark; README.md says which
statistic of the repeats each metric keeps and why.

The paper's reference numbers and the cells they are compared on live
here too, shared by every workload.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN = HERE / "run.py"
#: Scratch space for result caches and trace files; removed after use.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: How long one child may live before it is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: Problem scale of every simulated cell: large enough that clustering
#: pays on NN/Kepler, small enough for several cold passes per run.
SCALE = 0.2
#: The paper's algorithm-group CLU+TOT geomean speedups over BSL
#: (EXPERIMENTS.md: Kepler 1.48x, Maxwell 1.45x).
PAPER_SPEEDUP = {"Tesla K40": 1.48, "GTX980": 1.45}
#: The algorithm-group workloads: the paper's clustering wins.
ALGORITHM_GROUP = ("NN", "KMN")
#: The algorithm-group (workload, platform) cells of the warm workloads.
ALGORITHM_PAIRS = (("NN", "Tesla K40"), ("KMN", "GTX980"))


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child failure)."""


def require_program() -> None:
    """Fail fast when the checkout holds no ``repro`` package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run the "
                         f"benchmark from the root of a full checkout")


def import_repro() -> None:
    """Make ``src/`` importable in this process."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh, empty directory inside the checkout, removed on exit."""
    path = TMP_ROOT / f"{tag}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only succeeds once every run is done


def child_env(tmp: Path) -> dict:
    """Environment for a child: the checkout's sources, a private result
    cache root, fixed hashing and the default simulation cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    for name in ("REPRO_BACKEND", "REPRO_FAST_MODEL"):
        env.pop(name, None)
    return env


class Zygote:
    """A child that sets up once, then runs commands sent on its stdin
    (or, traced, the units its spec names).

    Construction waits until the child is ready, so children spawned
    one after another each set up alone; ``setup_s`` is spawn to ready.
    Each command is one JSON line; the child answers with records and a
    ``{"done": ...}`` line.  A child still alive ``CHILD_TIMEOUT_S``
    after its spawn is killed, which fails the read waiting on it.
    """

    def __init__(self, role: str, spec: dict, tmp: Path):
        command = [sys.executable, str(RUN), "--child", role,
                   "--spec", json.dumps(spec)]
        self.role = role
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=str(ROOT),
                                     env=child_env(tmp),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            self.setup_s = self._read()["ready"] - started
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"child {self.role} exited with "
                                 f"{self.proc.wait()}")
            if line.startswith("{"):
                return json.loads(line)

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def results(self) -> "tuple[list[dict], dict]":
        """The records answering the last command, and its done line."""
        records = []
        while True:
            record = self._read()
            if "done" in record:
                return records, record
            records.append(record)

    def close(self) -> None:
        """End the child (EOF on its stdin) and wait for it."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.wait()
        self._watchdog.cancel()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._watchdog.cancel()


# ----------------------------------------------------------------------
# child-side helpers
# ----------------------------------------------------------------------

def emit(record: dict) -> None:
    """Write one record line to the parent."""
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def forked(fn, *args):
    """Run ``fn(*args)`` in a forked copy of this process; returns its
    JSON-able result.

    Every call starts from the same process state, so nothing one call
    leaves behind (built kernels, compiled access streams, memoized
    floors) speeds up the next, whatever the order of the calls.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(fn(*args))
        except BaseException as exc:  # reported to the parent below
            payload, code = json.dumps({"error": repr(exc)}), 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise BenchError(f"forked unit failed: {payload[-500:]}")
    return json.loads(payload)


def fingerprint(value) -> str:
    """Short stable digest of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(samples, want: float = 0.99) -> "tuple[float, float]":
    """The ``want`` percentile, or the highest one the sample supports.

    A percentile is supported when at least ten samples lie beyond it;
    with fewer than ten samples in all, the maximum is returned.
    Returns ``(value, percentile_used)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0
    q = min(want, (n - 10) / n)
    return ordered[math.ceil(q * n) - 1], q


def paper_metrics(cycles_by_pair: dict) -> dict:
    """``sim_speedup`` and ``paper_gap`` from
    ``{(workload, platform): (BSL cycles, CLU+TOT cycles)}``.

    ``sim_speedup`` is the geomean BSL / CLU+TOT cycle ratio over the
    cells; ``paper_gap`` is its distance from the geomean of the
    paper's speedups on the same platforms.
    """
    pairs = sorted(cycles_by_pair)
    sim_speedup = geomean(bsl / tot for bsl, tot in
                          (cycles_by_pair[p] for p in pairs))
    paper = geomean(PAPER_SPEEDUP[gpu] for _, gpu in pairs)
    return {"sim_speedup": sim_speedup,
            "paper_gap": abs(sim_speedup / paper - 1.0)}


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


#: Host time of one ``reference_ms`` call on the reference box (2 cores
#: of a shared host), as ``box_factor`` averages it: 4.5-6.5 ms over 16
#: runs of the batch workloads, median 5.5.  It only sets the scale of
#: reference-box time.
REFERENCE_MS = 5.5
#: A fixed document for the reference workload.
_REFERENCE_DOC = [{"k": i, "v": [j * 0.5 for j in range(20)],
                   "s": "x" * (i % 17)} for i in range(300)]


def reference_ms() -> float:
    """Host time of one fixed reference workload, in ms.

    A JSON round trip, a sort and a regex scan over a fixed document:
    pure-Python and stdlib work of the same kind as the program's, but
    none of the program's code, so no change to the program moves it.
    The collector is off while it runs, so the caller's heap size does
    not matter.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        blob = json.dumps(_REFERENCE_DOC)
        doc = json.loads(blob)
        sorted(doc, key=lambda d: (d["s"], -d["k"]))
        len(re.findall(r"(\d+)\.(\d+)", blob))
        return (time.perf_counter() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


def reference_samples(count: int) -> "list[float]":
    """``count`` timed reference calls after one untimed warm-up call
    (the first call after a fork pays for copying the pages it
    touches)."""
    reference_ms()
    return [reference_ms() for _ in range(count)]


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left after dropping ``cut`` of them at each
    end."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def box_factor(samples) -> float:
    """Scale from this run's host time to reference-box time.

    The shared box runs all code slower or faster by the same share,
    in spells that come and go within milliseconds and whose share of
    the time drifts over minutes.  The reference workload, timed beside
    the units throughout a run, meets the same spells; multiplying a
    host time by ``REFERENCE_MS`` over the reference's trimmed mean
    takes the drift out.  A mean follows the share of slow spells
    smoothly (a median jumps between the fast and the slow mode), and
    the trim drops one-off stalls.
    """
    return REFERENCE_MS / trimmed_mean(samples)


def noise_probe(seconds: float = 1.0) -> dict:
    """Time a fixed pure-Python loop back to back: the box's own noise.

    Reports the minimum and median of the repeats (ms) and their
    ratio; a ratio well above 1 means other tenants are busy.
    """
    def loop():
        total = 0
        for i in range(60_000):
            total += i * i % 7
        return total

    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return {"min_ms": round(min(times), 3),
            "median_ms": round(statistics.median(times), 3),
            "median_over_min": round(statistics.median(times) / min(times), 3),
            "repeats": len(times)}


# ----------------------------------------------------------------------
# spans (the traced run)
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced run.

    Each span has a name, start, end and the id of the span that was
    open when it started (its parent).  The benchmark opens spans only
    in its own files, around each call it makes into a layer of the
    program; spans inside the program are not recorded.  A layer is
    the span name's prefix before the first dot.
    """

    def __init__(self):
        self.records: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished top-level span timed elsewhere (another
        thread or a forked unit; ``perf_counter`` is system-wide)."""
        self.records.append(dict(attrs, id=len(self.records), name=name,
                                 parent=None, start=start, end=end))

    def extend(self, records: "list[dict]") -> None:
        """Adopt span records made by another recorder (a forked unit),
        renumbering their ids and parents after this one's."""
        offset = len(self.records)
        for r in records:
            self.records.append(dict(
                r, id=r["id"] + offset,
                parent=None if r["parent"] is None else r["parent"] + offset))

    def total(self, name: str) -> float:
        """Summed duration of every span with this exact name."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.records))


def span_cost_s(repeats: int = 5, spans: int = 2000) -> float:
    """Host cost of opening and closing one empty span (fastest of
    ``repeats`` batches); times the traced run's span count, it is the
    tracing overhead."""
    best = float("inf")
    for _ in range(repeats):
        probe = Spans()
        started = time.perf_counter()
        for _ in range(spans):
            with probe.span("probe"):
                pass
        best = min(best, (time.perf_counter() - started) / spans)
    return best


def self_times(records: "list[dict]") -> "dict[str, float]":
    """Per-layer self time: each span's duration minus the part of it
    its child spans cover, summed by layer (name prefix)."""
    child_time: "dict[int, float]" = {}
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) \
                + (r["end"] - r["start"])
    layers: "dict[str, float]" = {}
    for r in records:
        own = (r["end"] - r["start"]) - child_time.get(r["id"], 0.0)
        layer = r["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def format_self_times(layers: "dict[str, float]") -> str:
    total = sum(layers.values()) or 1.0
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {seconds:>9.4f} {seconds / total:>7.1%}")
    return "\n".join(lines)


def zero_layers() -> "dict[str, float]":
    """Every per-layer metric of BENCHMARK.json at 0: a layer the
    workload does not call reads 0."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: 0.0 for m in contract["per_layer"]}
