"""serve-mix: the simulation service under an open-loop request mix.

The service runs as ``python -m repro.service --workers 1`` with a
fresh, private result-cache root.  One load-generator process with
``CONNECTIONS`` (= the two cores of the reference box) keep-alive
connections sends a seeded mix:

* mostly repeated ``simulate`` keys -- cache reads;
* a fixed share of fresh ``simulate`` keys -- execution plus a cache
  store, i.e. writes;
* ``estimate`` and ``bound`` requests -- the inline, pool-free lanes;
* a small share of malformed payloads, which must come back as a
  structured 4xx, never a 500.

Every phase carries each request kind in its exact share; the seed
picks the keys and their order.  Phases, in order: a closed-loop burst
of ``BURST_REQUESTS`` requests as fast as the connections go
(``wall_s``, repeated and the fastest kept); the ``LOW_RPS`` and
``HIGH_RPS`` open loops, interleaved in windows so both meet the same
box noise (p50 is the lowest window median, p99 is over all windows'
samples); and the fixed rate ladder.  Open-loop requests are timed
from their due time, so a stall counts against every request it
delays; the generator's own lateness is reported as
``loadgen.late_ms``.  Rates, the ladder, the SLO and the mix shares are
constants, never adapted to the run; each one's basis (a measured
figure of the reference box or the lane it must exercise) is given
beside it and in README.md.

After every burst, window and rung attempt, with the service idle, the
load generator times ``REFERENCE_CALLS`` calls of the fixed reference
workload; ``wall_s``, ``sim_accesses_per_s`` and the latencies are
scaled to reference-box time by :func:`common.box_factor` of those
times.  ``setup_s`` and ``max_rps_in_slo`` (a pass or a fail on a fixed
ladder) stay in host terms.

Served ``simulate`` results are checked, after the timed phases,
against in-process ``repro.simulate``; served bounds against
``repro.bound``.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
from common import ALGORITHM_PAIRS, SCALE, median, tail_percentile

CONNECTIONS = 2
SETUP_REPEATS = 3
BURST_REQUESTS = 600
BURSTS = 4
#: Closed-loop capacity of the service under this mix, measured by the
#: burst phase on the reference box (2 cores, ``CONNECTIONS``
#: connections): 610-850 req/s over 25 runs, median 687.  The offered
#: rates and the ladder are fixed fractions of 680.
REFERENCE_CAPACITY_RPS = 680
#: Light load, 15% of capacity: the event loop and the pool worker are
#: mostly idle, so p50 is the bare per-request cost and p99 the slowest
#: lane (a fresh-key execution and store) with little queueing.
LOW_RPS = round(0.15 * REFERENCE_CAPACITY_RPS)
#: 30% of capacity: requests queue behind executions now and then, so
#: p99 shows queueing.  It is the highest load whose p99 held steady on
#: the reference box: at 50% of capacity the p99 of 1125 samples spread
#: 0.47 (interquartile range over median) across five runs.
HIGH_RPS = round(0.3 * REFERENCE_CAPACITY_RPS)
#: The rate ladder, ascending in 10% steps from 80% to 171% of capacity,
#: so the knee lies well inside it.  Every attempt at a rung sends
#: ``LADDER_SAMPLES`` requests and is judged on all of them together:
#: with 1000 samples, p99 has ten samples beyond it.  A rung gets
#: ``RUNG_ATTEMPTS`` attempts, so one stall of the shared box (its speed
#: swings by up to 40% within seconds) does not end the climb; the climb
#: stops at the first rung that misses the SLO on every attempt.
LADDER = tuple(round(0.8 * REFERENCE_CAPACITY_RPS * 1.1 ** i)
               for i in range(9))
LADDER_SAMPLES = 1000
RUNG_ATTEMPTS = 2
#: Latency limit on a rung's p99 (ms, from due time): about five times
#: the p99 at ``HIGH_RPS`` (46 ms, median of ten runs), so a rung
#: fails from a growing backlog -- the service's throughput limit --
#: and not from the tail of a few executions colliding (at 100 ms, rungs
#: at 60% of capacity already failed on that tail).
SLO_MS = 250.0
#: Interleaved low/high windows; each rate gets this many windows.
WINDOWS = 10
#: Share of the run's seconds given to the low/high phase; it is split
#: so both rates get the same number of samples (1420 at 30 s, so p99
#: has 14 samples beyond it).  With 0.55 (1120 samples, ten beyond p99)
#: the p99 at either rate spread up to 0.24 over ten runs while the
#: box's speed held steady: the tail comes in clumps, so it needs many
#: samples.  A larger share would make a run longer than the time the
#: benchmark's runs together may take allows.
OPEN_LOOP_SHARE = 0.7
#: Reference calls timed in the load generator after each phase step
#: (burst, window or rung attempt), while the service is idle.
REFERENCE_CALLS = 2

#: Repeated simulate keys: BSL and CLU+TOT on the algorithm pairs,
#: which also give sim_speedup.
HOT_KEYS = tuple({"workload": w, "gpu": g, "scheme": s, "scale": SCALE}
                 for w, g in ALGORITHM_PAIRS for s in ("BSL", "CLU+TOT"))
#: Fresh keys: cheap configurations, made unique by their seed.
FRESH_SHAPES = ({"workload": "NN", "gpu": "GTX980", "scale": 0.05},
                {"workload": "NN", "gpu": "Tesla K40", "scale": 0.05})
ESTIMATE_SHAPE = {"workload": "ATX", "gpu": "GTX980", "scheme": "CLU",
                  "scale": 0.1}
BOUND_KEYS = tuple({"workload": w, "gpu": g, "scale": SCALE}
                   for w, g in (("NN", "GTX980"), ("HST", "GTX980x2"),
                                ("KMN", "Tesla K40")))
TUNE_REQUEST = {"workload": "NN", "gpu": "Tesla K40",
                "strategy": "hillclimb", "budget": 8, "scale": SCALE}
#: Malformed payloads: (path, raw body).
MALFORMED = (
    ("/v1/simulate", b'{"workload": "NOPE", "gpu": "GTX980"}'),
    ("/v1/simulate", b'{"workload": "NN", "gpu": "GTX980", "scale": -1}'),
    ("/v1/simulate", b'{"workload": "NN", "gpu": "GTX980", "scale": "x"}'),
    ("/v1/simulate", b'{"workload": "NN"}'),
    ("/v1/simulate", b'{"workload": "NN", "gpu": "GTX980", '
                     b'"scheme": "FAST"}'),
    ("/v1/estimate", b'{"workload": "NN", "gpu": "GTX980x2", '
                     b'"placement": "anywhere"}'),
    ("/v1/bound", b'{"workload": 7, "gpu": "GTX980"}'),
    ("/v1/simulate", b'{"workload": "NN", '),
)
#: Mix shares in requests per 100, each sized to exercise its lane
#: (README.md):
#: * fresh 6 -- the write lane: at ``HIGH_RPS`` about a dozen fresh keys
#:   a second each hold the single pool worker (17 ms per fresh request
#:   at light load), so writes queue now and then and reach p99 without
#:   saturating the worker;
#: * estimate 8, bound 8 -- the inline lanes: 80 samples of each per
#:   1000 requests, enough for a steady median (``service.estimate_ms``,
#:   ``service.bound_ms``);
#: * malformed 4 -- 40 per 1000 requests, each of the eight malformed
#:   shapes about five times, too few for cheap 4xx answers to flatter
#:   the percentiles;
#: * read 74 -- the rest: a warm cache is the service's steady state
#:   (its CI smoke run repeats each of 8 keys about six times, 84%
#:   repeats), and reads are where a cache gain shows.
MIX = (("read", 74), ("fresh", 6), ("estimate", 8), ("bound", 8),
       ("malformed", 4))


def kind_pattern() -> "list[str]":
    """One period (100 requests) of the fixed order of request kinds.

    Smooth weighted round robin: every kind is spread evenly, so any
    window holds close to its share and expensive requests collide the
    same way in every run, whatever the seed.
    """
    credit = {kind: 0 for kind, _ in MIX}
    pattern = []
    for _ in range(100):
        for kind, weight in MIX:
            credit[kind] += weight
        pick = max(credit, key=credit.get)
        credit[pick] -= 100
        pattern.append(pick)
    return pattern


PATTERN = kind_pattern()


# ----------------------------------------------------------------------
# the request mix
# ----------------------------------------------------------------------

class Mix:
    """Seeded request generator; fresh keys never repeat within a run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fresh_seed = 1000 + seed * 1_000_000
        self.fresh_count = 0

    def _fresh(self) -> int:
        self.fresh_seed += 1
        return self.fresh_seed

    def batch(self, n: int) -> "list[tuple[str, str, bytes]]":
        """``n`` requests whose kinds follow ``PATTERN`` from its start:
        every batch has the same load shape, and the seed only picks
        which keys arrive."""
        return [self._request(PATTERN[i % len(PATTERN)]) for i in range(n)]

    def _request(self, kind: str) -> "tuple[str, str, bytes]":
        """One request of a kind: (kind, path, body)."""
        if kind == "read":
            body, path = self.rng.choice(HOT_KEYS), "/v1/simulate"
        elif kind == "fresh":
            self.fresh_count += 1
            body = dict(FRESH_SHAPES[self.fresh_count % len(FRESH_SHAPES)],
                        seed=self._fresh())
            path = "/v1/simulate"
        elif kind == "estimate":
            body = dict(ESTIMATE_SHAPE, seed=self._fresh())
            path = "/v1/estimate"
        elif kind == "bound":
            body, path = self.rng.choice(BOUND_KEYS), "/v1/bound"
        else:
            path, raw = self.rng.choice(MALFORMED)
            return kind, path, raw
        return kind, path, json.dumps(body, sort_keys=True).encode()


# ----------------------------------------------------------------------
# the service process
# ----------------------------------------------------------------------

class Service:
    """One ``python -m repro.service`` child with a private cache root."""

    def __init__(self, tmp: Path, index: int):
        self.log = tmp / f"service-{index}.log"
        cache = tmp / f"service-cache-{index}"
        command = [sys.executable, "-m", "repro.service", "--port", "0",
                   "--workers", "1", "--queue-depth", "256",
                   "--cache-root", str(cache)]
        self.started = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(command, cwd=str(common.ROOT),
                                         env=common.child_env(tmp),
                                         stdout=log,
                                         stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, probe_body: bytes) -> float:
        """Poll until listening, ``/readyz`` answers and the pool worker
        has executed one job; returns the setup time."""
        deadline = time.perf_counter() + 60.0
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise common.BenchError("service did not start: "
                                        + self.log.read_text()[-2000:])
            for line in self.log.read_text().splitlines():
                if "listening on http://" in line:
                    self.port = int(line.split("listening on http://")[1]
                                    .split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        while True:
            try:
                status, _ = request(self.port, "GET", "/readyz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise common.BenchError("service never became ready")
            time.sleep(0.005)
        status, _ = request(self.port, "POST", "/v1/simulate", probe_body)
        if status != 200:
            raise common.BenchError(f"first pool job answered {status}")
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the service and its pool workers."""
        pids = [self.proc.pid]
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children")
        if children.exists():
            pids += [int(p) for p in children.read_text().split()]
        total = 0.0
        for pid in pids:
            status = Path(f"/proc/{pid}/status")
            if not status.exists():
                continue
            for line in status.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


def request(port: int, method: str, path: str, body: bytes = None,
            connection: http.client.HTTPConnection = None):
    """One HTTP exchange; returns (status, raw body)."""
    own = connection is None
    if own:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        if own:
            connection.close()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------

def drive(port: int, requests: "list[tuple]", rate: float,
          spans=None) -> "list[dict]":
    """Send ``requests`` over ``CONNECTIONS`` keep-alive connections.

    ``rate`` > 0 is an open loop: request ``i`` is due at ``i / rate``
    seconds after the start and is timed from its due time.  ``rate``
    0 is a closed loop: each connection sends its next request when
    the previous one is answered.  Returns one outcome per request.
    """
    outcomes: "list[dict | None]" = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    epoch = time.perf_counter() + 0.05

    def worker():
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                kind, path, body = requests[index]
                due = epoch + index / rate if rate else None
                if due is not None:
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                sent = time.perf_counter()
                try:
                    status, raw = request(port, "POST", path, body,
                                          connection)
                except (OSError, http.client.HTTPException):
                    connection.close()
                    status, raw = 0, b""
                done = time.perf_counter()
                start = due if due is not None else sent
                outcomes[index] = {"kind": kind, "path": path, "body": body,
                                   "status": status, "raw": raw,
                                   "due": start, "sent": sent, "done": done}
                if spans is not None:
                    spans.add(f"service.{kind}", sent, done)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def answered_well(outcome: dict) -> bool:
    """200 for a valid request; a structured 4xx for a malformed one."""
    if outcome["kind"] != "malformed":
        return outcome["status"] == 200
    if not 400 <= outcome["status"] < 500:
        return False
    try:
        error = json.loads(outcome["raw"])["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return isinstance(error.get("code"), str) \
        and isinstance(error.get("message"), str)


def latencies_ms(outcomes) -> "list[float]":
    """Latency of each request from its due time; a failed request
    counts as missing every limit."""
    return [(o["done"] - o["due"]) * 1e3 if answered_well(o)
            else float("inf") for o in outcomes]


def rung_passes(outcomes) -> bool:
    """p99 of all the rung's requests within the SLO, and the generator
    kept up to the end (no growing backlog)."""
    p99, _ = tail_percentile(latencies_ms(outcomes))
    tail = outcomes[-max(1, len(outcomes) // 10):]
    late = max((o["sent"] - o["due"]) * 1e3 for o in tail)
    return p99 <= SLO_MS and late <= SLO_MS


def achieved_rps(windows) -> float:
    """Requests answered per second over open-loop windows: each
    window from its first due time to its last answer."""
    return sum(len(w) for w in windows) / sum(
        max(o["done"] for o in w) - min(o["due"] for o in w)
        for w in windows)


def metrics_doc(port: int) -> dict:
    status, raw = request(port, "GET", "/metrics")
    if status != 200:
        raise common.BenchError(f"/metrics answered {status}")
    return json.loads(raw)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def _probe_body(index: int) -> bytes:
    return json.dumps(dict(FRESH_SHAPES[0], seed=index + 1)).encode()


def _start(tmp: Path) -> "tuple[Service, list[float]]":
    """Start the service ``SETUP_REPEATS`` times; keep the last one."""
    setups = []
    for index in range(SETUP_REPEATS):
        service = Service(tmp, index)
        try:
            setups.append(service.wait_ready(_probe_body(index)))
        except BaseException:
            service.stop()
            raise
        if index < SETUP_REPEATS - 1:
            service.stop()
    return service, setups


def _prime(port: int) -> dict:
    """Untimed: execute every hot key and bound key once, and serve one
    tune; returns the served tune record."""
    for body in HOT_KEYS + BOUND_KEYS:
        path = "/v1/simulate" if "scheme" in body else "/v1/bound"
        status, _ = request(port, "POST", path, json.dumps(body).encode())
        if status != 200:
            raise common.BenchError(f"priming {body} answered {status}")
    status, raw = request(port, "POST", "/v1/tune",
                          json.dumps(TUNE_REQUEST).encode())
    if status != 200:
        raise common.BenchError(f"served tune answered {status}")
    return json.loads(raw)["result"]


def _phases(port: int, mix: Mix, seconds: float, spans=None) -> dict:
    reference = common.reference_samples(REFERENCE_CALLS)

    def timed_reference():
        reference.extend(common.reference_ms()
                         for _ in range(REFERENCE_CALLS))

    bursts = []
    for _ in range(BURSTS):
        requests = mix.batch(BURST_REQUESTS)
        started = time.perf_counter()
        outcomes = drive(port, requests, 0, spans)
        bursts.append((time.perf_counter() - started, outcomes))
        timed_reference()

    # Both rates get the same sample count: n / LOW + n / HIGH = time.
    per_rate = seconds * OPEN_LOOP_SHARE / (1 / LOW_RPS + 1 / HIGH_RPS)
    low, high = [], []
    for _ in range(WINDOWS):
        for rate, sink in ((LOW_RPS, low), (HIGH_RPS, high)):
            requests = mix.batch(int(per_rate / WINDOWS))
            sink.append(drive(port, requests, rate, spans))
            timed_reference()

    ladder = []
    for rate in LADDER:
        for _ in range(RUNG_ATTEMPTS):
            outcomes = drive(port, mix.batch(LADDER_SAMPLES), rate, spans)
            timed_reference()
            ladder.append((rate, rung_passes(outcomes), outcomes))
            if ladder[-1][1]:
                break
        if not ladder[-1][1]:
            break
    return {"bursts": bursts, "low": low,
            "high": high, "ladder": ladder, "reference": reference}


def _verify(outcomes, tune_record: dict) -> "tuple[int, dict]":
    """Outside the timed window: served results against in-process
    ones.  Returns the number of mismatching requests and the
    simulated numbers of the hot keys."""
    common.import_repro()
    import repro
    from repro.gpu.metrics import canonical_metrics
    expected_sim: "dict[bytes, object]" = {}
    expected_bound: "dict[bytes, float]" = {}
    bad = 0
    hot_cycles = {}
    for o in outcomes:
        if o["status"] != 200 or o["kind"] in ("estimate", "malformed"):
            continue
        served = json.loads(o["raw"])["result"]
        body = json.loads(o["body"])
        if o["path"] == "/v1/bound":
            if o["body"] not in expected_bound:
                expected_bound[o["body"]] = repro.bound(
                    body["workload"], body["gpu"],
                    scale=body["scale"]).bound_hit_rate
            bad += served["bound_hit_rate"] != expected_bound[o["body"]]
            continue
        if o["body"] not in expected_sim:
            expected_sim[o["body"]] = json.loads(json.dumps(
                canonical_metrics(repro.simulate(
                    body["workload"], body["gpu"],
                    scheme=body.get("scheme"), scale=body["scale"],
                    seed=body.get("seed", 0)))))
        bad += served != expected_sim[o["body"]]
        if o["kind"] == "read":
            hot_cycles[(body["workload"], body["gpu"], body["scheme"])] = \
                float(served["cycles"])
    if tune_record["best"]["score"] > tune_record["baseline"]["score"]:
        bad += 1
    return bad, hot_cycles


def _sim_metrics(hot_cycles: dict, tune_record: dict) -> dict:
    metrics = common.paper_metrics({
        (w, g): (hot_cycles[(w, g, "BSL")], hot_cycles[(w, g, "CLU+TOT")])
        for w, g in ALGORITHM_PAIRS})
    metrics["tune_gain"] = tune_record["baseline"]["score"] \
        / tune_record["best"]["score"]
    return metrics


def _session(seed: int, seconds: float, tmp: Path, spans=None) -> dict:
    """Start, prime, drive, stop, verify.  Returns everything measured."""
    marks = [("start", time.perf_counter())]
    service, setups = _start(tmp)
    marks.append(("set-up", time.perf_counter()))
    try:
        tune_record = _prime(service.port)
        marks.append(("prime", time.perf_counter()))
        before = metrics_doc(service.port)
        phases = _phases(service.port, Mix(seed), seconds, spans)
        marks.append(("load", time.perf_counter()))
        after = metrics_doc(service.port)
        rss = service.peak_rss_mb()
    finally:
        exit_code = service.stop()
    marks.append(("stop", time.perf_counter()))
    everything = [o for _, outs in phases["bursts"] for o in outs] \
        + [o for window in phases["low"] + phases["high"] for o in window] \
        + [o for _, _, outs in phases["ladder"] for o in outs]
    mismatches, hot_cycles = _verify(everything, tune_record)
    marks.append(("verify", time.perf_counter()))
    print("[serve-mix] seconds per step: " + ", ".join(
        f"{name} {t - prev:.1f}" for (_, prev), (name, t)
        in zip(marks, marks[1:])), file=sys.stderr)
    return {"setups": setups, "phases": phases, "before": before,
            "after": after, "rss": rss, "exit_code": exit_code,
            "everything": everything, "mismatches": mismatches,
            "hot_cycles": hot_cycles, "tune": tune_record}


def _end_to_end(session: dict) -> "tuple[dict, dict]":
    phases = session["phases"]
    burst_wall, burst_outcomes = min(phases["bursts"], key=lambda b: b[0])
    executed = [o for o in burst_outcomes
                if o["kind"] == "fresh" and o["status"] == 200]
    accesses = sum(json.loads(o["raw"])["result"]["warp_accesses"]
                   for o in executed)
    low_windows = [latencies_ms(w) for w in phases["low"]]
    high_windows = [latencies_ms(w) for w in phases["high"]]
    low = [x for w in low_windows for x in w]
    high = [x for w in high_windows for x in w]
    p99_low, q_low = tail_percentile(low)
    p99_high, q_high = tail_percentile(high)
    high_all = [o for w in phases["high"] for o in w]
    # The high phase is the ladder's floor: if no rung passes, the
    # highest rate within the SLO is HIGH_RPS, judged the same way.
    rungs = [(HIGH_RPS, rung_passes(high_all), phases["high"])] \
        + [(rate, ok, [outs]) for rate, ok, outs in phases["ladder"]]
    passing = [outs for _, ok, outs in rungs if ok]
    max_rps = achieved_rps(passing[-1]) if passing else 0.0
    everything = session["everything"]
    failed = sum(1 for o in everything if not answered_well(o)) \
        + session["mismatches"] + (session["exit_code"] != 0)
    light = [o for w in phases["low"] for o in w]
    factor = common.box_factor(phases["reference"])
    print(f"[serve-mix] capacity {BURST_REQUESTS / burst_wall:.0f} req/s; "
          f"samples: low {len(low)} (tail p{q_low * 100:.2f}), "
          f"high {len(high)} (tail p{q_high * 100:.2f}); ladder "
          + ", ".join(f"{r}:{'ok' if ok else 'FAIL'}"
                      for r, ok, _ in rungs)
          + "; light-load lane medians (ms) "
          + ", ".join(f"{kind} {_median_ms(light, kind):.2f}"
                      for kind, _ in MIX), file=sys.stderr)
    metrics = {
        "setup_s": median(session["setups"]),
        "wall_s": burst_wall * factor,
        "sim_accesses_per_s": accesses / (burst_wall * factor),
        "peak_rss_mb": session["rss"],
        "success_frac": (len(everything) - failed) / len(everything),
        "p50_ms_low": min(median(w) for w in low_windows) * factor,
        "p99_ms_low": p99_low * factor,
        "p50_ms_high": min(median(w) for w in high_windows) * factor,
        "p99_ms_high": p99_high * factor,
        "max_rps_in_slo": max_rps,
    }
    metrics.update(_sim_metrics(session["hot_cycles"], session["tune"]))
    outcome = {"attempted": len(everything), "failed": failed,
               "deterministic": True,
               "service_exit_code": session["exit_code"],
               "box_factor": round(factor, 4)}
    return metrics, outcome


def run(seed: int, seconds: float, tmp: Path) -> "tuple[dict, dict]":
    return _end_to_end(_session(seed, seconds, tmp))


def _delta(before: dict, after: dict, *path) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return (after or 0) - (before or 0)


def _median_ms(outcomes, kind: str) -> float:
    times = [(o["done"] - o["sent"]) * 1e3 for o in outcomes
             if o["kind"] == kind and answered_well(o)]
    return median(times) if times else 0.0


def run_traced(seed: int, seconds: float, tmp: Path) -> "tuple[dict, dict]":
    """Per-layer numbers from ``/metrics`` deltas and client timings.

    Every request runs inside a client-side span named after its lane;
    the tracing overhead is the measured cost of one span times the
    span count."""
    spans = common.Spans()
    session = _session(seed, seconds, tmp, spans)
    _, outcome = _end_to_end(session)
    before, after, phases = session["before"], session["after"], \
        session["phases"]
    print(common.format_self_times(common.self_times(spans.records)),
          file=sys.stderr)
    submitted = _delta(before, after, "jobs", "submitted")
    batches = _delta(before, after, "batches", "count")
    open_loop = [o for w in phases["low"] + phases["high"] for o in w] \
        + [o for _, _, outs in phases["ladder"] for o in outs]
    late = [(o["sent"] - o["due"]) * 1e3 for o in open_loop]
    metrics = common.zero_layers()
    metrics.update({
        "service.queue_wait_s": _delta(before, after, "phase_seconds",
                                       "queue_wait"),
        "service.execute_s": _delta(before, after, "phase_seconds",
                                    "execute"),
        "service.cache_lookup_s": _delta(before, after, "phase_seconds",
                                         "cache_lookup"),
        "service.cache_store_s": _delta(before, after, "phase_seconds",
                                        "cache_store"),
        "service.dedup_hit_ratio": _delta(before, after, "jobs",
                                          "dedup_hits") / submitted,
        "service.cache_hit_ratio": _delta(before, after, "jobs",
                                          "cache_hits") / submitted,
        "service.executed": _delta(before, after, "jobs", "executed"),
        "service.rejected": _delta(before, after, "requests",
                                   "rejected_queue_full"),
        "service.errors": _delta(before, after, "jobs", "errors"),
        "service.queue_peak": after["queue"]["peak"],
        "service.batch_mean_size": _delta(before, after, "batches", "jobs")
        / batches if batches else 0.0,
        "service.estimate_ms": _median_ms(open_loop, "estimate"),
        "service.bound_ms": _median_ms(open_loop, "bound"),
        "loadgen.late_ms": tail_percentile(late)[0],
        "loadgen.sent": len(session["everything"]),
        "trace.overhead_s": common.span_cost_s() * len(spans.records),
        "trace.spans": len(spans.records),
    })
    return metrics, outcome
