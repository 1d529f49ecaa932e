"""Profile sessions: aggregate a run's observability into artifacts.

A :class:`ProfileSession` is the sink the CLI (and any library caller)
feeds while a run progresses:

* ``with session.phase("fig12"): ...`` — per-phase wall time;
* ``session.job_span(...)`` — per-job execution spans reported by the
  sweep runner (these become the Chrome-trace worker tracks);
* ``session.observe_results(...)`` — walks driver results and records
  every :class:`~repro.gpu.metrics.KernelMetrics` it finds (hottest
  workload x scheme cells, per-SM cycle histograms);
* ``session.observe_runner(...)`` — engine + result-cache counters.

``summary()`` produces the JSON document described by the checked-in
``profile_schema.json``; ``chrome_trace()`` produces the optional
timeline export.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.chrome import ChromeTrace, add_wave_spans
from repro.obs.timers import PhaseTimer

#: How many hottest workload x scheme cells the summary keeps.
TOP_CELLS = 20

#: Buckets in the per-SM cycle histograms.
HISTOGRAM_BINS = 8


def histogram(values, bins: int = HISTOGRAM_BINS) -> "dict | None":
    """Fixed-width histogram of a value list (``None`` when empty)."""
    values = [float(v) for v in values]
    if not values:
        return None
    lo, hi = min(values), max(values)
    counts = [0] * bins
    if hi <= lo:
        counts[0] = len(values)
    else:
        width = (hi - lo) / bins
        for v in values:
            index = min(bins - 1, int((v - lo) / width))
            counts[index] += 1
    return {"min": lo, "max": hi, "counts": counts}


@dataclass
class CellSample:
    """One observed (gpu, kernel, scheme) measurement."""

    gpu: str
    kernel: str
    scheme: str
    cycles: float
    l1_hit_rate: float
    l2_transactions: int
    dram_transactions: int
    sm_cycles: "tuple[float, ...]"


@dataclass
class JobSpan:
    """One executed engine job, timed on its worker's own clock."""

    label: str
    start: float
    duration: float
    pid: int


@dataclass
class ShardSpan:
    """One routed forward: which shard answered, and how long it took.

    Recorded by the :class:`~repro.service.shard.ShardRouter` when it
    runs with a profile session, so a router's ``--profile`` artifact
    shows where cluster wall time went shard by shard."""

    shard: str
    target: str
    start: float
    duration: float


class ProfileSession:
    """Collects one run's observability and renders the artifacts."""

    def __init__(self, label: str = "run", argv=None):
        self.label = label
        self.argv = list(argv) if argv is not None else None
        self.started = time.time()
        self._start_perf = time.perf_counter()
        self.timer = PhaseTimer()
        self.cells: "list[CellSample]" = []
        self.job_spans: "list[JobSpan]" = []
        self.shard_spans: "list[ShardSpan]" = []
        self.engine: "dict | None" = None
        self.tunes: "list[dict]" = []
        self.tracer = None  # optional RecordingTracer for wave spans

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------

    def phase(self, name: str):
        """Context manager timing one named phase."""
        return self.timer.phase(name)

    def job_span(self, label: str, start: float, duration: float,
                 pid: int) -> None:
        """Record one executed job (the sweep runner calls this)."""
        self.job_spans.append(JobSpan(label=label, start=start,
                                      duration=duration, pid=pid))

    def shard_span(self, shard: str, target: str, start: float,
                   duration: float) -> None:
        """Record one routed forward (the shard router calls this)."""
        self.shard_spans.append(ShardSpan(shard=shard, target=target,
                                          start=start, duration=duration))

    def observe_results(self, results, *, gpu: str = "", kernel: str = "",
                        scheme: str = "") -> None:
        """Walk a driver's results and record every metrics object.

        Accepts anything: lists/tuples recurse, ``SchemeResults``-likes
        contribute their per-scheme metrics (tagged with the carrier's
        workload/gpu names), ``KernelMetrics``-likes contribute
        themselves, everything else is ignored.
        """
        if isinstance(results, (list, tuple)):
            for item in results:
                self.observe_results(item, gpu=gpu, kernel=kernel,
                                     scheme=scheme)
            return
        if hasattr(results, "leaderboard") \
                and hasattr(results, "speedup_vs_rule"):
            # A TuneResult record (the tune executor runs the search
            # in-worker, so this walk is where the CLI path sees it).
            self.observe_tuning(results)
            return
        metrics_map = getattr(results, "metrics", None)
        if isinstance(metrics_map, dict):
            gpu = str(getattr(results, "gpu", gpu))
            kernel = str(getattr(results, "workload", kernel))
            for key, metrics in metrics_map.items():
                self.observe_results(metrics, gpu=gpu, kernel=kernel,
                                     scheme=str(key))
            return
        if hasattr(results, "cycles") and hasattr(results, "l1_hit_rate") \
                and hasattr(results, "sm_cycles"):
            self.cells.append(CellSample(
                gpu=gpu or str(getattr(results, "gpu_name", "")),
                kernel=kernel or str(getattr(results, "kernel_name", "")),
                scheme=scheme or str(getattr(results, "scheme", "")),
                cycles=float(results.cycles),
                l1_hit_rate=float(results.l1_hit_rate),
                l2_transactions=int(results.l2_transactions),
                dram_transactions=int(results.dram_transactions),
                sm_cycles=tuple(results.sm_cycles)))

    def observe_runner(self, runner) -> None:
        """Snapshot a :class:`~repro.engine.runner.SweepRunner`."""
        stats = runner.stats
        elapsed = stats.elapsed
        engine = {
            "submitted": stats.submitted,
            "unique": stats.unique,
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
            "elapsed_s": elapsed,
            "worker_s": getattr(stats, "worker_seconds", 0.0),
            "jobs_per_s": (stats.executed / elapsed) if elapsed > 0 else 0.0,
            "cache_hit_ratio": (stats.cache_hits / stats.unique
                                if stats.unique else 0.0),
            "phase_seconds": dict(getattr(stats, "phase_seconds", {})),
            "result_cache": None,
        }
        cache = getattr(runner, "cache", None)
        if cache is not None:
            stats = cache.stats()
            engine["result_cache"] = {
                "hits": stats["hits"],
                "misses": stats["misses"],
                "writes": stats["writes"],
                "get_s": stats.get("get_seconds", 0.0),
                "put_s": stats.get("put_seconds", 0.0),
            }
        self.engine = engine

    def observe_tuning(self, result) -> None:
        """Record one tuning run (:func:`repro.tuner.tune` calls this
        when handed a session).  Candidate execution spans arrive
        separately through :meth:`job_span` via the runner, so the
        trace timeline shows every evaluation; this records the
        search-level outcome the ``tune`` summary section reports."""
        self.tunes.append({
            "workload": result.workload,
            "gpu": result.gpu,
            "strategy": result.strategy,
            "objective": result.objective,
            "budget": result.budget,
            "fidelity": getattr(result, "fidelity", "full"),
            "evaluations": result.evaluations,
            "truncated": result.truncated,
            "best_scheme": result.best.scheme,
            "best_score": result.best.score,
            "baseline_scheme": result.baseline.scheme,
            "baseline_score": result.baseline.score,
            "speedup_vs_rule": result.speedup_vs_rule,
            "leaderboard": len(result.leaderboard),
        })

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """The JSON document ``profile_schema.json`` describes."""
        from repro.engine.job import ENGINE_VERSION
        import repro

        top = sorted(self.cells, key=lambda c: -c.cycles)[:TOP_CELLS]
        all_sm_cycles = [c for cell in self.cells for c in cell.sm_cycles]
        meta = {
            "tool": "repro",
            "version": repro.__version__,
            "engine_version": ENGINE_VERSION,
            "label": self.label,
            "started_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started)),
            "wall_s": time.perf_counter() - self._start_perf,
        }
        if self.argv is not None:
            meta["argv"] = self.argv
        return {
            "schema_version": 1,
            "meta": meta,
            "phases": [
                {"name": name, "wall_s": seconds,
                 "count": self.timer.counts.get(name, 1)}
                for name, seconds in self.timer.snapshot().items()],
            "engine": self.engine if self.engine is not None else {
                "submitted": 0, "unique": 0, "cache_hits": 0, "executed": 0,
                "elapsed_s": 0.0, "worker_s": 0.0, "jobs_per_s": 0.0,
                "cache_hit_ratio": 0.0, "phase_seconds": {},
                "result_cache": None},
            "cells": {
                "observed": len(self.cells),
                "top": [{
                    "gpu": c.gpu, "kernel": c.kernel, "scheme": c.scheme,
                    "cycles": c.cycles, "l1_hit_rate": c.l1_hit_rate,
                    "l2_transactions": c.l2_transactions,
                    "dram_transactions": c.dram_transactions,
                    "sm_cycles_histogram": histogram(c.sm_cycles),
                } for c in top],
            },
            "sm_cycles": {
                "observed_sms": len(all_sm_cycles),
                "histogram": histogram(all_sm_cycles),
            },
            "tune": {
                "runs": len(self.tunes),
                "results": list(self.tunes),
            },
            "job_spans": len(self.job_spans),
            "shard_spans": len(self.shard_spans),
        }

    def write(self, path) -> dict:
        """Write the summary artifact; returns the document."""
        import json
        document = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
        return document

    def chrome_trace(self) -> ChromeTrace:
        """Timeline export: engine job tracks + optional wave tracks."""
        trace = ChromeTrace(metadata={"label": self.label})
        for pid in sorted({span.pid for span in self.job_spans}):
            trace.add_process_name(pid, f"worker {pid}")
            trace.add_thread_name(pid, 0, "jobs")
        for span in self.job_spans:
            trace.add_complete(pid=span.pid, tid=0, name=span.label,
                               ts=span.start * 1e6,
                               dur=span.duration * 1e6,
                               category="engine")
        if self.shard_spans:
            # The router's own view: one track per shard, pid 0 so the
            # router process sorts above the workers in the viewer.
            trace.add_process_name(0, "router")
            shards = sorted({span.shard for span in self.shard_spans})
            tids = {shard: tid for tid, shard in enumerate(shards)}
            for shard, tid in tids.items():
                trace.add_thread_name(0, tid, shard)
            for span in self.shard_spans:
                trace.add_complete(pid=0, tid=tids[span.shard],
                                   name=span.target,
                                   ts=span.start * 1e6,
                                   dur=span.duration * 1e6,
                                   category="route")
        if self.tracer is not None and getattr(self.tracer, "waves", None):
            add_wave_spans(trace, self.tracer)
        return trace

    def write_trace(self, path) -> None:
        self.chrome_trace().write(path)
