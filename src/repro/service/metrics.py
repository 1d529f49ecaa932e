"""Service-side counters, latency reservoir and phase timers.

One :class:`ServiceMetrics` instance aggregates everything the
``/metrics`` endpoint serves: request counts by endpoint and status,
the job funnel (submitted → dedup/cache/executed/errors), queue depth
and its high-water mark, a bounded reservoir of request latencies for
percentiles, and a :class:`~repro.obs.timers.PhaseTimer` splitting
where the service's wall time goes (queue wait, pool execution, cache
lookups) — the same phase-ledger primitive the sweep runner uses, so
``--profile`` output reads identically across the batch CLI and the
daemon.
"""

from __future__ import annotations

import time
from collections import Counter, deque

from repro.obs.timers import PhaseTimer
from repro.service.jobs import KINDS

#: Latency reservoir size: enough for stable p99 under the smoke load,
#: bounded so a week of traffic cannot grow it.
RESERVOIR = 4096


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0.0)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


class ServiceMetrics:
    """Mutable counters behind ``/metrics`` (single event loop, no locks)."""

    def __init__(self):
        self.started = time.time()
        self.requests_total = 0
        self.requests_by_endpoint = Counter()
        self.responses_by_status = Counter()
        # The job funnel.
        self.jobs_submitted = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executed = 0
        self.job_errors = 0
        self.deadline_expired = 0
        self.cancelled_jobs = 0
        self.retries = 0
        self.worker_crashes = 0
        self.rejected_queue_full = 0
        self.queue_peak = 0
        self.batches = 0
        self.batch_jobs = 0
        # One funnel per inline-lane kind (POST /v1/estimate, /v1/bound):
        # answered without the queue/batcher/pool, so counted apart.
        self.inline = {name: {"count": 0, "cache_hits": 0, "seconds": 0.0}
                       for name, kind in KINDS.items()
                       if kind.lane == "inline"}
        # Cache-slice transfers (shard warmup / hot-key replication).
        self.cache_exports = 0
        self.cache_imports = 0
        self.timer = PhaseTimer()
        self._latencies = deque(maxlen=RESERVOIR)

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_peak:
            self.queue_peak = depth

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def observe_inline(self, kind: str, seconds: float, *,
                       cached: bool) -> None:
        funnel = self.inline[kind]
        funnel["count"] += 1
        funnel["cache_hits"] += cached
        funnel["seconds"] += seconds

    def latency_summary(self) -> dict:
        values = sorted(self._latencies)
        return {
            "count": len(values),
            "p50_ms": round(percentile(values, 0.50) * 1e3, 3),
            "p90_ms": round(percentile(values, 0.90) * 1e3, 3),
            "p95_ms": round(percentile(values, 0.95) * 1e3, 3),
            "p99_ms": round(percentile(values, 0.99) * 1e3, 3),
            "max_ms": round(values[-1] * 1e3, 3) if values else 0.0,
        }

    def snapshot(self, *, queue_depth: int, queue_capacity: int,
                 draining: bool, result_cache=None,
                 batch_max: int = None) -> dict:
        """The ``/metrics`` document (see DESIGN.md "Serving")."""
        import repro
        from repro.engine.job import ENGINE_VERSION
        jobs = {
            "submitted": self.jobs_submitted,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "errors": self.job_errors,
            "deadline_expired": self.deadline_expired,
            "cancelled": self.cancelled_jobs,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "dedup_hit_ratio": (self.dedup_hits / self.jobs_submitted
                                if self.jobs_submitted else 0.0),
            "cache_hit_ratio": (self.cache_hits / self.jobs_submitted
                                if self.jobs_submitted else 0.0),
        }
        document = {
            "schema": "repro.service/1",
            "version": repro.__version__,
            "engine_version": ENGINE_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "draining": draining,
            "requests": {
                "total": self.requests_total,
                "by_endpoint": dict(self.requests_by_endpoint),
                "by_status": {str(k): v
                              for k, v in self.responses_by_status.items()},
                "rejected_queue_full": self.rejected_queue_full,
            },
            "jobs": jobs,
            "queue": {
                "depth": queue_depth,
                "peak": self.queue_peak,
                "capacity": queue_capacity,
            },
            "batches": {
                "count": self.batches,
                "jobs": self.batch_jobs,
                "mean_size": (self.batch_jobs / self.batches
                              if self.batches else 0.0),
                # Occupancy against the micro-batcher's window cap:
                # fill_ratio 1.0 means every batch left the window full.
                "capacity": batch_max,
                "fill_ratio": (self.batch_jobs / (self.batches * batch_max)
                               if self.batches and batch_max else 0.0),
            },
            **{f"{kind}s": {
                "count": funnel["count"],
                "cache_hits": funnel["cache_hits"],
                "mean_latency_ms": (round(funnel["seconds"]
                                          / funnel["count"] * 1e3, 3)
                                    if funnel["count"] else 0.0),
            } for kind, funnel in self.inline.items()},
            "latency": self.latency_summary(),
            "phase_seconds": {name: round(seconds, 6) for name, seconds
                              in self.timer.snapshot().items()},
        }
        if result_cache is not None:
            stats = result_cache.stats()
            document["result_cache"] = {
                "hits": stats["hits"],
                "misses": stats["misses"],
                "writes": stats["writes"],
                "corrupt": stats["corrupt"],
                "hit_ratio": stats["hit_ratio"],
                # Slice transfers in (router warmup/replication pushes)
                # and out (manifest-driven exports to peers).
                "imported": self.cache_imports,
                "exported": self.cache_exports,
            }
        return document
