"""The sweep runner: dedup, cache, execute (serially or in parallel).

``SweepRunner.run`` takes a job batch and returns one result per job,
**in submission order**, regardless of how the work was satisfied:

1. jobs with identical content hashes are computed once per batch;
2. a job already satisfied this process (the in-memory ``memo``) or
   sitting in the attached :class:`ResultCache` is never executed;
3. the remainder runs serially (``jobs=1``) or on a
   ``ProcessPoolExecutor`` (``jobs=N``) — ``pool.map`` preserves input
   order, every executor is deterministic in the job's seed, and the
   merge is by job identity, so a parallel run is bit-identical to the
   serial run of the same batch.

Observability: every batch splits its wall time into named phases on
``stats.phase_seconds`` (dedup / lookup / execute / store), sums
worker-side execution time into ``stats.worker_seconds``, can stream a
jobs/sec + ETA progress line (``progress=True``), and reports each
executed job's worker-clock span to an attached
:class:`~repro.obs.profile.ProfileSession` (``profile=``).  All of it
is observer-only — results stay byte-identical whatever is attached.

Drivers default to a private serial, cache-less runner, which keeps
library calls and existing tests byte-compatible with the historical
inline loops; the CLI opts into parallelism and the persistent cache.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.engine.cache import ResultCache
from repro.engine.executors import execute
from repro.engine.job import SimJob
from repro.obs.timers import EtaPrinter


@dataclass
class SweepStats:
    """Accounting for the batches one runner has processed."""

    submitted: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed: float = 0.0
    #: Sum of per-job execution time measured on the worker's clock.
    #: In parallel runs this exceeds the ``execute`` phase wall time —
    #: the ratio is the effective parallel speedup.
    worker_seconds: float = 0.0
    #: Wall seconds per runner phase (dedup/lookup/execute/store).
    phase_seconds: "dict[str, float]" = field(default_factory=dict)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def merge_batch(self, submitted: int, unique: int, cache_hits: int,
                    executed: int, elapsed: float,
                    worker_seconds: float = 0.0) -> None:
        self.submitted += submitted
        self.unique += unique
        self.cache_hits += cache_hits
        self.executed += executed
        self.elapsed += elapsed
        self.worker_seconds += worker_seconds

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of unique jobs satisfied without executing."""
        return self.cache_hits / self.unique if self.unique else 0.0

    @property
    def jobs_per_second(self) -> float:
        """Executed jobs per wall second across all batches."""
        return self.executed / self.elapsed if self.elapsed > 0 else 0.0


def _timed_execute(job: SimJob) -> "tuple[object, float, float, int]":
    """Execute one job, reporting ``(value, start, duration, pid)``.

    Start/duration are on the worker's own ``perf_counter`` clock
    (system-wide monotonic on Linux, so spans from different worker
    processes land on one comparable timeline).  Top-level so
    ``pool.map`` can pickle it.
    """
    started = time.perf_counter()
    value = execute(job)
    return value, started, time.perf_counter() - started, os.getpid()


@dataclass
class SweepRunner:
    """Executes job batches for the experiment drivers.

    ``jobs`` is the worker-process count (1 = in-process serial);
    ``cache`` an optional :class:`ResultCache`.  ``memo=True`` (or a
    dict to share) keeps every result of this runner's lifetime in
    memory, so a later batch re-submitting the same job key — e.g.
    fig13 re-sweeping what fig12 just simulated — costs a dict lookup
    even with no persistent cache.  ``progress`` streams an ETA line
    to stderr while executing; ``profile`` is an optional
    :class:`~repro.obs.profile.ProfileSession` (anything with a
    ``job_span(label, start, duration, pid)`` method) that receives
    per-job worker spans.
    """

    jobs: int = 1
    cache: "ResultCache | None" = None
    stats: SweepStats = field(default_factory=SweepStats)
    memo: "dict | bool | None" = None
    progress: bool = False
    profile: "object | None" = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.memo is True:
            self.memo = {}
        elif self.memo is False:
            self.memo = None

    def run(self, sim_jobs: Iterable[SimJob]) -> list:
        """Execute a batch and return results in submission order."""
        batch: "list[SimJob]" = list(sim_jobs)
        started = time.perf_counter()
        stats = self.stats

        # Batch-level dedup: first occurrence of each key computes.
        unique: "list[SimJob]" = []
        seen = set()
        for job in batch:
            if job.key not in seen:
                seen.add(job.key)
                unique.append(job)
        stats.add_phase("dedup", time.perf_counter() - started)

        mark = time.perf_counter()
        values: "dict[str, object]" = {}
        to_run: "list[SimJob]" = []
        for job in unique:
            if self.memo is not None and job.key in self.memo:
                values[job.key] = self.memo[job.key]
                continue
            if self.cache is not None:
                cached = self.cache.get(job)
                if not ResultCache.is_miss(cached):
                    values[job.key] = cached
                    continue
            to_run.append(job)
        cache_hits = len(unique) - len(to_run)
        stats.add_phase("lookup", time.perf_counter() - mark)

        mark = time.perf_counter()
        eta = EtaPrinter(len(to_run), label="sweep") if self.progress \
            and to_run else None
        worker_seconds = 0.0
        store_seconds = 0.0
        try:
            for job, timed in self._execute(to_run):
                value, span_start, span_duration, pid = timed
                values[job.key] = value
                worker_seconds += span_duration
                if self.profile is not None:
                    self.profile.job_span(job.label(), span_start,
                                          span_duration, pid)
                if self.cache is not None:
                    store_mark = time.perf_counter()
                    self.cache.put(job, value)
                    store_seconds += time.perf_counter() - store_mark
                if eta is not None:
                    eta.step(job.label())
        finally:
            if eta is not None:
                eta.close()
        stats.add_phase("execute",
                        time.perf_counter() - mark - store_seconds)
        if store_seconds:
            stats.add_phase("store", store_seconds)
        if self.memo is not None:
            self.memo.update(values)

        stats.merge_batch(
            submitted=len(batch), unique=len(unique), cache_hits=cache_hits,
            executed=len(to_run), elapsed=time.perf_counter() - started,
            worker_seconds=worker_seconds)
        return [values[job.key] for job in batch]

    def run_one(self, job: SimJob):
        """Convenience wrapper for single-job batches."""
        return self.run([job])[0]

    def _execute(self, to_run: Sequence[SimJob]) -> Iterator[tuple]:
        """Yield ``(job, timed_tuple)`` in submission order."""
        if self.jobs > 1 and len(to_run) > 1:
            workers = min(self.jobs, len(to_run))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # chunksize=1 so completed spans stream back promptly
                # for the progress line; map still preserves order.
                results = pool.map(_timed_execute, to_run, chunksize=1)
                yield from zip(to_run, results)
        else:
            for job in to_run:
                yield job, _timed_execute(job)


def default_runner(jobs: int = 1, cached: bool = False,
                   cache_root=None, memo: bool = False,
                   progress: bool = False, profile=None) -> SweepRunner:
    """Build a runner the way the CLI does (optionally cached)."""
    cache = None
    if cached:
        cache = ResultCache(cache_root) if cache_root is not None \
            else ResultCache()
    return SweepRunner(jobs=jobs, cache=cache, memo=memo,
                       progress=progress, profile=profile)
