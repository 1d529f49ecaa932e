"""The asyncio simulation service.

One event loop owns everything: the HTTP listener, the single-flight
table, the admission counter and the micro-batcher.  Simulation work
never runs on the loop — cache misses are batched and offloaded to a
bounded pool (processes by default, one in-process worker thread when
``workers=0``), so health checks and ``/metrics`` stay responsive
while the pool grinds.

The request pipeline, in order::

    parse/validate -> single-flight dedup -> ResultCache -> admission
        -> micro-batch -> pool -> respond (+ cache fill)

* **single-flight** — requests canonicalize to
  :class:`~repro.engine.job.SimJob` content hashes; a request whose
  hash is already being computed awaits the same future instead of
  re-simulating (the classic duplicate-suppression move under bursty
  identical traffic).
* **cache** — the engine's persistent
  :class:`~repro.engine.cache.ResultCache` answers repeat requests
  across restarts; fills happen on the completion path.
* **backpressure** — at most ``queue_depth`` admitted-but-unfinished
  jobs; beyond that the request answers 429 + ``Retry-After`` instead
  of queueing unboundedly.
* **deadlines** — every waiter has one; expiry answers 504, and a
  flight all of whose waiters expired before execution started is
  dropped without ever touching the pool (cooperative cancellation).
* **crash recovery** — a broken pool is rebuilt and the batch retried
  once; a second failure surfaces as a structured 500, never a hung
  future.
* **graceful drain** — ``request_shutdown()`` (wired to SIGTERM by the
  launcher) stops accepting, finishes every admitted request, then
  tears the pool down; ``/readyz`` flips to 503 the moment draining
  starts so load balancers stop routing first.
"""

from __future__ import annotations

import asyncio
import hmac
import math
import os
import sys
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor

from repro.engine.cache import ResultCache
from repro.engine.executors import execute
from repro.engine.job import SimJob
from repro.service import jobs as jobmod
from repro.service.config import ServiceConfig
from repro.service.httpio import (
    HttpError,
    HttpRequest,
    JsonServer,
    route,
)
from repro.service.metrics import ServiceMetrics

#: Header carrying the shared cache-admin secret (see
#: ``ServiceConfig.cache_token``).
CACHE_TOKEN_HEADER = "x-repro-cache-token"

#: Bind addresses on which the cache admin endpoints work without a
#: token — anything else is network-reachable and needs the secret.
_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})


def _execute_one(job: SimJob) -> tuple:
    """Run one job in this worker, as an ``(status, ...)`` outcome."""
    started = time.perf_counter()
    try:
        value = execute(job)
    except Exception as exc:  # surfaced as a structured 500
        return ("error", f"{type(exc).__name__}: {exc}",
                started, time.perf_counter() - started, os.getpid())
    return ("ok", value,
            started, time.perf_counter() - started, os.getpid())


def _execute_jobs(batch: "list[SimJob]") -> list:
    """Run one micro-batch inside a pool worker, job by job.

    Per-job outcomes are reported individually — one failing job must
    not poison its batchmates — along with worker-clock spans in the
    same ``(start, duration, pid)`` shape the sweep runner's profiling
    uses, so the service's ``--profile`` timeline renders identically.
    """
    return [_execute_one(job) for job in batch]


class JobFailed(Exception):
    """A job's executor raised (carried to every deduped waiter)."""

    def __init__(self, job: SimJob, message: str):
        super().__init__(message)
        self.job = job
        self.message = message


class _Flight:
    """One in-flight unique computation and its bookkeeping."""

    __slots__ = ("job", "future", "waiters", "started", "cancelled",
                 "enqueued_at")

    def __init__(self, job: SimJob, future: "asyncio.Future"):
        self.job = job
        self.future = future
        self.waiters = 0
        self.started = False    # a batch picked it up
        self.cancelled = False  # every waiter expired before start
        self.enqueued_at = 0.0


class SimulationService(JsonServer):
    """The serving daemon; construct, ``await start()``, let it run."""

    def __init__(self, config: ServiceConfig = None, *, profile=None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.profile = profile  # optional repro.obs.ProfileSession
        self.cache = None
        if self.config.cache:
            root = self.config.cache_root
            self.cache = ResultCache(root) if root is not None \
                else ResultCache()
        self.port = None  # actual bound port (config.port may be 0)
        self._inflight: "dict[str, _Flight]" = {}
        self._outstanding = 0   # admitted-but-unfinished jobs
        self._active_requests = 0
        self._draining = False
        self._aborted = False
        self._queue: "asyncio.Queue[_Flight | None]" = None
        self._server = None
        self._pool = None
        self._batcher = None
        self._batch_tasks: "set[asyncio.Task]" = set()
        self._connections: "set[asyncio.StreamWriter]" = set()
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._shutdown_requested = None
        self._closed = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, spin up the pool and the batcher."""
        self._queue = asyncio.Queue()
        self._shutdown_requested = asyncio.Event()
        self._closed = asyncio.Event()
        self._pool = self._make_pool()
        self._batcher = asyncio.create_task(self._batch_loop(),
                                            name="repro-service-batcher")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def _make_pool(self):
        if self.config.workers == 0:
            # In-process mode: one worker thread, no fork.  Slower under
            # concurrency (GIL) but deterministic and monkeypatchable —
            # what tests and single-core containers want.
            return ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="repro-sim")
        return ProcessPoolExecutor(max_workers=self.config.workers)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; signal-handler safe)."""
        self._draining = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    def abort(self) -> None:
        """Die like a crashed process: refuse new connections, reset
        live ones, skip the drain.

        This is the fault-injection hook the shard test harness uses —
        from a router's point of view an aborted shard is
        indistinguishable from a SIGKILLed one (connection resets on
        in-flight requests, connection refused afterwards) without
        actually killing the host process.  Must be called on the
        service's own event loop.
        """
        self._draining = True
        self._aborted = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def wait_closed(self) -> None:
        """Park until a requested shutdown has fully drained."""
        await self._shutdown_requested.wait()
        await self._drain()
        self._closed.set()

    async def _drain(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (self._active_requests > 0 or self._outstanding > 0) \
                and not self._aborted and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Stop the batcher, then let any in-pool batches finish.
        await self._queue.put(None)
        if self._batcher is not None:
            await self._batcher
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        # Reap idle keep-alive connections: close the transports, let
        # the handlers observe EOF, then cancel any straggler so no
        # task dies unretrieved when the loop closes.
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest):
        """Route one request; returns (status, payload, retry_after_s)."""
        try:
            handler = route(_ROUTES, request)
            payload = await handler(self, request)
            return 200, payload, None
        except HttpError as exc:
            if exc.code == "queue_full":
                self.metrics.rejected_queue_full += 1
            return exc.status, exc.payload(), exc.retry_after_s
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            error = HttpError(500, "internal_error",
                              f"unhandled {type(exc).__name__}: {exc}")
            return error.status, error.payload(), None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    async def _get_index(self, request: HttpRequest) -> dict:
        import repro
        return {
            "service": "repro.service",
            "version": repro.__version__,
            "endpoints": sorted(f"{method} {path}"
                                for method, path in _ROUTES),
        }

    async def _get_healthz(self, request: HttpRequest) -> dict:
        return {"status": "ok"}

    async def _get_readyz(self, request: HttpRequest) -> dict:
        if self._draining:
            raise HttpError(503, "draining",
                            "service is draining and will exit")
        return {"status": "ready", "queue_depth": self._outstanding,
                "queue_capacity": self.config.queue_depth}

    async def _get_metrics(self, request: HttpRequest) -> dict:
        return self.metrics.snapshot(
            queue_depth=self._outstanding,
            queue_capacity=self.config.queue_depth,
            draining=self._draining,
            result_cache=self.cache,
            batch_max=self.config.batch_max)

    def _build(self, request: HttpRequest):
        """Validate a ``/v1/<kind>`` body against its ``jobs.KINDS``
        entry; returns ``(kind, job, deadline_s)``."""
        kind = jobmod.KINDS[request.path[len("/v1/"):]]
        payload = request.json()
        job = kind.build(payload,
                         max_tune_budget=self.config.max_tune_budget)
        return kind, job, self._deadline_from(payload)

    async def _post_pool(self, request: HttpRequest) -> dict:
        """A pool-lane kind: dedup, cache, admission, micro-batch, pool.

        For ``tune`` the whole search is one job, so identical tunes
        collapse in the single-flight table and, inside the worker,
        every candidate evaluation hits the engine's shared cache.
        """
        kind, job, deadline = self._build(request)
        value, source = await self.submit(job, deadline)
        return {"key": job.key, "source": source,
                kind.field: jobmod.jsonable(value)}

    async def _post_inline(self, request: HttpRequest) -> dict:
        """An inline-lane kind (``estimate``, ``bound``): cache, else
        execute on a loop-adjacent thread.

        Same ``{key, source, result}`` envelope and error payloads as
        the pool lane, but the work never touches the admission queue,
        the micro-batcher or the process pool, so these endpoints keep
        answering while the pool is saturated with simulations.  Each
        kind has its own ``/metrics`` section (``estimates``,
        ``bounds``); the ``batches`` counter does not move.
        """
        kind, job, _ = self._build(request)  # deadline checked for parity
        if self._draining:
            raise HttpError(503, "draining",
                            "service is draining and not admitting work")
        started = time.perf_counter()
        value, hit = None, False
        if self.cache is not None:
            with self.metrics.timer.phase("cache_lookup"):
                cached = self.cache.get(job)
            if not ResultCache.is_miss(cached):
                value, hit = cached, True
        if not hit:
            try:
                value = await asyncio.to_thread(execute, job)
            except Exception as exc:
                self.metrics.job_errors += 1
                self.metrics.observe_inline(
                    kind.name, time.perf_counter() - started, cached=False)
                raise HttpError(
                    500, "job_failed",
                    f"job {job.label()} failed: "
                    f"{type(exc).__name__}: {exc}",
                    detail={"job": job.label()}) from None
            self.metrics.executed += 1
            if self.cache is not None:
                with self.metrics.timer.phase("cache_store"):
                    try:
                        self.cache.put(job, value)
                    except OSError:
                        pass  # a full disk must not fail the response
        self.metrics.observe_inline(kind.name, time.perf_counter() - started,
                                    cached=hit)
        return {"key": job.key, "source": "cache" if hit else "executed",
                kind.field: jobmod.jsonable(value)}

    async def _post_sweep(self, request: HttpRequest) -> dict:
        payload = request.json()
        batch = jobmod.build_sweep_jobs(
            payload, max_jobs=self.config.max_sweep_jobs,
            max_tune_budget=self.config.max_tune_budget)
        deadline = self._deadline_from(payload)
        # Admission-check the whole batch up front so a sweep is all
        # or nothing — no half-admitted batches under pressure.  Jobs
        # already in flight or sitting in the persistent cache (a
        # cheap existence probe; the real read happens in submit) cost
        # no queue slots.
        fresh_keys = {
            job.key for job in batch
            if job.key not in self._inflight
            and (self.cache is None or not self.cache.path_for(job).exists())}
        if self._outstanding + len(fresh_keys) > self.config.queue_depth:
            self._raise_queue_full()
        outcomes = await asyncio.gather(
            *(self.submit(job, deadline) for job in batch),
            return_exceptions=True)
        results = []
        for job, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                raise outcome
            value, source = outcome
            results.append({"key": job.key, "source": source,
                            "result": jobmod.jsonable(value)})
        return {"count": len(results), "results": results}

    # ------------------------------------------------------------------
    # cache-slice administration (router warmup / hot-key replication)
    # ------------------------------------------------------------------

    def _require_cache(self) -> ResultCache:
        if self.cache is None:
            raise HttpError(409, "cache_disabled",
                            "this instance serves without a result cache")
        return self.cache

    def _authorize_cache_admin(self, request: HttpRequest) -> ResultCache:
        """Gate the ``/v1/cache/*`` endpoints.

        These endpoints enumerate, export and *install* raw cache
        entries — the transfer plane between cluster members, not part
        of the public serving surface.  With a ``cache_token``
        configured, every request must present it (constant-time
        comparison); without one they only answer on a loopback bind,
        so a shard exposed to the network (multi-host ``--shard``
        deployments) can never accept or leak entries from
        unauthenticated peers.
        """
        cache = self._require_cache()
        token = self.config.cache_token
        if token:
            sent = request.headers.get(CACHE_TOKEN_HEADER, "")
            if not hmac.compare_digest(sent.encode("utf-8"),
                                       token.encode("utf-8")):
                raise HttpError(
                    403, "bad_cache_token",
                    f"cache admin endpoints require the shared token "
                    f"in the {CACHE_TOKEN_HEADER} header")
        elif self.config.host not in _LOOPBACK_HOSTS:
            raise HttpError(
                403, "cache_admin_disabled",
                "cache admin endpoints are disabled on a non-loopback "
                "bind unless a cache token is configured "
                "(--cache-token / $REPRO_CACHE_TOKEN)")
        return cache

    async def _get_cache_manifest(self, request: HttpRequest) -> dict:
        """Enumerate this shard's cache slice (see shard warmup)."""
        cache = self._authorize_cache_admin(request)
        return await asyncio.to_thread(cache.manifest)

    async def _get_cache_entry(self, request: HttpRequest) -> dict:
        """Export one raw cache entry, base64-wrapped for transport."""
        import base64
        cache = self._authorize_cache_admin(request)
        key = request.query.get("key", "")
        try:
            data = await asyncio.to_thread(cache.export_entry, key)
        except ValueError as exc:
            raise HttpError(400, "bad_request", str(exc)) from None
        if data is None:
            raise HttpError(404, "not_cached",
                            f"no cache entry for key {key!r}")
        self.metrics.cache_exports += 1
        return {"key": key,
                "data": base64.b64encode(data).decode("ascii")}

    async def _post_cache_push(self, request: HttpRequest) -> dict:
        """Import exported entries (warmup / hot-key replication).

        Each entry is validated (hex key, base64 payload that
        unpickles under the engine's
        :data:`~repro.engine.cache.SAFE_ENTRY_GLOBALS` allowlist — the
        bytes are untrusted network input) and installed atomically;
        invalid entries are reported per-key, never imported, and
        never fail the batch.
        """
        import base64
        cache = self._authorize_cache_admin(request)
        payload = request.json()
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise HttpError(400, "bad_request",
                            "expected 'entries': a list of {key, data}")
        imported, rejected = 0, []
        for entry in entries:
            if not isinstance(entry, dict):
                rejected.append("<non-object>")
                continue
            key = entry.get("key", "")
            try:
                data = base64.b64decode(entry.get("data", ""),
                                        validate=True)
                ok = await asyncio.to_thread(cache.import_entry, key, data)
            except (ValueError, TypeError):
                ok = False
            if ok:
                imported += 1
            else:
                rejected.append(str(key)[:64])
        self.metrics.cache_imports += imported
        return {"imported": imported, "rejected": rejected}

    def _deadline_from(self, payload: dict) -> float:
        value = payload.get("deadline_s")
        if value is None:
            return self.config.deadline_s
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 < value < math.inf:
            raise HttpError(400, "bad_request",
                            f"invalid 'deadline_s': expected a positive "
                            f"number, got {value!r}")
        return min(float(value), self.config.deadline_s)

    # ------------------------------------------------------------------
    # the job pipeline: dedup -> cache -> admit -> batch -> pool
    # ------------------------------------------------------------------

    def _raise_queue_full(self):
        raise HttpError(
            429, "queue_full",
            f"admission queue is full ({self._outstanding}/"
            f"{self.config.queue_depth} jobs outstanding); retry shortly",
            retry_after_s=1.0)

    async def submit(self, job: SimJob, deadline_s: float):
        """Resolve one job through the pipeline; returns (value, source)."""
        if self._draining:
            raise HttpError(503, "draining",
                            "service is draining and not admitting work")
        self.metrics.jobs_submitted += 1
        key = job.key

        flight = self._inflight.get(key)
        if flight is not None:
            self.metrics.dedup_hits += 1
            return await self._await_flight(flight, deadline_s), "inflight"

        if self.cache is not None:
            with self.metrics.timer.phase("cache_lookup"):
                cached = self.cache.get(job)
            if not ResultCache.is_miss(cached):
                self.metrics.cache_hits += 1
                return cached, "cache"

        if self._outstanding >= self.config.queue_depth:
            self._raise_queue_full()

        flight = _Flight(job, asyncio.get_running_loop().create_future())
        flight.enqueued_at = time.perf_counter()
        self._inflight[key] = flight
        self._outstanding += 1
        self.metrics.observe_queue_depth(self._outstanding)
        self._queue.put_nowait(flight)
        return await self._await_flight(flight, deadline_s), "executed"

    async def _await_flight(self, flight: _Flight, deadline_s: float):
        flight.waiters += 1
        try:
            return await asyncio.wait_for(asyncio.shield(flight.future),
                                          timeout=deadline_s)
        except asyncio.TimeoutError:
            self.metrics.deadline_expired += 1
            detail = {"deadline_s": deadline_s, "job": flight.job.label()}
            raise HttpError(504, "deadline_exceeded",
                            f"job {flight.job.label()} missed its "
                            f"{deadline_s:g}s deadline", detail=detail) \
                from None
        except JobFailed as exc:
            raise HttpError(500, "job_failed",
                            f"job {exc.job.label()} failed: {exc.message}",
                            detail={"job": exc.job.label()}) from None
        finally:
            flight.waiters -= 1
            if flight.waiters == 0 and not flight.started \
                    and not flight.future.done():
                # Every interested request gave up before any worker
                # touched the job: cancel cooperatively.
                flight.cancelled = True
                self._forget(flight)
                self.metrics.cancelled_jobs += 1

    def _forget(self, flight: _Flight) -> None:
        if self._inflight.get(flight.job.key) is flight:
            del self._inflight[flight.job.key]
            self._outstanding -= 1

    # ------------------------------------------------------------------
    # the micro-batcher and the pool
    # ------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Group queued flights into micro-batches; never blocks on
        the pool — each batch runs in its own task and the pool's
        ``max_workers`` provides the real concurrency bound."""
        while True:
            flight = await self._queue.get()
            if flight is None:
                return
            batch = [flight]
            window_ends = time.monotonic() + self.config.batch_window_s
            while len(batch) < self.config.batch_max:
                timeout = window_ends - time.monotonic()
                if timeout <= 0:
                    break
                try:
                    extra = await asyncio.wait_for(self._queue.get(),
                                                   timeout=timeout)
                except asyncio.TimeoutError:
                    break
                if extra is None:
                    await self._queue.put(None)  # re-arm shutdown
                    break
                batch.append(extra)
            task = asyncio.create_task(self._serve_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _serve_batch(self, batch: "list[_Flight]") -> None:
        live = []
        for flight in batch:
            if flight.cancelled:
                continue
            flight.started = True
            self.metrics.timer.add(
                "queue_wait", time.perf_counter() - flight.enqueued_at)
            live.append(flight)
        if not live:
            return
        jobs = [flight.job for flight in live]
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(self._pool,
                                                  _execute_jobs, jobs)
        except BrokenExecutor:
            # A worker died (OOM-kill, segfault in an extension, ...).
            # Rebuild the pool and retry the whole batch once; pool
            # rebuild is cheap next to losing admitted work.
            self.metrics.worker_crashes += 1
            self.metrics.retries += 1
            self._pool.shutdown(wait=False)
            self._pool = self._make_pool()
            try:
                outcomes = await loop.run_in_executor(self._pool,
                                                      _execute_jobs, jobs)
            except BrokenExecutor:
                self.metrics.timer.add("execute",
                                       time.perf_counter() - started)
                for flight in live:
                    self._fail_flight(flight, "simulation worker crashed "
                                              "twice running this batch")
                return
        self.metrics.timer.add("execute", time.perf_counter() - started)
        self.metrics.batches += 1
        self.metrics.batch_jobs += len(live)
        for flight, outcome in zip(live, outcomes):
            status, value, span_start, span_duration, pid = outcome
            if self.profile is not None:
                self.profile.job_span(flight.job.label(), span_start,
                                      span_duration, pid)
            if status == "ok":
                self._finish_flight(flight, value)
            else:
                self.metrics.job_errors += 1
                self._fail_flight(flight, value)

    def _finish_flight(self, flight: _Flight, value) -> None:
        self.metrics.executed += 1
        if self.cache is not None:
            with self.metrics.timer.phase("cache_store"):
                try:
                    self.cache.put(flight.job, value)
                except OSError:
                    pass  # a full disk must not fail the response
        if self.profile is not None:
            self.profile.observe_results(value)
        self._forget(flight)
        if not flight.future.done():
            flight.future.set_result(value)

    def _fail_flight(self, flight: _Flight, message: str) -> None:
        self._forget(flight)
        if not flight.future.done():
            flight.future.set_exception(JobFailed(flight.job, message))
            # The exception is always retrieved by at least the waiter
            # that created the flight — unless every waiter timed out,
            # which asyncio would log; touch it to mark it retrieved.
            flight.future.exception()


#: How each lane of :data:`~repro.service.jobs.KINDS` is answered.
_LANES = {"pool": SimulationService._post_pool,
          "inline": SimulationService._post_inline}

_ROUTES = {
    ("GET", "/"): SimulationService._get_index,
    ("GET", "/healthz"): SimulationService._get_healthz,
    ("GET", "/readyz"): SimulationService._get_readyz,
    ("GET", "/metrics"): SimulationService._get_metrics,
    **{("POST", f"/v1/{name}"): _LANES[kind.lane]
       for name, kind in jobmod.KINDS.items()},
    ("POST", "/v1/sweep"): SimulationService._post_sweep,
    ("GET", "/v1/cache/manifest"): SimulationService._get_cache_manifest,
    ("GET", "/v1/cache/entry"): SimulationService._get_cache_entry,
    ("POST", "/v1/cache/push"): SimulationService._post_cache_push,
}
