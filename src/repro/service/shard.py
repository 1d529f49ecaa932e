"""The sharded serving tier: a consistent-hash router over N shards.

``python -m repro.service --router`` runs a :class:`ShardRouter` in
front of N ordinary :class:`~repro.service.core.SimulationService`
backends ("shards").  The router owns no simulation machinery at all —
it canonicalizes each request to its engine
:class:`~repro.engine.job.SimJob` content hash at the edge (reusing
the exact validation the shards apply, so malformed input dies at the
router with the same 400s), places that hash on a
:class:`~repro.service.ring.HashRing`, and relays the request body to
the owning shard, returning the shard's response bytes verbatim.

Why hash the *content key*: every property the single-node pipeline
worked for survives scale-out.

* Identical requests land on the same shard, so its single-flight
  table still collapses N concurrent duplicates to exactly one
  execution — now cluster-wide.
* A shard's persistent :class:`~repro.engine.cache.ResultCache` slice
  is disjoint from every other shard's, so cache capacity scales with
  the shard count (the serving-side analogue of the paper's
  clustering argument: keep reuse local).

Reliability is layered on top:

* **replica sets** — the ring computes ``replication`` owners per key;
  requests go primary-first and *fail over* along the set on
  connection errors, timeouts or a draining shard.  Simulation jobs
  are pure functions of their descriptor, so retrying a request whose
  connection died mid-flight is always safe.
* **hot-key replication** — a key routed ``hot_key_threshold`` times
  gets its cached result pushed to its standby replicas (raw cache
  entry bytes, so a failover answer is byte-identical), keeping tail
  latency flat when a hot shard dies.
* **manifest warmup** — on shard join the router pulls each peer's
  cache-slice manifest and copies the entries the ring now assigns to
  the newcomer; on graceful leave it redistributes the leaver's slice
  the same way.

The router's ``/metrics`` documents all of it (per-shard routing
counts, failovers, warmup totals, ring shape) for the load generator
to aggregate.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass

from repro.service import jobs as jobmod
from repro.service.config import RouterConfig
from repro.service.httpio import (
    HttpError,
    HttpRequest,
    JsonServer,
    read_response,
    route,
)
from repro.service.metrics import RESERVOIR, percentile
from repro.service.ring import HashRing

#: Upper bound on jobs per routed sweep (mirrors the shard default).
MAX_SWEEP_JOBS = 256

#: Tune budget bound the router validates against.  Budget caps are a
#: per-shard policy (``--max-tune-budget``); the router only needs the
#: canonical content hash, and the owning shard enforces its own cap.
ROUTER_TUNE_BUDGET = 1_000_000

#: Entries fetched/pushed per warmup round trip.
WARMUP_CHUNK = 32

#: Tracked-key table bound (hot-key accounting, not correctness).
MAX_TRACKED_KEYS = 65536


@dataclass(frozen=True)
class ShardSpec:
    """One backend shard: a name the ring hashes, and where it lives."""

    name: str
    host: str
    port: int
    pid: "int | None" = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def parse_shard_spec(text: str, index: int) -> ShardSpec:
    """``host:port`` or ``name=host:port`` -> a :class:`ShardSpec`."""
    name, _, address = text.rpartition("=")
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT or NAME=HOST:PORT, "
                         f"got {text!r}")
    return ShardSpec(name=name or f"shard-{index}", host=host,
                     port=int(port))


class ShardLink:
    """Keep-alive asyncio HTTP client pool for one shard.

    Connections are pooled per shard and reused across requests; a
    request that fails on a *reused* connection retries once on a
    fresh one (the stale-keep-alive case), while a fresh-connection
    failure propagates — that is the signal failover keys off.
    """

    #: Idle connections kept per shard.
    POOL = 4

    def __init__(self, spec: ShardSpec, *, connect_timeout_s: float,
                 request_timeout_s: float, cache_token: str = None):
        self.spec = spec
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.cache_token = cache_token
        self._free: "list[tuple]" = []

    async def _open(self):
        return await asyncio.wait_for(
            asyncio.open_connection(self.spec.host, self.spec.port),
            timeout=self.connect_timeout_s)

    async def _roundtrip(self, reader, writer, method: str, target: str,
                         body: bytes):
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"Host: {self.spec.address}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if self.cache_token:
            head += f"X-Repro-Cache-Token: {self.cache_token}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return await read_response(reader)

    async def request(self, method: str, target: str, body: bytes = b""
                      ) -> "tuple[int, dict[str, str], bytes]":
        reader = writer = None
        reused = bool(self._free)
        if reused:
            reader, writer = self._free.pop()
        else:
            reader, writer = await self._open()
        try:
            status, headers, data = await asyncio.wait_for(
                self._roundtrip(reader, writer, method, target, body),
                timeout=self.request_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            self._abort(writer)
            if not reused:
                raise
            # Stale pooled connection: one fresh attempt, then give up.
            reader, writer = await self._open()
            try:
                status, headers, data = await asyncio.wait_for(
                    self._roundtrip(reader, writer, method, target, body),
                    timeout=self.request_timeout_s)
            except BaseException:
                self._abort(writer)
                raise
        except BaseException:
            self._abort(writer)
            raise
        if headers.get("connection", "keep-alive").lower() == "close" \
                or len(self._free) >= self.POOL:
            self._abort(writer)
        else:
            self._free.append((reader, writer))
        return status, headers, data

    async def request_json(self, method: str, target: str,
                           payload: dict = None
                           ) -> "tuple[int, dict]":
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        status, _, data = await self.request(method, target, body)
        try:
            return status, json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise HttpError(502, "bad_upstream_response",
                            f"shard {self.spec.name} answered non-JSON")

    @staticmethod
    def _abort(writer) -> None:
        try:
            transport = writer.transport
            if transport is not None:
                transport.abort()
            writer.close()
        except Exception:
            pass

    def close(self) -> None:
        for _, writer in self._free:
            self._abort(writer)
        self._free.clear()


class ShardState:
    """Router-side view of one shard's health and traffic."""

    __slots__ = ("spec", "routed", "errors", "failover_wins", "dead_until")

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.routed = 0
        self.errors = 0
        self.failover_wins = 0
        self.dead_until = 0.0

    @property
    def dead(self) -> bool:
        return self.dead_until > time.monotonic()


@dataclass
class Relay:
    """A shard's answer, relayed byte-for-byte by the router."""

    status: int
    body: bytes
    retry_after_s: "float | None" = None


class RelayError(Exception):
    """Internal: surface a shard's non-200 answer for a whole request."""

    def __init__(self, relay: Relay):
        super().__init__(f"upstream answered {relay.status}")
        self.relay = relay


class RouterMetrics:
    """Counters behind the router's ``/metrics`` (single loop, no locks)."""

    def __init__(self):
        self.started = time.time()
        self.requests_total = 0
        self.requests_by_endpoint = Counter()
        self.responses_by_status = Counter()
        self.forwards = 0
        self.failovers = 0
        self.upstream_errors = 0
        self.all_replicas_failed = 0
        self.hot_keys = 0
        self.replicated_entries = 0
        self.warmed_entries = 0
        self.joins = 0
        self.leaves = 0
        self._latencies = deque(maxlen=RESERVOIR)

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def snapshot(self, *, ring: HashRing, replication: int,
                 shards: "dict[str, ShardState]", draining: bool) -> dict:
        import repro
        values = sorted(self._latencies)
        return {
            "schema": "repro.service.router/1",
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started, 3),
            "draining": draining,
            "requests": {
                "total": self.requests_total,
                "by_endpoint": dict(self.requests_by_endpoint),
                "by_status": {str(k): v
                              for k, v in self.responses_by_status.items()},
            },
            "routing": {
                "forwards": self.forwards,
                "failovers": self.failovers,
                "upstream_errors": self.upstream_errors,
                "all_replicas_failed": self.all_replicas_failed,
                "hot_keys": self.hot_keys,
                "replicated_entries": self.replicated_entries,
                "warmed_entries": self.warmed_entries,
                "joins": self.joins,
                "leaves": self.leaves,
            },
            "ring": {**ring.describe(), "replication": replication},
            "shards": {
                name: {
                    "address": state.spec.address,
                    "pid": state.spec.pid,
                    "state": "dead" if state.dead else "alive",
                    "routed": state.routed,
                    "errors": state.errors,
                    "failover_wins": state.failover_wins,
                } for name, state in sorted(shards.items())},
            "latency": {
                "count": len(values),
                "p50_ms": round(percentile(values, 0.50) * 1e3, 3),
                "p95_ms": round(percentile(values, 0.95) * 1e3, 3),
                "p99_ms": round(percentile(values, 0.99) * 1e3, 3),
                "max_ms": round(values[-1] * 1e3, 3) if values else 0.0,
            },
        }


class ShardRouter(JsonServer):
    """The routing daemon; construct, ``await start()``, let it run."""

    def __init__(self, config: RouterConfig = None, shards=(), *,
                 profile=None):
        self.config = config or RouterConfig()
        self.metrics = RouterMetrics()
        self.profile = profile  # optional repro.obs.ProfileSession
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.shards: "dict[str, ShardState]" = {}
        self.links: "dict[str, ShardLink]" = {}
        for spec in shards:
            self._admit(spec)
        self.port = None
        self._server = None
        self._draining = False
        self._active_requests = 0
        self._connections: "set[asyncio.StreamWriter]" = set()
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._tasks: "set[asyncio.Task]" = set()
        self._key_counts: "dict[str, int]" = {}
        self._replicated: "set[str]" = set()
        self._shutdown_requested = None

    def _admit(self, spec: ShardSpec) -> None:
        if spec.name in self.shards:
            raise ValueError(f"duplicate shard name {spec.name!r}")
        self.ring.add(spec.name)
        self.shards[spec.name] = ShardState(spec)
        self.links[spec.name] = ShardLink(
            spec, connect_timeout_s=self.config.connect_timeout_s,
            request_timeout_s=self.config.upstream_timeout_s,
            cache_token=self.config.cache_token)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        self._draining = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def wait_closed(self) -> None:
        await self._shutdown_requested.wait()
        await self._drain()

    async def _drain(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=1.0)
        # Close idle keep-alive connections so their handlers observe
        # EOF and finish on their own; cancel only the stragglers.
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        for task in list(self._tasks) + list(self._conn_tasks):
            task.cancel()
        pending = list(self._tasks) + list(self._conn_tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            # Bounded: on 3.11 wait_closed() blocks until every accepted
            # transport detaches, and a peer that never closes its side
            # must not be able to wedge the shutdown.
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=2.0)
            except asyncio.TimeoutError:
                pass
        for link in self.links.values():
            link.close()

    def _spawn(self, coroutine) -> None:
        task = asyncio.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # HTTP plumbing (same dialect the shards speak)
    # ------------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest):
        try:
            handler = route(_ROUTES, request)
            result = await handler(self, request)
            if isinstance(result, Relay):
                return result.status, result.body, result.retry_after_s
            return 200, result, None
        except RelayError as exc:
            return (exc.relay.status, exc.relay.body,
                    exc.relay.retry_after_s)
        except HttpError as exc:
            return exc.status, exc.payload(), exc.retry_after_s
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            error = HttpError(500, "internal_error",
                              f"unhandled {type(exc).__name__}: {exc}")
            return error.status, error.payload(), None

    # ------------------------------------------------------------------
    # plain endpoints
    # ------------------------------------------------------------------

    async def _get_index(self, request: HttpRequest) -> dict:
        import repro
        return {
            "service": "repro.service.router",
            "version": repro.__version__,
            "endpoints": sorted(f"{method} {path}"
                                for method, path in _ROUTES),
            "shards": self.ring.nodes,
            "replication": self.config.replication,
        }

    async def _get_healthz(self, request: HttpRequest) -> dict:
        return {"status": "ok"}

    async def _get_readyz(self, request: HttpRequest) -> dict:
        """Ready when at least one shard is — probed live, so a boot
        sequence can poll the router alone."""
        if self._draining:
            raise HttpError(503, "draining",
                            "router is draining and will exit")
        names = self.ring.nodes
        probes = await asyncio.gather(*(self._probe(name)
                                        for name in names))
        ready = sum(1 for ok in probes if ok)
        if ready == 0:
            raise HttpError(503, "no_shards_ready",
                            f"none of {len(names)} shard(s) is ready")
        return {"status": "ready", "shards_ready": ready,
                "shards_total": len(names)}

    async def _probe(self, name: str) -> bool:
        try:
            status, _, _ = await asyncio.wait_for(
                self.links[name].request("GET", "/readyz"),
                timeout=self.config.connect_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, HttpError):
            return False
        return status == 200

    async def _get_metrics(self, request: HttpRequest) -> dict:
        return self.metrics.snapshot(
            ring=self.ring, replication=self.config.replication,
            shards=self.shards, draining=self._draining)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _mark_dead(self, name: str) -> None:
        state = self.shards.get(name)
        if state is not None:
            state.dead_until = time.monotonic() + self.config.dead_retry_s

    def _owners(self, key: str) -> "list[str]":
        owners = self.ring.owners(key, self.config.replication)
        if not owners:
            raise HttpError(503, "no_shards",
                            "the ring has no shard members")
        return owners

    async def _guarded_request(self, link: ShardLink, method: str,
                               target: str, body: bytes
                               ) -> "tuple[int, dict[str, str], bytes]":
        """``link.request`` under a liveness watchdog.

        A legitimate slow answer (deep queue, long simulation) and a
        wedged shard look identical from the pending request alone, so
        while the request is outstanding the shard's ``/healthz`` is
        probed out-of-band every ``probe_interval_s`` on a fresh
        connection.  A live shard answers the probe instantly even
        under full load; a shard that cannot — SIGKILLed with its
        port still held open by an orphaned pool worker, a hard-hung
        process — raises ``ConnectionError`` here, which `_forward`
        treats like any other transport failure: mark dead, fail over.
        """
        task = asyncio.ensure_future(link.request(method, target, body))
        try:
            while True:
                done, _ = await asyncio.wait(
                    {task}, timeout=self.config.probe_interval_s)
                if done:
                    return task.result()
                if not await self._responsive(link.spec):
                    raise ConnectionError(
                        f"shard {link.spec.name} stopped answering "
                        f"health probes with a request pending")
        finally:
            if not task.done():
                task.cancel()
                try:
                    await task
                except (Exception, asyncio.CancelledError):
                    pass

    async def _responsive(self, spec: ShardSpec) -> bool:
        """One fresh-connection ``GET /healthz`` with a short deadline."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(spec.host, spec.port),
                timeout=self.config.probe_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        try:
            head = (f"GET /healthz HTTP/1.1\r\nHost: {spec.address}\r\n"
                    f"Connection: close\r\nContent-Length: 0\r\n\r\n")
            writer.write(head.encode("latin-1"))
            await writer.drain()
            status, _, _ = await asyncio.wait_for(
                read_response(reader), timeout=self.config.probe_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, HttpError):
            return False
        finally:
            ShardLink._abort(writer)
        return status == 200

    async def _forward(self, key: str, method: str, target: str,
                       body: bytes) -> "tuple[str, Relay]":
        """Relay one request along ``key``'s replica set.

        Primary first; dead-marked shards are tried last (they may
        have recovered).  Transport failures, timeouts and a shard's
        503 (draining) fail over to the next replica; every other
        status — including deterministic job failures — is the
        answer and relays verbatim.
        """
        owners = self._owners(key)
        candidates = [n for n in owners if not self.shards[n].dead] \
            + [n for n in owners if self.shards[n].dead]
        failures = []
        for name in candidates:
            state = self.shards.get(name)
            link = self.links.get(name)
            if state is None or link is None:
                continue  # left the ring while we were routing
            started = time.perf_counter()
            try:
                status, headers, data = await self._guarded_request(
                    link, method, target, body)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, HttpError) as exc:
                self._mark_dead(name)
                state.errors += 1
                self.metrics.upstream_errors += 1
                failures.append(f"{name}: {type(exc).__name__}")
                continue
            if status == 503 and name != candidates[-1]:
                self._mark_dead(name)
                state.errors += 1
                failures.append(f"{name}: 503")
                continue
            state.routed += 1
            state.dead_until = 0.0
            self.metrics.forwards += 1
            if failures:
                self.metrics.failovers += 1
                state.failover_wins += 1
            if self.profile is not None:
                self.profile.shard_span(
                    name, target, started,
                    time.perf_counter() - started)
            retry_after = headers.get("retry-after")
            try:
                retry_after_s = float(retry_after) if retry_after else None
            except ValueError:
                retry_after_s = None
            return name, Relay(status, data, retry_after_s)
        self.metrics.all_replicas_failed += 1
        raise HttpError(
            502, "all_replicas_failed",
            f"all {len(owners)} replica(s) for this key failed",
            detail={"replicas": owners, "failures": failures[:4]})

    async def _post_forward(self, request: HttpRequest) -> Relay:
        """Any ``/v1/<kind>`` of ``jobs.KINDS``: canonicalize, route,
        relay."""
        kind = jobmod.KINDS[request.path[len("/v1/"):]]
        job = kind.build(request.json(), max_tune_budget=ROUTER_TUNE_BUDGET)
        served_by, relay = await self._forward(
            job.key, "POST", request.path, request.body)
        if relay.status == 200:
            self._note_key(job.key)
        return relay

    def _note_key(self, key: str) -> None:
        """Hot-key accounting; promotion triggers replica warmup."""
        if self.config.replication < 2 or len(self.ring) < 2:
            return
        if key not in self._key_counts \
                and len(self._key_counts) >= MAX_TRACKED_KEYS:
            self._key_counts.clear()  # bounded memory beats exact counts
        count = self._key_counts.get(key, 0) + 1
        self._key_counts[key] = count
        if count == self.config.hot_key_threshold \
                and key not in self._replicated:
            self._replicated.add(key)
            self.metrics.hot_keys += 1
            self._spawn(self._replicate_key(key))

    async def _replicate_key(self, key: str) -> None:
        """Push a hot key's cached result to its standby replicas."""
        owners = self.ring.owners(key, self.config.replication)
        if len(owners) < 2:
            return
        primary, replicas = owners[0], owners[1:]
        try:
            status, doc = await self.links[primary].request_json(
                "GET", f"/v1/cache/entry?key={key}")
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, HttpError, KeyError):
            return
        if status != 200:
            return  # not cached (or cache off): nothing to replicate
        push = {"entries": [{"key": doc["key"], "data": doc["data"]}]}
        for name in replicas:
            try:
                status, answer = await self.links[name].request_json(
                    "POST", "/v1/cache/push", push)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, HttpError, KeyError):
                continue
            if status == 200:
                self.metrics.replicated_entries += answer.get("imported", 0)

    # ------------------------------------------------------------------
    # sweeps: split by owner, forward groups, reassemble in order
    # ------------------------------------------------------------------

    async def _post_sweep(self, request: HttpRequest) -> dict:
        payload = request.json()
        jobs = jobmod.build_sweep_jobs(payload, max_jobs=MAX_SWEEP_JOBS,
                                       max_tune_budget=ROUTER_TUNE_BUDGET)
        entries = payload["jobs"]
        deadline = payload.get("deadline_s")
        groups: "dict[str, list[int]]" = {}
        for index, job in enumerate(jobs):
            primary = self._owners(job.key)[0]
            groups.setdefault(primary, []).append(index)
        outcomes = await asyncio.gather(
            *(self._run_sweep_group(primary, indexes, jobs, entries,
                                    deadline)
              for primary, indexes in groups.items()),
            return_exceptions=True)
        results: "list" = [None] * len(jobs)
        for (primary, indexes), outcome in zip(groups.items(), outcomes):
            if isinstance(outcome, BaseException):
                raise outcome
            for index, result in zip(indexes, outcome):
                results[index] = result
        return {"count": len(results), "results": results}

    def _sweep_body(self, entries, deadline) -> bytes:
        body = {"jobs": entries}
        if deadline is not None:
            body["deadline_s"] = deadline
        return json.dumps(body).encode("utf-8")

    async def _run_sweep_group(self, primary, indexes, jobs, entries,
                               deadline) -> list:
        """One owner's slice of a sweep; per-job failover on shard loss."""
        state = self.shards.get(primary)
        if state is not None and not state.dead:
            body = self._sweep_body([entries[i] for i in indexes], deadline)
            try:
                status, _, data = await self._guarded_request(
                    self.links[primary], "POST", "/v1/sweep", body)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, HttpError):
                self._mark_dead(primary)
                state.errors += 1
                self.metrics.upstream_errors += 1
            else:
                if status == 200:
                    state.routed += 1
                    self.metrics.forwards += 1
                    return json.loads(data.decode("utf-8"))["results"]
                if status != 503:
                    # A definitive whole-group answer (429, 400, 504...):
                    # surface it for the request, as a single node would.
                    raise RelayError(Relay(status, data))
                self._mark_dead(primary)
                state.errors += 1
        # Primary is gone: walk each job's own replica chain.
        results = []
        for index in indexes:
            body = self._sweep_body([entries[index]], deadline)
            _, relay = await self._forward(jobs[index].key, "POST",
                                           "/v1/sweep", body)
            if relay.status != 200:
                raise RelayError(relay)
            document = json.loads(relay.body.decode("utf-8"))
            results.append(document["results"][0])
        self.metrics.failovers += 1
        return results

    # ------------------------------------------------------------------
    # membership: join/leave with manifest-based cache warmup
    # ------------------------------------------------------------------

    async def join(self, spec: ShardSpec, *, warm: bool = True) -> int:
        """Add a shard to the ring; returns warmed-entry count."""
        if spec.name in self.shards:
            raise HttpError(409, "shard_exists",
                            f"shard {spec.name!r} is already a member")
        sources = self.ring.nodes
        self._admit(spec)
        self.metrics.joins += 1
        if not (warm and sources):
            return 0
        return await self.warm_shard(spec.name, sources=sources)

    async def leave(self, name: str, *, warm: bool = True) -> int:
        """Remove a shard; redistributes its cache slice first when
        the leaver is still reachable (graceful leave)."""
        if name not in self.shards:
            raise HttpError(404, "no_such_shard",
                            f"no shard named {name!r}")
        copied = 0
        if warm and len(self.ring) > 1:
            copied = await self._redistribute_slice(name)
        self.ring.remove(name)
        del self.shards[name]
        self.links.pop(name).close()
        self.metrics.leaves += 1
        return copied

    async def warm_shard(self, target: str, *, sources=None) -> int:
        """Copy every entry the ring assigns to ``target`` from peers."""
        sources = [name for name in (sources or self.ring.nodes)
                   if name != target]
        have: "set[str]" = set()
        status, doc = await self._try_json(target, "GET",
                                           "/v1/cache/manifest")
        if status == 200:
            have = set(doc.get("keys", ()))
        total = 0
        for source in sources:
            status, doc = await self._try_json(source, "GET",
                                               "/v1/cache/manifest")
            if status != 200:
                continue
            keys = [key for key in doc.get("keys", ())
                    if key not in have
                    and target in self.ring.owners(
                        key, self.config.replication)]
            # Only keys that *arrived* count as held: an export or
            # import failure leaves the key eligible when a later
            # source holds the same entry (replicated slices overlap).
            copied = await self._copy_entries(source, target, keys)
            total += len(copied)
            have.update(copied)
        self.metrics.warmed_entries += total
        return total

    async def _redistribute_slice(self, leaver: str) -> int:
        """Move the leaver's entries to their post-departure owners."""
        status, doc = await self._try_json(leaver, "GET",
                                           "/v1/cache/manifest")
        if status != 200:
            return 0  # crashed/cache-less leaver: nothing to salvage
        survivor_ring = HashRing(
            (n for n in self.ring.nodes if n != leaver),
            vnodes=self.config.vnodes)
        moves: "dict[str, list[str]]" = {}
        for key in doc.get("keys", ()):
            for owner in survivor_ring.owners(key, self.config.replication):
                moves.setdefault(owner, []).append(key)
        total = 0
        for target, keys in moves.items():
            total += len(await self._copy_entries(leaver, target, keys))
        self.metrics.warmed_entries += total
        return total

    async def _try_json(self, name: str, method: str, target: str,
                        payload: dict = None) -> "tuple[int, dict]":
        try:
            return await self.links[name].request_json(method, target,
                                                       payload)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, HttpError, KeyError):
            return 0, {}

    async def _copy_entries(self, source: str, target: str, keys
                            ) -> "set[str]":
        """Move entries ``source`` -> ``target``; returns the keys that
        actually landed (export fetched, push accepted), so callers
        can retry the rest against other sources."""
        copied: "set[str]" = set()
        for start in range(0, len(keys), WARMUP_CHUNK):
            entries = []
            for key in keys[start:start + WARMUP_CHUNK]:
                status, doc = await self._try_json(
                    source, "GET", f"/v1/cache/entry?key={key}")
                if status == 200 and doc.get("key") == key \
                        and "data" in doc:
                    entries.append({"key": key, "data": doc["data"]})
            if not entries:
                continue
            status, answer = await self._try_json(
                target, "POST", "/v1/cache/push", {"entries": entries})
            if status != 200:
                continue
            rejected = {str(key) for key in answer.get("rejected", ())}
            copied.update(entry["key"] for entry in entries
                          if entry["key"] not in rejected)
        return copied

    async def _post_join(self, request: HttpRequest) -> dict:
        payload = request.json()
        name = payload.get("name")
        host = payload.get("host", "127.0.0.1")
        port = payload.get("port")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "bad_request",
                            "invalid 'name': expected a non-empty string")
        if not isinstance(host, str) or not host:
            raise HttpError(400, "bad_request",
                            "invalid 'host': expected a non-empty string")
        if isinstance(port, bool) or not isinstance(port, int) \
                or not 0 < port < 65536:
            raise HttpError(400, "bad_request",
                            "invalid 'port': expected a TCP port number")
        warm = payload.get("warm", True)
        warmed = await self.join(ShardSpec(name=name, host=host, port=port),
                                 warm=bool(warm))
        return {"joined": name, "warmed_entries": warmed,
                "ring": self.ring.describe()}

    async def _post_leave(self, request: HttpRequest) -> dict:
        payload = request.json()
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "bad_request",
                            "invalid 'name': expected a non-empty string")
        warm = payload.get("warm", True)
        copied = await self.leave(name, warm=bool(warm))
        return {"left": name, "redistributed_entries": copied,
                "ring": self.ring.describe()}


_ROUTES = {
    ("GET", "/"): ShardRouter._get_index,
    ("GET", "/healthz"): ShardRouter._get_healthz,
    ("GET", "/readyz"): ShardRouter._get_readyz,
    ("GET", "/metrics"): ShardRouter._get_metrics,
    **{("POST", f"/v1/{name}"): ShardRouter._post_forward
       for name in jobmod.KINDS},
    ("POST", "/v1/sweep"): ShardRouter._post_sweep,
    ("POST", "/v1/admin/join"): ShardRouter._post_join,
    ("POST", "/v1/admin/leave"): ShardRouter._post_leave,
}
