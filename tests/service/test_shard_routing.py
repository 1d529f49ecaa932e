"""Routing acceptance tests: bit-identity, exactly-once, warmup.

The sharded tier's core promise is that scale-out is *transparent*:
a routed response is byte-for-byte what a single node would have
served, N concurrent identical requests still execute exactly once —
now cluster-wide — and membership changes move cache entries instead
of losing them.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

import repro.service.core as core
from repro.service.client import FailoverClient, ServiceError
from repro.service.embed import EmbeddedCluster, EmbeddedService
from repro.service.jobs import KINDS
from repro.service.ring import HashRing
from repro.service.shard import parse_shard_spec

SIM = {"workload": "NN", "gpu": "GTX980", "scale": 0.2, "seed": 7}


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def raw_post(port: int, path: str, payload: dict) -> "tuple[int, bytes]":
    """One request, raw response body bytes — no client-side parsing."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        connection.request("POST", path, body=json.dumps(payload),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def cluster_executed(cluster: EmbeddedCluster) -> int:
    """Total jobs *executed* (not deduped/cached) across live shards."""
    total = 0
    for index, shard in enumerate(cluster.shards):
        if not shard.alive:
            continue
        with cluster.shard_client(index) as client:
            total += client.metrics()["jobs"]["executed"]
    return total


#: One small request per served kind (every entry of ``jobs.KINDS``).
KIND_PAYLOADS = {
    "simulate": {**SIM, "scale": 0.1},
    "estimate": {**SIM, "scale": 0.1, "scheme": "CLU"},
    "bound": {"workload": "NN", "gpu": "GTX980", "scale": 0.1},
    "cotenant": {"gpu": "GTX980", "policy": "sm-split",
                 "tenants": [{"workload": "NN", "scale": 0.1},
                             {"workload": "ATX", "scale": 0.1}]},
    "cluster": {"workload": "NN", "gpu": "GTX980", "direction": "Y-P"},
    "tune": {"workload": "NN", "gpu": "GTX980", "budget": 3, "scale": 0.1},
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_routed_response_bytes_equal_single_node(kind):
    """A cold request through the router must produce *byte-identical*
    HTTP bodies to a cold request against a standalone service, for
    every kind a shard serves."""
    path, payload = f"/v1/{kind}", KIND_PAYLOADS[kind]
    with EmbeddedCluster(shards=2, workers=0) as cluster:
        status, routed = raw_post(cluster.router.port, path, payload)
        assert status == 200, routed
    with EmbeddedService(workers=0, cache=False) as single:
        status, direct = raw_post(single.port, path, payload)
        assert status == 200, direct
    assert routed == direct


def test_router_index_lists_every_kind():
    with EmbeddedCluster(shards=1, workers=0) as cluster:
        with cluster.client() as client:
            endpoints = client._call("GET", "/")["endpoints"]
    assert {f"POST /v1/{kind}" for kind in KINDS} <= set(endpoints)
    assert {"POST /v1/bound", "POST /v1/cotenant"} <= set(endpoints)


def test_16_concurrent_identical_requests_execute_once(monkeypatch):
    """The acceptance criterion: 16 concurrent identical requests
    through the router collapse to exactly one execution cluster-wide,
    and all 16 responses carry the same key and result."""
    release = threading.Event()
    real = core._execute_jobs

    def gated(batch):
        assert release.wait(timeout=30.0), "gate never released"
        return real(batch)

    monkeypatch.setattr(core, "_execute_jobs", gated)
    with EmbeddedCluster(shards=2, workers=0) as cluster:
        port = cluster.router.port
        answers: "list[tuple[int, bytes]]" = []

        def one():
            answers.append(raw_post(port, "/v1/simulate", dict(SIM)))

        threads = [threading.Thread(target=one, daemon=True)
                   for _ in range(16)]
        for thread in threads:
            thread.start()
        # Hold the gate until every request is admitted on its shard:
        # they are all in flight *simultaneously*, so nothing below
        # can be explained by lucky serialization.
        submitted = lambda: sum(
            cluster.shards[i].service.metrics.jobs_submitted
            for i in range(2))
        assert wait_until(lambda: submitted() >= 16), \
            f"only {submitted()} of 16 requests admitted"
        release.set()
        for thread in threads:
            thread.join(timeout=60.0)

        assert len(answers) == 16
        assert all(status == 200 for status, _ in answers)
        documents = [json.loads(body) for _, body in answers]
        assert len({doc["key"] for doc in documents}) == 1
        results = {json.dumps(doc["result"], sort_keys=True)
                   for doc in documents}
        assert len(results) == 1, "divergent results across duplicates"
        assert cluster_executed(cluster) == 1


def test_sweep_splits_by_owner_and_preserves_order():
    """A sweep fans out by ring owner but reassembles in submission
    order, with results identical to a single node's sweep."""
    jobs = [{"workload": "NN", "gpu": "GTX980", "scale": 0.2,
             "seed": seed} for seed in range(6)]
    with EmbeddedCluster(shards=2, workers=0) as cluster:
        with cluster.client() as client:
            routed = client.sweep(jobs)
        spread = {name: info["routed"]
                  for name, info in cluster.client().metrics()
                  ["shards"].items()}
    with EmbeddedService(workers=0, cache=False) as single:
        with single.client() as client:
            direct = client.sweep(jobs)
    assert routed == direct
    assert sum(spread.values()) >= 1  # at least one group forwarded


def test_join_warms_exactly_the_ring_assigned_slice():
    """``add_shard`` copies to the newcomer precisely the cached keys
    the ring now assigns it — computed independently here with a
    reference ring."""
    seeds = range(8)
    with EmbeddedCluster(shards=2, replication=2, workers=0) as cluster:
        with cluster.client() as client:
            keys = [client.simulate(**{**SIM, "seed": seed}, full=True)
                    ["key"] for seed in seeds]
            cluster.add_shard(warm=True)
            metrics = client.metrics()
        reference = HashRing(["shard-0", "shard-1", "shard-2"])
        expected = {key for key in keys
                    if "shard-2" in reference.owners(key, 2)}
        assert metrics["routing"]["warmed_entries"] == len(expected)
        with cluster.shard_client(2) as shard:
            manifest = shard._call("GET", "/v1/cache/manifest")
        assert expected <= set(manifest["keys"])
        # And the cluster still serves every key bit-identically.
        with cluster.client() as client:
            for seed in seeds:
                assert client.simulate(**{**SIM, "seed": seed},
                                       full=True)["key"] in keys


def test_graceful_leave_redistributes_the_slice():
    """Removing a shard pushes its cache slice to the survivors first,
    so nothing previously cached needs re-execution."""
    seeds = range(6)
    with EmbeddedCluster(shards=3, replication=2, workers=0) as cluster:
        with cluster.client() as client:
            for seed in seeds:
                client.simulate(**{**SIM, "seed": seed})
        with cluster.shard_client(2) as shard:
            leaver_held = len(shard._call("GET", "/v1/cache/manifest")
                              ["keys"])
        def survivors_executed():
            total = 0
            for index in (0, 1):
                with cluster.shard_client(index) as shard:
                    total += shard.metrics()["jobs"]["executed"]
            return total

        executed_before = survivors_executed()
        answer = cluster.remove_shard(2, warm=True)
        assert answer["left"] == "shard-2"
        if leaver_held:
            assert answer["redistributed_entries"] >= leaver_held
        with cluster.client() as client:
            for seed in seeds:
                client.simulate(**{**SIM, "seed": seed})
        # Every re-request was served from a cache somewhere.
        assert survivors_executed() == executed_before


def test_cache_entry_transfer_roundtrip():
    """The transfer endpoints move entries verbatim: export from one
    service, push into another, and the receiver serves it as a cache
    hit."""
    with EmbeddedCluster(shards=2, workers=0) as cluster:
        with cluster.client() as client:
            envelope = client.simulate(**SIM, full=True)
        key = envelope["key"]
        owner = None
        for index in range(2):
            with cluster.shard_client(index) as shard:
                if key in shard._call("GET", "/v1/cache/manifest")["keys"]:
                    owner = index
        assert owner is not None
        other = 1 - owner
        with cluster.shard_client(owner) as source:
            entry = source._call("GET", f"/v1/cache/entry?key={key}")
        assert entry["key"] == key
        with cluster.shard_client(other) as target:
            pushed = target._call("POST", "/v1/cache/push",
                                  {"entries": [entry]})
            assert pushed["imported"] == 1
            served = target._call("POST", "/v1/simulate", dict(SIM))
        assert served["source"] == "cache"
        assert served["result"] == envelope["result"]


def test_router_passes_through_shard_errors_verbatim():
    """Deterministic 4xx answers from a shard relay unchanged (no
    failover, no rewriting) — the router only retries what retrying
    can fix."""
    with EmbeddedCluster(shards=2, workers=0) as cluster:
        with cluster.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate("NOPE", "GTX980")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "unknown workload" in str(excinfo.value)
        metrics = cluster.client().metrics()
        assert metrics["routing"]["failovers"] == 0


def test_failover_client_walks_endpoints():
    """The client-side half of availability: a FailoverClient keeps
    working when its first endpoint is gone."""
    first = EmbeddedService(workers=0, cache=False).start()
    second = EmbeddedService(workers=0, cache=False).start()
    try:
        client = FailoverClient([("127.0.0.1", first.port),
                                 ("127.0.0.1", second.port)])
        direct = client.simulate(**SIM)
        first.kill()
        assert client.simulate(**SIM) == direct
        assert client.failovers >= 1
        client.close()
    finally:
        if first.alive:
            first.stop()
        second.stop()


def test_parse_shard_spec():
    spec = parse_shard_spec("10.0.0.5:9000", 3)
    assert (spec.name, spec.host, spec.port) == ("shard-3", "10.0.0.5",
                                                 9000)
    named = parse_shard_spec("cache-a=h1:81", 0)
    assert (named.name, named.host, named.port) == ("cache-a", "h1", 81)
    with pytest.raises(ValueError):
        parse_shard_spec("no-port", 0)


class TestWarmupPartialSources:
    """`warm_shard` must only count a key as held by the target when
    its copy actually landed — a failed export from one source leaves
    the key eligible for later sources holding the same entry."""

    def test_failed_copy_retries_against_a_later_source(self):
        import asyncio
        import base64
        import hashlib
        import pickle

        from repro.service.config import RouterConfig
        from repro.service.shard import ShardRouter, ShardSpec

        k1 = hashlib.sha256(b"k1").hexdigest()
        k2 = hashlib.sha256(b"k2").hexdigest()
        data = base64.b64encode(pickle.dumps({"cycles": 1})).decode()
        router = ShardRouter(RouterConfig(replication=3), [
            ShardSpec("a", "127.0.0.1", 1),
            ShardSpec("b", "127.0.0.1", 2),
            ShardSpec("t", "127.0.0.1", 3),
        ])
        pushed = []

        async def fake_try_json(name, method, target, payload=None):
            if target == "/v1/cache/manifest":
                return 200, {"keys": {"a": [k1, k2], "b": [k2],
                                      "t": []}[name]}
            if target.startswith("/v1/cache/entry"):
                key = target.rpartition("key=")[2]
                if name == "a" and key == k2:
                    return 0, {}  # source a cannot export this entry
                return 200, {"key": key, "data": data}
            assert target == "/v1/cache/push"
            pushed.append((name,
                           sorted(e["key"] for e in payload["entries"])))
            return 200, {"imported": len(payload["entries"]),
                         "rejected": []}

        router._try_json = fake_try_json
        total = asyncio.run(router.warm_shard("t", sources=["a", "b"]))
        # k1 arrives from a; k2 fails on a but must still come from b.
        assert total == 2
        assert ("t", [k1]) in pushed
        assert ("t", [k2]) in pushed
        assert router.metrics.warmed_entries == 2
