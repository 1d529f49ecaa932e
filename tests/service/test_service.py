"""End-to-end service tests over a real listening socket.

Every test talks HTTP to an :class:`~repro.service.embed.EmbeddedService`
through the stdlib client.  Determinism tricks:

* ``workers=0`` runs simulations on one in-process worker thread, so
  ``repro.service.core._execute_jobs`` is monkeypatchable — tests gate
  it on a :class:`threading.Event` to freeze "a job is executing"
  states instead of sleeping;
* the event loop stays responsive while a job is frozen (that is the
  point of the offload), so ``/metrics`` polls observe intermediate
  states exactly.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.service.core as core
from repro.api import simulate
from repro.gpu.metrics import canonical_metrics
from repro.service.client import ServiceClient, ServiceError

SIM = {"workload": "NN", "gpu": "GTX980", "scale": 0.2, "seed": 7}


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class GatedExecutor:
    """Wrap the real batch executor behind a release gate + counter."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self.jobs_seen = 0
        self._real = core._execute_jobs

    def __call__(self, batch):
        self.calls += 1
        self.jobs_seen += len(batch)
        assert self.release.wait(timeout=30.0), "gate never released"
        return self._real(batch)


@pytest.fixture
def gate(monkeypatch):
    gated = GatedExecutor()
    monkeypatch.setattr(core, "_execute_jobs", gated)
    yield gated
    gated.release.set()  # never leave a worker thread frozen


class TestLifecycle:
    def test_start_ready_drain_exit(self, service_factory):
        service = service_factory(workers=0, cache=False)
        client = service.client()
        assert client.healthz()
        assert client.readyz()
        assert client.simulate("NN", "GTX980", scale=0.2)["scheme"] == "BSL"
        client.close()
        port = service.port
        service.stop()
        fresh = ServiceClient(port=port, timeout=2.0)
        with pytest.raises(OSError):
            fresh._request("GET", "/healthz")

    def test_draining_flips_readyz_and_rejects_work(self, service_factory):
        service = service_factory(workers=0, cache=False)
        client = service.client()
        service.service._draining = True  # white-box: drain flag only
        try:
            assert client.healthz()        # liveness stays green
            assert not client.readyz()     # readiness goes red
            with pytest.raises(ServiceError) as excinfo:
                client.simulate("NN", "GTX980", scale=0.2)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "draining"
        finally:
            service.service._draining = False
        client.close()

    def test_index_lists_endpoints(self, service_factory):
        service = service_factory(workers=0, cache=False)
        document = service.client()._call("GET", "/")
        assert "POST /v1/simulate" in document["endpoints"]


class TestSingleFlightDedup:
    def test_16_concurrent_identical_requests_execute_once(
            self, service_factory, gate):
        """The acceptance-criteria proof: N identical concurrent
        requests cause exactly one underlying simulator execution and
        all N responses are bit-identical to the direct facade call."""
        service = service_factory(workers=0, cache=False)
        results, errors = [], []

        def hit():
            client = service.client()
            try:
                results.append(client.simulate(full=True, **SIM))
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=hit) for _ in range(16)]
        for thread in threads:
            thread.start()
        # Hold the gate until every request has reached the pipeline,
        # so each one must resolve through dedup, not the cache.
        poll = service.client()
        assert wait_until(
            lambda: poll.metrics()["jobs"]["submitted"] == 16)
        gate.release.set()
        for thread in threads:
            thread.join(timeout=30.0)

        assert not errors
        assert gate.calls == 1, "more than one batch executed"
        assert gate.jobs_seen == 1, "more than one simulator execution"
        direct = canonical_metrics(
            simulate("NN", "GTX980", scale=0.2, seed=7))
        assert all(entry["result"] == direct for entry in results)
        metrics = poll.metrics()
        assert metrics["jobs"]["executed"] == 1
        assert metrics["jobs"]["dedup_hits"] == 15
        assert metrics["jobs"]["dedup_hit_ratio"] == pytest.approx(15 / 16)
        poll.close()

    def test_within_sweep_dedup(self, service_factory):
        service = service_factory(workers=0, cache=False)
        client = service.client()
        entries = client.sweep([SIM, dict(SIM)])
        assert entries[0]["key"] == entries[1]["key"]
        assert sorted(e["source"] for e in entries) == ["executed",
                                                        "inflight"]
        assert entries[0]["result"] == entries[1]["result"]
        client.close()


class TestResultCache:
    def test_cache_survives_restart(self, service_factory):
        first = service_factory(workers=0, cache=True)
        served = first.client().simulate(full=True, **SIM)
        assert served["source"] == "executed"
        first.stop()
        second = service_factory(workers=0, cache=True)
        again = second.client().simulate(full=True, **SIM)
        assert again["source"] == "cache"
        assert again["result"] == served["result"]

    def test_repeat_request_hits_cache(self, service_factory):
        service = service_factory(workers=0, cache=True)
        client = service.client()
        assert client.simulate(full=True, **SIM)["source"] == "executed"
        assert client.simulate(full=True, **SIM)["source"] == "cache"
        snapshot = client.metrics()
        assert snapshot["jobs"]["cache_hits"] == 1
        assert snapshot["result_cache"]["writes"] == 1
        client.close()


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(
            self, service_factory, gate):
        service = service_factory(workers=0, cache=False, queue_depth=1)
        blocked_result = []
        blocker = threading.Thread(
            target=lambda: blocked_result.append(
                service.client().simulate(**SIM)))
        blocker.start()
        poll = service.client()
        assert wait_until(
            lambda: poll.metrics()["queue"]["depth"] == 1)

        with pytest.raises(ServiceError) as excinfo:
            poll.simulate("NN", "GTX980", scale=0.2, seed=99)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.retry_after_s >= 1

        gate.release.set()
        blocker.join(timeout=30.0)
        assert blocked_result, "blocked request never completed"
        snapshot = poll.metrics()
        assert snapshot["requests"]["rejected_queue_full"] == 1
        assert snapshot["queue"]["peak"] == 1
        poll.close()

    def test_oversweep_rejected_up_front(self, service_factory, gate):
        service = service_factory(workers=0, cache=False, queue_depth=2)
        client = service.client()
        jobs = [dict(SIM, seed=n) for n in range(3)]
        with pytest.raises(ServiceError) as excinfo:
            client.sweep(jobs)
        assert excinfo.value.status == 429
        # Nothing half-admitted: the queue is still empty.
        assert client.metrics()["queue"]["depth"] == 0
        client.close()


class TestDeadlines:
    def test_deadline_expiry_is_504(self, service_factory, gate):
        service = service_factory(workers=0, cache=False)
        client = service.client()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(deadline_s=0.1, **SIM)
        assert excinfo.value.status == 504
        assert excinfo.value.code == "deadline_exceeded"
        assert client.metrics()["jobs"]["deadline_expired"] == 1
        client.close()

    def test_unstarted_job_is_cancelled_cooperatively(
            self, service_factory, gate):
        # A wide batch window keeps the flight in batch assembly past
        # its deadline; with no waiters left it must be dropped before
        # the pool ever sees it.
        service = service_factory(workers=0, cache=False,
                                  batch_window_s=0.6, batch_max=4)
        client = service.client()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(deadline_s=0.05, **SIM)
        assert excinfo.value.status == 504
        gate.release.set()
        assert wait_until(
            lambda: client.metrics()["jobs"]["cancelled"] == 1)
        snapshot = client.metrics()
        assert snapshot["jobs"]["executed"] == 0
        assert snapshot["queue"]["depth"] == 0
        assert gate.jobs_seen == 0
        client.close()

    def test_request_deadline_capped_by_config(self, service_factory):
        service = service_factory(workers=0, cache=False, deadline_s=5.0)
        client = service.client()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(deadline_s=-3, **SIM)
        assert excinfo.value.status == 400
        client.close()


class TestWorkerCrashRecovery:
    def test_broken_pool_retries_once_then_succeeds(
            self, service_factory, monkeypatch):
        real = core._execute_jobs
        state = {"calls": 0}

        def flaky(batch):
            state["calls"] += 1
            if state["calls"] == 1:
                from concurrent.futures import BrokenExecutor
                raise BrokenExecutor("worker died")
            return real(batch)

        monkeypatch.setattr(core, "_execute_jobs", flaky)
        service = service_factory(workers=0, cache=False)
        client = service.client()
        served = client.simulate(full=True, **SIM)
        assert served["source"] == "executed"
        snapshot = client.metrics()
        assert snapshot["jobs"]["worker_crashes"] == 1
        assert snapshot["jobs"]["retries"] == 1
        client.close()

    def test_double_crash_is_structured_500(self, service_factory,
                                            monkeypatch):
        def always_broken(batch):
            from concurrent.futures import BrokenExecutor
            raise BrokenExecutor("worker died again")

        monkeypatch.setattr(core, "_execute_jobs", always_broken)
        service = service_factory(workers=0, cache=False)
        client = service.client()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(**SIM)
        assert excinfo.value.status == 500
        assert excinfo.value.code == "job_failed"
        assert "crashed twice" in str(excinfo.value)
        client.close()


class TestErrors:
    def test_unknown_workload_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("NOPE", "GTX980")
        assert excinfo.value.status == 400
        assert "known" in str(excinfo.value)
        client.close()

    def test_unknown_path_is_404(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        status, payload = client._request("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        client.close()

    def test_wrong_method_is_405(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        status, payload = client._request("GET", "/v1/simulate")
        assert status == 405
        client.close()

    def test_bad_json_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        connection = client._connect()
        connection.request("POST", "/v1/simulate", body=b"{{{",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        client.close()

    def test_nan_deadline_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        connection = client._connect()
        connection.request(
            "POST", "/v1/simulate",
            body=b'{"workload": "NN", "gpu": "GTX980", "deadline_s": NaN}',
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = response.read()
        assert response.status == 400

        def strict(constant):
            raise ValueError(f"non-JSON constant {constant} in the answer")

        error = json.loads(body, parse_constant=strict)["error"]
        assert error["code"] == "bad_request"
        assert "deadline_s" in error["message"]
        client.close()

    def test_executor_failure_is_structured_500(self, service_factory,
                                                monkeypatch):
        from repro.engine.executors import EXECUTORS

        def broken(job):
            raise RuntimeError("executor broke")

        # A well-formed request whose executor genuinely fails.
        monkeypatch.setitem(EXECUTORS, "reuse", broken)
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.sweep([{"kind": "reuse", "workload": "NN"}])
        assert excinfo.value.status == 500
        assert excinfo.value.code == "job_failed"
        assert "executor broke" in str(excinfo.value)
        client.close()

    def test_malformed_engine_kind_entry_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.sweep([{"kind": "reuse"}])
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        client.close()


class TestBitIdentityAcrossProcessPool:
    def test_served_equals_direct_with_real_workers(self, service_factory):
        """Same check as the dedup test but across a genuine
        ProcessPoolExecutor boundary (pickle round-trip included)."""
        service = service_factory(workers=1, cache=False)
        client = service.client()
        served = client.simulate("BS", "Tesla K40", scale=0.2, seed=1)
        direct = canonical_metrics(
            simulate("BS", "Tesla K40", scale=0.2, seed=1))
        assert served == direct
        client.close()


class TestProfileIntegration:
    def test_job_spans_and_phases_recorded(self, service_factory):
        from repro.obs import ProfileSession, validate_profile
        profile = ProfileSession(label="service-test")
        service = service_factory(workers=0, cache=False, profile=profile)
        client = service.client()
        client.simulate(**SIM)
        client.simulate(**dict(SIM, seed=8))
        service.stop()
        assert len(profile.job_spans) == 2
        assert profile.cells, "served metrics were not observed"
        validate_profile(profile.summary())

    def test_metrics_expose_phase_seconds(self, service_factory):
        service = service_factory(workers=0, cache=False)
        client = service.client()
        client.simulate(**SIM)
        phases = client.metrics()["phase_seconds"]
        assert "execute" in phases
        assert "queue_wait" in phases
        client.close()


class TestTuneEndpoint:
    TUNE = dict(workload="NN", gpu="Tesla K40", strategy="hillclimb",
                budget=6, scale=0.3, seed=0)

    def test_served_tune_equals_in_process_record(self, service_factory,
                                                  tmp_path, monkeypatch):
        """Acceptance: POST /v1/tune serves the identical result record
        (modulo JSON) as repro.api.tune in-process."""
        import json

        from repro.api import tune
        from repro.service.jobs import jsonable

        # Server workers and the in-process tune share one cache root,
        # like production: candidate evaluations hit the shared cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        client = service_factory(workers=0, cache=False).client()
        served = client.tune(**self.TUNE)
        direct = jsonable(tune(**self.TUNE).record())
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        assert served["best"]["score"] <= served["baseline"]["score"]
        client.close()

    def test_repeat_tune_hits_result_cache(self, service_factory):
        service = service_factory(workers=0, cache=True)
        client = service.client()
        first = client.tune(**self.TUNE, full=True)
        second = client.tune(**self.TUNE, full=True)
        assert first["key"] == second["key"]
        assert second["source"] == "cache"
        assert second["result"] == first["result"]
        client.close()

    def test_unknown_strategy_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.tune("NN", "Tesla K40", strategy="annealing")
        assert excinfo.value.status == 400
        assert "known" in str(excinfo.value)
        client.close()

    def test_unknown_objective_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.tune("NN", "Tesla K40", objective="watts")
        assert excinfo.value.status == 400
        client.close()

    def test_budget_over_config_cap_is_400(self, service_factory):
        service = service_factory(workers=0, cache=False,
                                  max_tune_budget=8)
        client = service.client()
        with pytest.raises(ServiceError) as excinfo:
            client.tune("NN", "Tesla K40", budget=9)
        assert excinfo.value.status == 400
        assert "budget" in str(excinfo.value)
        client.close()

    def test_unknown_workload_is_400(self, service_factory):
        client = service_factory(workers=0, cache=False).client()
        with pytest.raises(ServiceError) as excinfo:
            client.tune("NOPE", "Tesla K40")
        assert excinfo.value.status == 400
        client.close()
