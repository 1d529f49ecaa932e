"""Batch occupancy: the worker's micro-batch loop and the ``/metrics`` view.

The micro-batcher already counts batches and jobs; this file pins the
occupancy section of the metrics snapshot (``capacity``/``fill_ratio``
against the configured ``batch_max``) and the worker function that
runs a micro-batch job by job, including its per-job error isolation.
"""

from __future__ import annotations

from repro.engine.executors import execute
from repro.engine.job import SimJob
from repro.gpu.metrics import metrics_fingerprint
from repro.service.core import _execute_jobs
from repro.service.metrics import ServiceMetrics


def simulate_job(workload: str, scheme: str, seed: int = 0) -> SimJob:
    return SimJob.make("simulate", workload=workload, gpu="Tesla K40",
                       scheme=scheme, scale=0.3, seed=seed, warmups=1)


class TestMetricsSnapshot:
    def snapshot(self, metrics, **overrides):
        kwargs = {"queue_depth": 0, "queue_capacity": 64,
                  "draining": False, "batch_max": 8}
        kwargs.update(overrides)
        return metrics.snapshot(**kwargs)

    def test_occupancy_fields(self):
        metrics = ServiceMetrics()
        metrics.batches = 2
        metrics.batch_jobs = 12
        batches = self.snapshot(metrics)["batches"]
        assert batches["count"] == 2
        assert batches["jobs"] == 12
        assert batches["mean_size"] == 6.0
        assert batches["capacity"] == 8
        assert batches["fill_ratio"] == 12 / 16

    def test_occupancy_zero_safe(self):
        batches = self.snapshot(ServiceMetrics())["batches"]
        assert batches["fill_ratio"] == 0.0
        assert batches["capacity"] == 8

    def test_snapshot_without_batch_max(self):
        # Older callers that omit batch_max still get a document.
        batches = ServiceMetrics().snapshot(
            queue_depth=0, queue_capacity=4, draining=False)["batches"]
        assert batches["capacity"] is None
        assert batches["fill_ratio"] == 0.0


class TestWorkerGrouping:
    """A micro-batch is the worker's unit of dispatch; its outcomes
    must still be exactly the per-job results, in submission order."""

    def test_grouped_outcomes_match_per_job(self):
        batch = [simulate_job("NN", "BSL"), simulate_job("NN", "RD"),
                 simulate_job("ATX", "BSL")]
        grouped = _execute_jobs(batch)
        assert [o[0] for o in grouped] == ["ok"] * 3
        for job, got in zip(batch, grouped):
            assert metrics_fingerprint(got[1]) == \
                metrics_fingerprint(execute(job))

    def test_outcomes_keep_submission_order(self):
        # Interleave two kernels so a reordering would show.
        batch = [simulate_job("NN", "BSL"), simulate_job("ATX", "BSL"),
                 simulate_job("NN", "RD"), simulate_job("ATX", "RD")]
        outcomes = _execute_jobs(batch)
        for job, got in zip(batch, outcomes):
            assert got[1].kernel_name == job.workload
            assert metrics_fingerprint(got[1]) == \
                metrics_fingerprint(execute(job))

    def test_error_isolation_survives_grouping(self):
        bad = SimJob.make("simulate", workload="NO-SUCH-APP",
                          gpu="Tesla K40", scheme="BSL", scale=0.3,
                          seed=0, warmups=1)
        batch = [simulate_job("NN", "BSL"), bad, simulate_job("NN", "RD")]
        outcomes = _execute_jobs(batch)
        assert [o[0] for o in outcomes] == ["ok", "error", "ok"]
        assert "NO-SUCH-APP" in outcomes[1][1]
