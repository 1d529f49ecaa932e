"""SweepRunner: determinism, caching, dedup and invalidation.

The determinism tests run a small fig12 sub-matrix three ways —
serial, 2-way parallel, and from a warm cache — and require the
``KernelMetrics`` to be identical, which is the engine's core
contract: how a batch executes must never change what it computes.
"""

import dataclasses

import pytest

from repro.engine import ResultCache, SimJob, SweepRunner, schemes_job
from repro.engine.cache import CacheStats
from repro.engine.executors import execute, executor
from repro.gpu.config import TESLA_K40

#: A small fig12 sub-matrix: two apps with exploitable locality, one
#: without, on one platform, at reduced scale.
SUB_MATRIX = ("NN", "ATX", "BS")
SUB_SCHEMES = ("BSL", "CLU")


def sub_matrix_jobs():
    return [schemes_job(abbr, TESLA_K40, scale=0.3, use_paper_agents=True,
                        schemes=SUB_SCHEMES)
            for abbr in SUB_MATRIX]


def assert_metrics_identical(a, b):
    """Bit-identical comparison of two SchemeResults batches."""
    for result_a, result_b in zip(a, b):
        assert result_a.workload == result_b.workload
        assert set(result_a.metrics) == set(result_b.metrics)
        for scheme, metrics_a in result_a.metrics.items():
            metrics_b = result_b.metrics[scheme]
            assert metrics_a.cycles == metrics_b.cycles
            assert metrics_a.sm_cycles == metrics_b.sm_cycles
            assert metrics_a.l2_read_transactions == \
                metrics_b.l2_read_transactions
            assert metrics_a.l2_write_transactions == \
                metrics_b.l2_write_transactions
            assert metrics_a.dram_transactions == metrics_b.dram_transactions
            assert dataclasses.asdict(metrics_a.l1) == \
                dataclasses.asdict(metrics_b.l1)
            assert dataclasses.asdict(metrics_a.l2) == \
                dataclasses.asdict(metrics_b.l2)
            assert metrics_a.overhead_cycles == metrics_b.overhead_cycles
            assert metrics_a.occupancy_weighted_warps == \
                metrics_b.occupancy_weighted_warps


@pytest.fixture(scope="module")
def serial_results():
    return SweepRunner(jobs=1).run(sub_matrix_jobs())


class TestDeterminism:
    def test_parallel_identical_to_serial(self, serial_results):
        parallel = SweepRunner(jobs=2).run(sub_matrix_jobs())
        assert_metrics_identical(serial_results, parallel)

    def test_cache_hit_identical_to_serial(self, serial_results, tmp_path):
        cache = ResultCache(tmp_path)
        cold_runner = SweepRunner(jobs=1, cache=cache)
        cold = cold_runner.run(sub_matrix_jobs())
        assert cold_runner.stats.cache_hits == 0
        warm_runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        warm = warm_runner.run(sub_matrix_jobs())
        assert warm_runner.stats.cache_hits == len(SUB_MATRIX)
        assert warm_runner.stats.executed == 0
        assert_metrics_identical(serial_results, cold)
        assert_metrics_identical(serial_results, warm)

    def test_results_follow_submission_order(self, serial_results):
        shuffled = sub_matrix_jobs()[::-1]
        reversed_results = SweepRunner(jobs=2).run(shuffled)
        assert [r.workload for r in reversed_results] == \
            list(SUB_MATRIX)[::-1]


class TestDedup:
    def test_identical_jobs_compute_once(self):
        calls = []

        @executor("_test_counting")
        def _count(job):
            calls.append(job.key)
            return job.extra("value")

        try:
            job = SimJob.make("_test_counting", value=7)
            results = SweepRunner().run([job, job, job])
        finally:
            from repro.engine.executors import EXECUTORS
            del EXECUTORS["_test_counting"]
        assert results == [7, 7, 7]
        assert len(calls) == 1

    def test_unknown_kind_is_reported(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            execute(SimJob.make("no-such-kind"))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestCacheInvalidation:
    def test_version_salt_change_forces_rerun(self, tmp_path):
        job = sub_matrix_jobs()[0]
        cache_v1 = ResultCache(tmp_path, salt="v1")
        runner_v1 = SweepRunner(cache=cache_v1)
        first = runner_v1.run_one(job)
        assert runner_v1.stats.executed == 1

        # Same salt: pure hit.
        rerun = SweepRunner(cache=ResultCache(tmp_path, salt="v1"))
        assert_metrics_identical([first], [rerun.run_one(job)])
        assert rerun.stats.cache_hits == 1
        assert rerun.stats.executed == 0

        # New salt: the stale entry is invisible, the job re-executes.
        bumped = SweepRunner(cache=ResultCache(tmp_path, salt="v2"))
        again = bumped.run_one(job)
        assert bumped.stats.cache_hits == 0
        assert bumped.stats.executed == 1
        assert_metrics_identical([first], [again])

    @pytest.mark.parametrize("garbage", [
        b"not a pickle",   # UnpicklingError
        b"garbage\n",      # 'g' is the GET opcode -> ValueError
        b"",               # EOFError
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path, salt="v1")
        job = SimJob.make("schemes", workload="NN", gpu="Tesla K40")
        path = cache.path_for(job)
        path.parent.mkdir(parents=True)
        path.write_bytes(garbage)
        assert ResultCache.is_miss(cache.get(job))

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        job = SimJob.make("table2", workload="NN")
        cache.put(job, None)
        assert cache.get(job) is None
        assert not ResultCache.is_miss(None)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (1, 0, 1)

    def test_env_override_sets_cache_root(self, tmp_path, monkeypatch):
        from repro.engine.cache import default_cache_root
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
