"""Scheme-builder tests: the six Figure-12 configurations."""

import pytest

from repro.core.planner import SCHEMES, partition_for
from repro.core.throttling import throttle_candidates
from repro.experiments.schemes import (
    build_scheme_plans, run_all_schemes, throttle_vote)
from repro.gpu.config import GTX980, TESLA_K40
from repro.gpu.metrics import canonical_metrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.registry import workload


class TestPartitionFor:
    def test_uses_table2_direction(self):
        wl = workload("MM")
        assert partition_for(wl, wl.kernel()).name == "Y-P"
        wl = workload("KMN")
        assert partition_for(wl, wl.kernel()).name == "X-P"

    def test_falls_back_to_analysis_for_extras(self):
        wl = workload("COR")  # no Table-2 row
        part = partition_for(wl, wl.kernel(scale=0.5))
        assert part.name in ("X-P", "Y-P")


class TestOptimalAgents:
    def test_paper_value_clamped_to_occupancy(self):
        wl = workload("KMN")
        kernel = wl.kernel(config=TESLA_K40)
        vote = throttle_vote(wl, kernel, TESLA_K40, use_paper_value=True)
        assert vote.active_agents == 1  # Table 2: KMN optimal agents = 1
        assert vote.metrics_by_candidate == {}  # nothing was simulated

    def test_voted_value_in_range(self):
        wl = workload("DCT")
        kernel = wl.kernel(scale=0.4, config=TESLA_K40)
        sim = GpuSimulator(TESLA_K40)
        opt = throttle_vote(wl, kernel, TESLA_K40, sim).active_agents
        assert 1 <= opt <= max_ctas_per_sm(TESLA_K40, kernel)


class TestBuildSchemePlans:
    def test_all_six_schemes(self):
        wl = workload("NN")
        kernel = wl.kernel(scale=0.4, config=TESLA_K40)
        plans = build_scheme_plans(
            wl, kernel, TESLA_K40,
            throttle_vote(wl, kernel, TESLA_K40, use_paper_value=True))
        assert set(plans) == set(SCHEMES)
        assert plans["BSL"].mode == "scheduled"
        assert plans["RD"].mode == "scheduled"
        for scheme in ("CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT"):
            assert plans[scheme].mode == "placed", scheme
        assert plans["CLU+TOT+BPS"].bypass_streams
        assert plans["PFH+TOT"].prefetch_depth > 0


class TestRunAllSchemes:
    @pytest.fixture(scope="class")
    def results(self):
        return run_all_schemes(workload("NN"), TESLA_K40, scale=0.4,
                               use_paper_agents=True)

    def test_metrics_for_every_scheme(self, results):
        assert set(results.metrics) == set(SCHEMES)
        for scheme, metrics in results.metrics.items():
            assert metrics.cycles > 0, scheme
            assert metrics.scheme == scheme

    def test_baseline_speedup_is_one(self, results):
        assert results.speedup("BSL") == pytest.approx(1.0)
        assert results.l2_normalized("BSL") == pytest.approx(1.0)

    def test_nn_clustering_wins_on_kepler(self, results):
        assert results.speedup("CLU") > 1.1
        assert results.l2_normalized("CLU") < 0.7

    def test_occupancy_delta(self, results):
        delta = results.occupancy_delta("CLU+TOT")
        assert -1.0 <= delta <= 1.0


class TestColdCellWork:
    """A cold cell simulates each distinct plan once, on one cache pair.

    Counts launches and cache-pair allocations, never time: the vote
    measures every candidate degree, ``CLU`` (the maximum degree) and
    ``CLU+TOT`` (the pick) reuse two of those runs, and the four other
    schemes run once each.
    """

    SCALE = 0.2

    @pytest.fixture
    def counts(self, monkeypatch, cache_pool):
        counts = {"run": 0, "fresh_caches": 0}
        run, fresh = GpuSimulator.run, GpuSimulator.fresh_caches

        def counting_run(self, *args, **kwargs):
            counts["run"] += 1
            return run(self, *args, **kwargs)

        def counting_fresh(self):
            counts["fresh_caches"] += 1
            return fresh(self)

        monkeypatch.setattr(GpuSimulator, "run", counting_run)
        monkeypatch.setattr(GpuSimulator, "fresh_caches", counting_fresh)
        return counts

    def candidates(self, abbr, config):
        kernel = workload(abbr).kernel(scale=self.SCALE, config=config)
        return len(throttle_candidates(max_ctas_per_sm(config, kernel)))

    @pytest.mark.parametrize("abbr, config", [("NN", GTX980),
                                              ("KMN", TESLA_K40)],
                             ids=["NN-GTX980", "KMN-K40"])
    def test_default_cell(self, counts, abbr, config):
        run_all_schemes(workload(abbr), config, scale=self.SCALE)
        assert counts["fresh_caches"] == 1
        assert counts["run"] == 2 * (self.candidates(abbr, config) + 4)

    @pytest.mark.parametrize("kwargs, launches", [
        ({"l2_divisor": 2}, lambda c: 2 * (c + 4)),
        ({"seed": 1}, lambda c: 2 * c + 2 * 6),
        ({"warmups": 2}, lambda c: 2 * c + 3 * 6),
        ({"use_paper_agents": True}, lambda c: 2 * 6),
    ], ids=["l2_divisor=2", "seed=1", "warmups=2", "paper-agents"])
    def test_cell_equals_direct_simulation(self, counts, kwargs, launches):
        wl, config = workload("KMN"), TESLA_K40
        got = run_all_schemes(wl, config, scale=self.SCALE, **kwargs)
        assert counts["run"] == launches(self.candidates("KMN", config))
        run_config = config.with_scaled_l2(kwargs.get("l2_divisor", 1))
        kernel = wl.kernel(scale=self.SCALE, config=config)
        plans = build_scheme_plans(wl, kernel, run_config, throttle_vote(
            wl, kernel, run_config,
            use_paper_value=kwargs.get("use_paper_agents", False)))
        for scheme in SCHEMES:
            want = simulate(GpuSimulator(run_config), kernel, plans[scheme],
                            seed=kwargs.get("seed", 0),
                            warmups=kwargs.get("warmups", 1))
            assert canonical_metrics(got.metrics[scheme]) == \
                canonical_metrics(want), scheme
