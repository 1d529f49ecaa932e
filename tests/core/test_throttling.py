"""Throttling vote tests (Section 4.3-I)."""

import pytest

from repro.core.throttling import ThrottleVote, throttle_candidates, vote_active_agents
from repro.core.indexing import X_PARTITION
from repro.gpu.config import GTX570, TESLA_K40
from repro.gpu.simulator import GpuSimulator

from tests.conftest import make_shared_table_kernel, make_streaming_kernel


class TestCandidates:
    def test_powers_of_two_plus_max(self):
        assert throttle_candidates(8) == [1, 2, 4, 8]
        assert throttle_candidates(6) == [1, 2, 4, 6]
        assert throttle_candidates(1) == [1]
        assert throttle_candidates(16) == [1, 2, 4, 8, 16]

    def test_invalid(self):
        with pytest.raises(ValueError):
            throttle_candidates(0)


class TestVote:
    def test_vote_returns_valid_degree(self):
        kernel = make_shared_table_kernel(n_ctas=45, warps=4)
        sim = GpuSimulator(TESLA_K40)
        vote = vote_active_agents(sim, kernel, X_PARTITION)
        assert 1 <= vote.active_agents <= vote.max_agents
        assert set(vote.cycles_by_candidate) == \
            set(throttle_candidates(vote.max_agents))

    def test_vote_picks_fastest(self):
        kernel = make_shared_table_kernel(n_ctas=45, warps=4)
        sim = GpuSimulator(TESLA_K40)
        vote = vote_active_agents(sim, kernel, X_PARTITION)
        best_cycles = min(vote.cycles_by_candidate.values())
        assert vote.cycles_by_candidate[vote.active_agents] == best_cycles

    def test_tie_prefers_more_agents(self):
        vote = ThrottleVote(active_agents=8, max_agents=8,
                            cycles_by_candidate={1: 100.0, 8: 100.0})
        # construction sanity; the tie rule itself:
        results = {1: 100.0, 8: 100.0}
        best = min(sorted(results, reverse=True), key=results.get)
        assert best == 8

    def test_streaming_kernel_not_throttled(self):
        # throttling only helps under contention (Section 5.2-(4))
        kernel = make_streaming_kernel(n_ctas=60)
        sim = GpuSimulator(GTX570)
        vote = vote_active_agents(sim, kernel, X_PARTITION)
        assert not vote.throttled or vote.active_agents >= vote.max_agents // 2

    def test_invalid_candidate_rejected(self):
        kernel = make_shared_table_kernel(n_ctas=30)
        sim = GpuSimulator(GTX570)
        with pytest.raises(ValueError):
            vote_active_agents(sim, kernel, X_PARTITION, candidates=[0])

    def test_throttled_property(self):
        assert ThrottleVote(1, 8, {}).throttled
        assert not ThrottleVote(8, 8, {}).throttled


class TestVoteSeed:
    """``cluster(seed=)`` reaches every launch of the throttling vote."""

    @pytest.fixture
    def launches(self, monkeypatch):
        seeds = []
        run = GpuSimulator.run

        def recording_run(self, kernel, plan=None, *args, **kwargs):
            seeds.append(kwargs.get("seed", 0))
            return run(self, kernel, plan, *args, **kwargs)

        monkeypatch.setattr(GpuSimulator, "run", recording_run)
        return seeds

    def test_cluster_seed_reaches_every_vote_launch(self, launches):
        from repro import api
        from repro.gpu.occupancy import max_ctas_per_sm

        kernel = make_shared_table_kernel(n_ctas=45, warps=4)
        n = len(throttle_candidates(max_ctas_per_sm(TESLA_K40, kernel)))
        api.cluster(kernel, "CLU+TOT", gpu=TESLA_K40, seed=5)
        # Per candidate: one warm-up at the seed, the measured launch
        # at seed + 1.
        assert launches == [5, 6] * n

    def test_seed_zero_is_the_default(self):
        from repro import api

        kernel = make_shared_table_kernel(n_ctas=45, warps=4)
        sim = GpuSimulator(TESLA_K40)
        default = vote_active_agents(sim, kernel, X_PARTITION)
        zero = vote_active_agents(sim, kernel, X_PARTITION, seed=0)
        assert zero.cycles_by_candidate == default.cycles_by_candidate
        assert zero.seed == default.seed == 0
        assert (api.cluster(kernel, "CLU+TOT", gpu=TESLA_K40).describe()
                == api.cluster(kernel, "CLU+TOT", gpu=TESLA_K40,
                               seed=0).describe())

    def test_seeded_vote_measures_at_its_seed(self):
        from repro.core.agent import agent_plan
        from repro.gpu.metrics import canonical_metrics
        from repro.gpu.simulator import simulate

        kernel = make_shared_table_kernel(n_ctas=45, warps=4)
        sim = GpuSimulator(TESLA_K40)
        vote = vote_active_agents(sim, kernel, X_PARTITION, seed=3)
        plan = agent_plan(kernel, TESLA_K40, X_PARTITION,
                          active_agents=vote.active_agents)
        assert vote.measured(plan, 0, 1) is None
        assert canonical_metrics(vote.measured(plan, 3, 1)) == \
            canonical_metrics(simulate(sim, kernel, plan, seed=3))
