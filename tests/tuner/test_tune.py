"""End-to-end tuner tests: strategies, determinism, the guarantees.

These run real (small-scale) simulations through the sweep engine;
the conftest pins a per-test cache dir so results never leak between
tests or into the checkout.
"""

import pytest

from repro.tuner import (DEFAULT_BUDGET, OBJECTIVES, STRATEGIES, TuneResult,
                         objective, strategy, tune)

from tests.tuner.conftest import BUDGET, GPU, SCALE, WORKLOAD


def small_tune(**overrides):
    kwargs = dict(objective="cycles", strategy="hillclimb", budget=BUDGET,
                  scale=SCALE, seed=0)
    kwargs.update(overrides)
    return tune(WORKLOAD, GPU, **kwargs)


class TestRegistries:
    def test_strategy_registry(self):
        assert set(STRATEGIES) == {"grid", "hillclimb", "halving"}
        for name in STRATEGIES:
            assert strategy(name).name == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="hillclimb"):
            strategy("simulated_annealing")

    def test_objective_registry(self):
        assert set(OBJECTIVES) == {"cycles", "l2_transactions",
                                   "dram_transactions"}
        for name in OBJECTIVES:
            assert objective(name).name == name

    def test_unknown_objective_rejected(self):
        with pytest.raises(KeyError, match="cycles"):
            objective("watts")

    def test_default_budget_is_sane(self):
        assert DEFAULT_BUDGET >= 8


class TestTuneContract:
    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            small_tune(budget=0)

    def test_result_shape(self):
        result = small_tune()
        assert isinstance(result, TuneResult)
        assert result.workload == WORKLOAD and result.gpu == GPU
        assert result.leaderboard[0] == result.best
        assert 1 <= result.evaluations <= BUDGET
        assert result.best_plan is not None
        assert result.record().best_plan is None
        assert dict(result.decision)["scheme"]

    def test_leaderboard_is_rank_ordered(self):
        result = small_tune()
        scores = [c.score for c in result.leaderboard]
        assert scores == sorted(scores)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_regression_free_guarantee(self, name):
        """Every strategy's winner beats or ties the rule-based pick."""
        result = small_tune(strategy=name)
        assert result.best.score <= result.baseline.score
        assert result.speedup_vs_rule >= 1.0
        assert result.baseline.source == "framework"

    @pytest.mark.parametrize("fidelity, multiplier",
                             [("full", 1.0), ("reduced", 0.5)])
    def test_best_plan_replays_its_score(self, fidelity, multiplier):
        """``best_plan`` simulated at ``plan_scale`` gives ``best``."""
        from repro import simulate

        result = small_tune(fidelity=fidelity)
        assert result.plan_scale == SCALE * multiplier
        replay = simulate(WORKLOAD, GPU, plan=result.best_plan,
                          scale=result.plan_scale, seed=0)
        assert replay.cycles == result.best.cycles

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_bit_deterministic_leaderboard(self, name):
        """Fixed (seed, budget) -> identical leaderboard, run to run."""
        first = small_tune(strategy=name)
        second = small_tune(strategy=name)
        assert first.record() == second.record()

    def test_budget_bounds_evaluations(self):
        result = small_tune(strategy="grid", budget=5)
        assert result.evaluations == 5
        assert result.truncated > 0  # grid wants the whole space

    def test_objective_changes_ranking_basis(self):
        result = small_tune(objective="dram_transactions")
        assert result.objective == "dram_transactions"
        assert result.best.score == result.best.dram_transactions


class TestWarmCache:
    def test_repeat_tune_runs_zero_new_simulations(self, tmp_path,
                                                   monkeypatch):
        """Acceptance: a warm .repro_cache serves the whole repeat run."""
        from repro.engine import default_runner
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        small_tune(runner=default_runner(jobs=1, cached=True, memo=True))

        cold = default_runner(jobs=1, cached=True, memo=True)
        repeat = small_tune(runner=cold)
        stats = cold.cache.stats()
        assert stats["misses"] == 0 and stats["writes"] == 0
        assert stats["hits"] >= repeat.evaluations
        assert repeat.best.score <= repeat.baseline.score


class TestProfileIntegration:
    def test_tune_section_in_profile_summary(self):
        from repro.obs import ProfileSession
        from repro.obs.schema import validate_profile
        session = ProfileSession(label="tune-test")
        small_tune(profile=session)
        document = session.summary()
        assert document["tune"]["runs"] == 1
        entry = document["tune"]["results"][0]
        assert entry["workload"] == WORKLOAD
        assert entry["speedup_vs_rule"] >= 1.0
        validate_profile(document)

    def test_progress_notes_on_stderr(self, capsys):
        small_tune(progress=True)
        err = capsys.readouterr().err
        assert "[tune:hillclimb]" in err
        assert "warm start" in err


class TestOwnershipWork:
    """A chiplet tune splits each CTA's footprint by owning chiplet
    once per (line geometry, topology) at each pricing site, however
    many plans it places and estimates.  Counts calls, never time."""

    def test_grid_tune_splits_each_footprint_once(self, monkeypatch):
        import sys
        from collections import Counter

        from repro.engine import SweepRunner
        from repro.gpu import topology
        from repro.workloads.registry import workload

        # Registry kernels are shared instances: start from cold memos.
        monkeypatch.setitem(vars(workload("HST")), "_kernel_cache", {})
        splits = Counter()
        affinities = Counter()
        owner_split = topology.ChipletTopology.owner_split
        cluster_affinity = topology._cluster_affinity

        def counting_split(self, lines, line_bytes):
            lines = list(lines)
            site = sys._getframe(1).f_code.co_name
            splits[(site, frozenset(lines), line_bytes, self.block_bytes,
                    self.chiplets)] += 1
            return owner_split(self, lines, line_bytes)

        def counting_affinity(tasks, kernel, config, topo):
            affinities[kernel.name] += 1
            return cluster_affinity(tasks, kernel, config, topo)

        monkeypatch.setattr(topology.ChipletTopology, "owner_split",
                            counting_split)
        monkeypatch.setattr(topology, "_cluster_affinity", counting_affinity)
        result = tune("HST", "GTX980x2", strategy="grid", budget=8,
                      scale=0.2, seed=0, runner=SweepRunner(memo=True))
        assert result.best.score <= result.baseline.score
        assert {key[0] for key in splits} == {"footprint_by_owner",
                                              "_owned_lines"}
        assert max(splits.values()) == 1
        # Many placed plans walk the same clusters: per-plan splitting
        # would repeat every key above.
        placing = sum(affinities.values())
        assert placing > 4 * sum(1 for key in splits
                                 if key[0] == "footprint_by_owner")
