"""The fidelity ladder: rung resolution, the analytic rung's zero
cost, and the redesigned halving strategy's budget frugality."""

import pytest

from repro.engine import default_runner
from repro.fidelity import (ANALYTIC, FIDELITIES, FULL, REDUCED, Fidelity,
                            resolve_fidelity)
from repro.tuner import Evaluator, SearchSpace, tune
from repro.tuner.objective import objective as lookup_objective
from tests.tuner.conftest import GPU, SCALE, WORKLOAD


def evaluator_for(space, budget):
    return Evaluator(space=space, runner=default_runner(jobs=1, cached=False,
                                                        memo=True),
                     objective=lookup_objective("cycles"), scale=SCALE,
                     budget=budget)


class TestLadder:
    def test_rungs_are_ordered_and_named(self):
        assert [f.rung for f in FIDELITIES.values()] == [0, 1, 2]
        assert list(FIDELITIES) == ["analytic", "reduced", "full"]
        assert not ANALYTIC.simulated
        assert REDUCED.simulated and FULL.simulated
        assert ANALYTIC.budget_cost == 0
        assert REDUCED.budget_cost == FULL.budget_cost == 1

    def test_resolution_accepts_names_and_instances(self):
        assert resolve_fidelity("analytic") is ANALYTIC
        assert resolve_fidelity("FULL") is FULL
        assert resolve_fidelity(REDUCED) is REDUCED
        assert resolve_fidelity(None) is FULL
        assert resolve_fidelity(None, default=ANALYTIC) is ANALYTIC

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_fidelity("quantum")

    def test_rungs_are_frozen(self):
        with pytest.raises(Exception):
            FULL.rung = 7


class TestEvaluatorRungs:
    def test_analytic_rung_is_free(self, space):
        evaluator = evaluator_for(space, 4)
        evaluator.evaluate(list(space.points())[:8], fidelity=ANALYTIC)
        assert evaluator.spent == 0
        assert evaluator.remaining == 4
        assert len(list(evaluator.candidates(fidelity=ANALYTIC))) == 8
        # ...and those free scores never leak into the full-rung board.
        assert list(evaluator.candidates(fidelity=FULL)) == []

    def test_simulated_rungs_charge_budget(self, space):
        evaluator = evaluator_for(space, 4)
        points = list(space.points())[:2]
        evaluator.evaluate(points, fidelity=REDUCED)
        assert evaluator.spent == 2
        evaluator.evaluate(points, fidelity=FULL)
        assert evaluator.spent == 4

    def test_same_point_scored_per_rung(self, space):
        evaluator = evaluator_for(space, 4)
        point = next(iter(space.points()))
        evaluator.evaluate([point], fidelity=ANALYTIC)
        evaluator.evaluate([point], fidelity=FULL)
        analytic = evaluator.score_of(point, fidelity=ANALYTIC)
        full = evaluator.score_of(point, fidelity=FULL)
        assert analytic is not None and full is not None
        assert analytic != full  # different models, different numbers


class TestHalvingFrugality:
    BUDGET = 16

    def run(self, **kwargs):
        return tune(WORKLOAD, GPU, strategy="halving", budget=self.BUDGET,
                    scale=SCALE, **kwargs)

    def test_guarantee_and_budget_quarter(self):
        result = self.run()
        # The redesign's acceptance bar: rung-0 triage must cut the
        # halving ladder to <= 25% of the budget the simulated rungs
        # used to charge, without giving up the never-worse guarantee.
        assert result.evaluations <= self.BUDGET // 4
        assert result.best.score <= result.baseline.score
        assert result.fidelity == "full"

    def test_deterministic(self):
        a, b = self.run(), self.run()
        assert a.best.scheme == b.best.scheme
        assert a.best.score == b.best.score
        assert a.evaluations == b.evaluations

    def test_analytic_only_tune_is_simulation_free(self):
        result = self.run(fidelity="analytic")
        assert result.fidelity == "analytic"
        assert result.evaluations == 0
        assert len(result.leaderboard) > 0
        assert all(c.fidelity == "analytic" for c in result.leaderboard)

    def test_full_leaderboard_reports_rung(self):
        result = self.run()
        assert all(c.fidelity == "full" for c in result.leaderboard)
