"""The rung-0 ``estimate`` job kind: identity, execution, caching."""

import pytest

from repro.engine import SimJob, estimate_job, execute, measure_job
from repro.gpu.analytic import AnalyticEstimate


class TestJobIdentity:
    def test_key_is_stable_across_constructions(self):
        a = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        b = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        assert a == b
        assert a.key == b.key

    def test_key_differs_from_simulate_job(self):
        est = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        sim = measure_job("NN", "Tesla K40", plan="clu", scale=0.3)
        assert est.kind == "estimate"
        assert est.key != sim.key

    def test_every_knob_feeds_the_key(self):
        base = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        variants = [
            estimate_job("BP", "Tesla K40", scheme="CLU", scale=0.3),
            estimate_job("NN", "GTX980", scheme="CLU", scale=0.3),
            estimate_job("NN", "Tesla K40", scheme="RD", scale=0.3),
            estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.5),
            estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3,
                         seed=1),
            estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3,
                         warmups=0),
            estimate_job("NN", "Tesla K40", plan="clu", scale=0.3),
        ]
        keys = {base.key, *(v.key for v in variants)}
        assert len(keys) == len(variants) + 1

    def test_scheme_and_plan_are_exclusive(self):
        with pytest.raises(ValueError):
            estimate_job("NN", "Tesla K40", scheme="CLU", plan="clu")

    def test_unknown_plan_kind_rejected(self):
        with pytest.raises(ValueError):
            estimate_job("NN", "Tesla K40", plan="mystery")


class TestExecution:
    def test_executes_to_analytic_estimate(self):
        job = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        result = execute(job)
        assert isinstance(result, AnalyticEstimate)
        assert result.scheme == "CLU"
        assert result.cycles > 0

    def test_execution_is_deterministic(self):
        job = estimate_job("NN", "Tesla K40", scheme="CLU", scale=0.3)
        assert execute(job) == execute(job)

    def test_baseline_when_no_scheme(self):
        job = estimate_job("NN", "Tesla K40", scale=0.3)
        assert execute(job).scheme == "BSL"

    def test_plan_form_matches_scheme_form_for_clu(self):
        # The tuner builds estimate jobs in plan form; the facade in
        # scheme form.  For plain CLU both resolve to the same plan.
        by_scheme = execute(estimate_job("NN", "Tesla K40", scheme="CLU",
                                         scale=0.3))
        by_plan = execute(estimate_job("NN", "Tesla K40", plan="clu",
                                       scale=0.3))
        assert by_plan.cycles == by_scheme.cycles
