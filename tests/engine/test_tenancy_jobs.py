"""The ``bound`` and ``cotenant`` job kinds: identity and execution."""

import pickle

import pytest

from repro.analysis.bound import BoundReport
from repro.engine import bound_job, cotenant_job, execute, measure_job
from repro.tenancy import TenantSpec
from repro.tenancy.runner import TenancyReport

GPU = "GTX980"


class TestBoundJobIdentity:
    def test_key_is_stable_across_constructions(self):
        a = bound_job("NN", GPU, scale=0.3)
        b = bound_job("NN", GPU, scale=0.3)
        assert a == b and a.key == b.key

    def test_schedule_knobs_never_enter_the_key(self):
        """The bound is schedule-free, so one cache entry serves every
        seed and scheme that asks about the same (workload, GPU,
        scale) — the builder does not even accept those knobs."""
        with pytest.raises(TypeError):
            bound_job("NN", GPU, seed=3)
        with pytest.raises(TypeError):
            bound_job("NN", GPU, scheme="CLU")

    def test_every_knob_feeds_the_key(self):
        base = bound_job("NN", GPU, scale=0.3)
        variants = [
            bound_job("HS", GPU, scale=0.3),
            bound_job("NN", "Tesla K40", scale=0.3),
            bound_job("NN", GPU, scale=0.5),
            bound_job("NN", GPU, scale=0.3, l2_divisor=2),
        ]
        keys = {base.key, *(v.key for v in variants)}
        assert len(keys) == len(variants) + 1

    def test_key_differs_from_measure_job(self):
        bound = bound_job("NN", GPU, scale=0.3)
        sim = measure_job("NN", GPU, scale=0.3)
        assert bound.kind == "bound"
        assert bound.key != sim.key


class TestCotenantJobIdentity:
    def test_descriptor_forms_alias_one_key(self):
        """Specs, mappings and JSON-decoded dicts of the same mix must
        hash identically — the cache would otherwise fragment by the
        caller's spelling."""
        by_spec = cotenant_job(
            [TenantSpec(workload="NN", scheme="CLU", scale=0.3),
             TenantSpec(workload="HS", scale=0.3)], GPU)
        by_dict = cotenant_job(
            [{"workload": "NN", "scheme": "CLU", "scale": 0.3},
             {"workload": "HS", "scale": 0.3}], GPU)
        assert by_spec.key == by_dict.key

    def test_every_knob_feeds_the_key(self):
        tenants = [{"workload": "NN", "scale": 0.3},
                   {"workload": "HS", "scale": 0.3}]
        base = cotenant_job(tenants, GPU)
        variants = [
            cotenant_job(tenants, "Tesla K40"),
            cotenant_job(tenants, GPU, policy="sm-split"),
            cotenant_job(tenants, GPU, seed=1),
            cotenant_job(tenants, GPU, warmups=0),
            cotenant_job(list(reversed(tenants)), GPU),
            cotenant_job([{**tenants[0], "bypass": True}, tenants[1]],
                         GPU),
        ]
        keys = {base.key, *(v.key for v in variants)}
        assert len(keys) == len(variants) + 1

    def test_invalid_mix_rejected_at_build_time(self):
        with pytest.raises(ValueError):
            cotenant_job([], GPU)
        with pytest.raises(ValueError):
            cotenant_job([{"workload": "NN"}], GPU, policy="mystery")
        with pytest.raises(ValueError):
            cotenant_job([{"workload": "NN", "scheme": "PFH+TOT"}], GPU)

    def test_jobs_pickle(self):
        job = cotenant_job([{"workload": "NN", "scale": 0.3},
                            {"workload": "HS", "scale": 0.3}], GPU)
        assert pickle.loads(pickle.dumps(job)) == job


class TestExecution:
    def test_bound_executes_to_report(self):
        result = execute(bound_job("NN", GPU, scale=0.25))
        assert isinstance(result, BoundReport)
        assert 0.0 <= result.bound_hit_rate <= 1.0

    def test_cotenant_executes_to_tenancy_report(self):
        job = cotenant_job([{"workload": "NN", "scale": 0.25},
                            {"workload": "HS", "scale": 0.25}], GPU,
                           warmups=0)
        result = execute(job)
        assert isinstance(result, TenancyReport)
        assert len(result.tenants) == 2
        assert result.violations() == []
