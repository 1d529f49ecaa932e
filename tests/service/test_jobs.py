"""Request canonicalization: JSON -> SimJob, results -> JSON."""

from __future__ import annotations

import json

import pytest

from repro.api import simulate
from repro.engine import execute
from repro.gpu.metrics import canonical_metrics
from repro.service.httpio import HttpError
from repro.engine.executors import EXECUTORS
from repro.service.jobs import (
    ENGINE_KINDS,
    KINDS,
    build_cluster_job,
    build_cotenant_job,
    build_simulate_job,
    build_sweep_jobs,
    build_tune_job,
    jsonable,
)


class TestSimulateJob:
    def test_identical_requests_share_one_key(self):
        # Different JSON spellings of the same computation must
        # canonicalize to one content hash — that key *is* the
        # single-flight dedup identity.
        a = build_simulate_job({"workload": "NN", "gpu": "GTX980"})
        b = build_simulate_job({"workload": "NN", "gpu": "GTX980",
                                "scale": 1, "seed": 0, "warmups": 1})
        assert a.key == b.key

    def test_different_seed_different_key(self):
        a = build_simulate_job({"workload": "NN", "gpu": "GTX980"})
        b = build_simulate_job({"workload": "NN", "gpu": "GTX980",
                                "seed": 1})
        assert a.key != b.key

    def test_executor_is_the_facade(self):
        job = build_simulate_job({"workload": "NN", "gpu": "GTX980",
                                  "scale": 0.2, "seed": 5})
        direct = simulate("NN", "GTX980", scale=0.2, seed=5)
        assert canonical_metrics(execute(job)) == canonical_metrics(direct)

    @pytest.mark.parametrize("payload, field", [
        ({"gpu": "GTX980"}, "workload"),
        ({"workload": "NN"}, "gpu"),
        ({"workload": "NOPE", "gpu": "GTX980"}, "workload"),
        ({"workload": "NN", "gpu": "GTX999"}, "gpu"),
        ({"workload": "NN", "gpu": "GTX980", "scheme": "WAT"}, "scheme"),
        ({"workload": "NN", "gpu": "GTX980", "scale": -1}, "scale"),
        ({"workload": "NN", "gpu": "GTX980", "scale": "big"}, "scale"),
        ({"workload": 7, "gpu": "GTX980"}, "workload"),
        # json.loads accepts NaN, Infinity and overflowing literals.
        (json.loads('{"workload": "NN", "gpu": "GTX980", "seed": 1e400}'),
         "seed"),
        (json.loads('{"workload": "NN", "gpu": "GTX980", "warmups": NaN}'),
         "warmups"),
        (json.loads('{"workload": "NN", "gpu": "GTX980", '
                    '"scale": -Infinity}'), "scale"),
        ({"workload": "NN", "gpu": "GTX980", "scale": 10 ** 400}, "scale"),
        # Above the largest scale a workload kernel is built at.
        ({"workload": "NN", "gpu": "GTX980", "scale": 8}, "scale"),
    ])
    def test_validation_is_a_400(self, payload, field):
        with pytest.raises(HttpError) as excinfo:
            build_simulate_job(payload)
        assert excinfo.value.status == 400
        assert field in excinfo.value.message


class TestNonFiniteNumbers:
    """A numeric field of each served kind answers a non-finite value
    with a 400 naming the field, never an OverflowError 500."""

    CASES = [
        ("estimate", {"workload": "NN", "gpu": "GTX980"}, "warmups"),
        ("bound", {"workload": "NN", "gpu": "GTX980"}, "l2_divisor"),
        ("bound", {"workload": "NN", "gpu": "GTX980"}, "scale"),
        ("cluster", {"workload": "NN", "gpu": "GTX980"}, "active_agents"),
        ("tune", {"workload": "NN", "gpu": "GTX980"}, "budget"),
        ("cotenant", {"gpu": "GTX980", "tenants": ["NN"]}, "seed"),
    ]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("kind, base, field", CASES)
    def test_non_finite_is_a_400(self, kind, base, field, literal):
        payload = {**base, field: json.loads(literal)}
        with pytest.raises(HttpError) as excinfo:
            KINDS[kind].build(payload, max_tune_budget=64)
        assert excinfo.value.status == 400
        assert field in excinfo.value.message

    def test_non_finite_tenant_field_is_a_400(self):
        payload = {"gpu": "GTX980",
                   "tenants": [{"workload": "NN", "scale": float("inf")}]}
        with pytest.raises(HttpError) as excinfo:
            build_cotenant_job(payload)
        assert excinfo.value.status == 400


class TestClusterJob:
    def test_returns_plan_digest(self):
        job = build_cluster_job({"workload": "NN", "gpu": "GTX980",
                                 "scheme": "CLU", "direction": "Y-P"})
        digest = execute(job)
        assert digest["scheme"] == "CLU"
        assert digest["mode"] == "placed"
        assert digest["n_tasks"] == sum(digest["sm_task_counts"])
        json.dumps(digest)  # must be JSON-clean as-is

    def test_bad_direction_rejected(self):
        with pytest.raises(HttpError):
            build_cluster_job({"workload": "NN", "gpu": "GTX980",
                               "direction": "Z-P"})

    def test_agents_beyond_occupancy_rejected(self):
        payload = {"workload": "NN", "gpu": "GTX980", "scheme": "CLU+TOT"}
        with pytest.raises(HttpError) as excinfo:
            build_cluster_job({**payload, "active_agents": 999})
        assert excinfo.value.status == 400
        assert "active_agents" in excinfo.value.message
        job = build_cluster_job({**payload, "active_agents": 32})
        assert execute(job)["active_agents"] == 32


class TestSweepJobs:
    def test_mixed_kinds(self):
        jobs = build_sweep_jobs({"jobs": [
            {"workload": "NN", "gpu": "GTX980", "scale": 0.2},
            {"kind": "cluster", "workload": "NN", "gpu": "GTX980"},
            {"kind": "table2", "workload": "NN"},
        ]}, max_jobs=16)
        assert [job.kind for job in jobs] == ["simulate", "cluster",
                                              "table2"]

    def test_over_limit_is_413(self):
        entries = [{"workload": "NN", "gpu": "GTX980"}] * 3
        with pytest.raises(HttpError) as excinfo:
            build_sweep_jobs({"jobs": entries}, max_jobs=2)
        assert excinfo.value.status == 413

    def test_bad_entry_names_its_index(self):
        with pytest.raises(HttpError) as excinfo:
            build_sweep_jobs({"jobs": [
                {"workload": "NN", "gpu": "GTX980"},
                {"workload": "NOPE", "gpu": "GTX980"},
            ]}, max_jobs=16)
        assert "jobs[1]" in excinfo.value.message

    def test_unknown_kind_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            build_sweep_jobs({"jobs": [{"kind": "teleport"}]}, max_jobs=4)
        assert "teleport" in excinfo.value.message

    def test_tune_entry_honours_the_budget_cap(self):
        # The descriptor spelling (budget under "extras") and the
        # /v1/tune spelling both go through the tune builder's cap.
        for entry in ({"kind": "tune", "workload": "NN", "gpu": "GTX980",
                       "extras": {"budget": 100000}},
                      {"kind": "tune", "workload": "NN", "gpu": "GTX980",
                       "budget": 65}):
            with pytest.raises(HttpError) as excinfo:
                build_sweep_jobs({"jobs": [entry]}, max_jobs=8)
            assert excinfo.value.status == 400
            assert excinfo.value.message.startswith("jobs[0]: ")
            assert "budget" in excinfo.value.message

    def test_tune_entry_is_the_endpoint_job(self):
        payload = {"workload": "NN", "gpu": "GTX980", "budget": 8}
        [job] = build_sweep_jobs({"jobs": [{"kind": "tune", **payload}]},
                                 max_jobs=8, max_tune_budget=8)
        assert job.key == build_tune_job(payload, max_budget=8).key

    def test_empty_list_rejected(self):
        with pytest.raises(HttpError):
            build_sweep_jobs({"jobs": []}, max_jobs=4)


class TestEngineKindEntries:
    """Sweep entries of engine-only kinds are checked at the boundary:
    malformed ones answer 400 instead of failing in a worker."""

    #: A minimal valid entry per engine-only kind.
    VALID = {
        "schemes": {"workload": "NN", "gpu": "GTX980"},
        "measure": {"workload": "NN", "gpu": "GTX980"},
        "microbench": {"gpu": "GTX980"},
        "reuse": {"workload": "NN"},
        "table2": {"workload": "NN"},
        "framework": {"workload": "NN", "gpu": "GTX980"},
    }

    def build(self, entry):
        return build_sweep_jobs({"jobs": [entry]}, max_jobs=4)

    def rejects(self, entry, field):
        with pytest.raises(HttpError) as excinfo:
            self.build(entry)
        assert excinfo.value.status == 400
        assert field in excinfo.value.message
        return excinfo.value

    def test_every_executor_kind_has_a_schema(self):
        assert set(EXECUTORS) == set(KINDS) | set(ENGINE_KINDS)
        assert set(self.VALID) == set(ENGINE_KINDS)

    @pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
    def test_valid_entry_builds(self, kind):
        [job] = self.build({"kind": kind, **self.VALID[kind]})
        assert job.kind == kind

    @pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
    def test_missing_required_field_is_a_400(self, kind):
        for field in ENGINE_KINDS[kind].required:
            entry = {"kind": kind, **self.VALID[kind]}
            del entry[field]
            self.rejects(entry, field)

    def test_non_finite_extra_is_a_400(self):
        self.rejects({"kind": "measure", "workload": "NN", "gpu": "GTX980",
                      "scale": 0.05, "extras": {
                          "plan": "clu",
                          "active_agents": json.loads("NaN")}},
                     "active_agents")

    def test_unknown_extra_is_a_400(self):
        error = self.rejects({"kind": "reuse", "workload": "NN",
                              "extras": {"max_cta": 10}}, "max_cta")
        assert "max_ctas" in error.message

    @pytest.mark.parametrize("extras, field", [
        ({"plan": "clu", "active_agents": 999}, "active_agents"),
        ({"plan": "warp"}, "plan"),
        ({"direction": "Z-P"}, "direction"),
        ({"bypass_streams": 1}, "bypass_streams"),
        ({"tile": [4]}, "tile"),
        ({"scheduler": "fifo"}, "scheduler"),
        ({"l1_size": 12345}, "extras"),
        ({"l1_sectors": 7}, "extras"),
        ({"hiding_cap": -1.0}, "hiding_cap"),
        ({"placement": "nearest"}, "placement"),
    ])
    def test_bad_measure_extra_is_a_400(self, extras, field):
        self.rejects({"kind": "measure", "workload": "NN", "gpu": "GTX980",
                      "extras": extras}, field)

    @pytest.mark.parametrize("scheme, extras", [
        ("CLU", {}), ("RD", {"plan": "clu"}), ("TOT", {"plan": "clu"})])
    def test_measure_scheme_of_another_plan_is_a_400(self, scheme, extras):
        self.rejects({"kind": "measure", "workload": "NN", "gpu": "GTX980",
                      "scheme": scheme, "extras": extras}, "scheme")

    def test_bad_scheme_list_is_a_400(self):
        self.rejects({"kind": "schemes", "workload": "NN", "gpu": "GTX980",
                      "extras": {"schemes": ["CLU", "TOT"]}}, "schemes")

    def test_checked_entry_executes(self):
        [job] = self.build({"kind": "measure", "workload": "NN",
                            "gpu": "GTX980", "scale": 0.05, "extras": {
                                "plan": "clu", "active_agents": 4,
                                "tile": [2, 2], "scheduler": "round-robin",
                                "hiding_cap": 8.5}})
        assert execute(job).scheme == "CLU+TOT"


class TestJsonable:
    def test_metrics_canonicalize(self):
        metrics = simulate("NN", "GTX980", scale=0.2)
        assert jsonable(metrics) == canonical_metrics(metrics)

    def test_scheme_results_recurse(self):
        from repro.experiments.schemes import run_all_schemes
        from repro.gpu.config import GTX980
        from repro.workloads.registry import workload
        results = run_all_schemes(workload("NN"), GTX980, scale=0.2,
                                  schemes=("BSL",))
        document = jsonable(results)
        json.dumps(document)
        assert document["metrics"]["BSL"]["scheme"] == "BSL"

    def test_opaque_objects_fall_back_to_repr(self):
        document = jsonable({"x": object()})
        assert isinstance(document["x"], str)
