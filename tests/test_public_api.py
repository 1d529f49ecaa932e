"""Public API surface tests: the README quickstart must keep working."""

import pytest

import repro


class TestPublicSurface:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_package_metadata_reads_the_one_version_source(self):
        import tomllib
        from pathlib import Path
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        dynamic = meta["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    def test_version_line_names_both_versions(self):
        from repro.engine.job import ENGINE_VERSION
        line = repro.version_line()
        assert repro.__version__ in line
        assert ENGINE_VERSION in line

    def test_service_client_reexported(self):
        from repro.api import ServiceClient, ServiceError, connect
        client = connect(port=1)  # no I/O until a call happens
        assert isinstance(client, ServiceClient)
        assert issubclass(ServiceError, RuntimeError)

    def test_readme_quickstart(self):
        kernel = repro.workload("NN").kernel(scale=0.3, config=repro.GTX980)
        baseline = repro.simulate(kernel, repro.GTX980)
        clustered = repro.simulate(
            kernel, repro.GTX980,
            plan=repro.cluster(kernel, "CLU", gpu=repro.GTX980,
                               direction=repro.Y_PARTITION))
        assert clustered.speedup_over(baseline) > 1.0

    def test_platform_lookup(self):
        assert repro.platform("GTX1080") is repro.GTX1080

    def test_workload_sets(self):
        assert len(repro.table2_workloads()) == 23
        assert len(repro.figure3_workloads()) == 33
        assert len(repro.all_workloads()) == 40


class TestFacadeSimulate:
    def test_accepts_abbreviation_and_platform_name(self):
        metrics = repro.simulate("NN", "Tesla K40", scale=0.3)
        assert metrics.scheme == "BSL"
        assert metrics.gpu_name == "Tesla K40"

    def test_scheme_speeds_up_nn(self):
        base = repro.simulate("NN", repro.TESLA_K40, scale=0.3)
        clu = repro.simulate("NN", repro.TESLA_K40, scale=0.3, scheme="CLU")
        assert base.cycles / clu.cycles > 1.0

    def test_scheme_and_plan_are_exclusive(self):
        with pytest.raises(ValueError):
            repro.simulate("NN", repro.TESLA_K40, scale=0.3,
                           scheme="CLU", plan=repro.baseline_plan())

    def test_unknown_platform_and_scheme_raise(self):
        with pytest.raises(KeyError):
            repro.simulate("NN", "Voodoo2", scale=0.3)
        with pytest.raises(KeyError):
            repro.cluster("NN", "MAGIC", gpu=repro.TESLA_K40)

    def test_simulator_instance_is_reused(self):
        sim = repro.GpuSimulator(repro.TESLA_K40)
        metrics = repro.simulate("BS", sim, scale=0.3)
        assert metrics.gpu_name == repro.TESLA_K40.name

    def test_bad_types_raise(self):
        with pytest.raises(TypeError):
            repro.simulate(42, repro.TESLA_K40)
        with pytest.raises(TypeError):
            repro.simulate("NN", 42)


class TestSimulateReusesVote:
    """A throttled ``simulate(scheme=...)`` measures its plan once.

    Counts launches, never time: the throttling vote measures every
    candidate degree (a warm-up and a measured launch each), and when
    the planned plan is one of them under the same seed, warm-ups and
    core, with nothing to trace or record per CTA, ``simulate`` returns
    that run instead of launching the same plan twice more.
    """

    SCALE = 0.2

    @pytest.fixture
    def launches(self, monkeypatch):
        from repro.gpu.simulator import GpuSimulator
        counts = {"run": 0}
        run = GpuSimulator.run

        def counting_run(self, *args, **kwargs):
            counts["run"] += 1
            return run(self, *args, **kwargs)

        monkeypatch.setattr(GpuSimulator, "run", counting_run)
        return counts

    def vote_launches(self, abbr, config):
        from repro.core.throttling import throttle_candidates
        from repro.gpu.occupancy import max_ctas_per_sm
        kernel = repro.workload(abbr).kernel(scale=self.SCALE, config=config)
        return 2 * len(throttle_candidates(max_ctas_per_sm(config, kernel)))

    def direct(self, abbr, config, scheme, **kwargs):
        """``simulate(plan=...)`` of the plan ``cluster`` builds."""
        kernel = repro.workload(abbr).kernel(scale=self.SCALE, config=config)
        plan = repro.cluster(kernel, scheme, gpu=config)
        return repro.simulate(kernel, config, plan=plan, **kwargs)

    @pytest.mark.parametrize("abbr, gpu", [("KMN", "Tesla K40"),
                                           ("NN", "GTX980")])
    def test_default_call_takes_the_vote_run(self, launches, abbr, gpu):
        from repro.gpu.config import PLATFORMS
        from repro.gpu.metrics import canonical_metrics
        config = PLATFORMS[gpu]
        got = repro.simulate(abbr, gpu, scheme="CLU+TOT", scale=self.SCALE)
        assert launches["run"] == self.vote_launches(abbr, config)
        assert got.scheme == "CLU+TOT"
        assert canonical_metrics(got) == canonical_metrics(
            self.direct(abbr, config, "CLU+TOT"))

    def test_prepared_simulator_takes_the_vote_run(self, launches):
        config = repro.TESLA_K40
        sim = repro.GpuSimulator(config)
        repro.simulate("KMN", sim, scheme="CLU+TOT", scale=self.SCALE)
        assert launches["run"] == self.vote_launches("KMN", config)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1}, {"warmups": 2}, {"record_per_cta": True},
        {"tracer": "tracer"}, {"fast": "other core"}],
        ids=["seed=1", "warmups=2", "per-cta", "tracer", "other-core"])
    def test_other_calls_measure_again(self, launches, kwargs):
        from repro.gpu.cache import default_fast
        from repro.gpu.metrics import canonical_metrics
        kwargs = dict(kwargs)
        if "tracer" in kwargs:
            kwargs["tracer"] = repro.RecordingTracer()
        if "fast" in kwargs:
            # The vote runs on the default core; the other core must
            # really run, or the differential suite compares one core
            # with itself.
            kwargs["fast"] = not default_fast()
        config = repro.TESLA_K40
        got = repro.simulate("KMN", config, scheme="CLU+TOT",
                             scale=self.SCALE, **kwargs)
        measured = 1 + kwargs.get("warmups", 1)
        assert launches["run"] == self.vote_launches("KMN", config) \
            + measured
        kwargs.pop("tracer", None)
        assert canonical_metrics(got) == canonical_metrics(
            self.direct("KMN", config, "CLU+TOT", **kwargs))

    def test_prepared_simulator_with_a_tracer_measures_again(self,
                                                             launches):
        config = repro.TESLA_K40
        sim = repro.GpuSimulator(config, tracer=repro.RecordingTracer())
        repro.simulate("KMN", sim, scheme="CLU+TOT", scale=self.SCALE)
        assert launches["run"] == self.vote_launches("KMN", config) + 2

    def test_plan_outside_the_vote_measures_again(self, launches):
        """The vote never runs with bypass, so BPS always launches."""
        config = repro.TESLA_K40
        repro.simulate("KMN", config, scheme="CLU+TOT+BPS", scale=self.SCALE)
        assert launches["run"] == self.vote_launches("KMN", config) + 2


class TestFacadeEstimate:
    def test_estimate_is_rung_zero(self):
        guess = repro.estimate("NN", "Tesla K40", scale=0.3, scheme="CLU")
        assert isinstance(guess, repro.AnalyticEstimate)
        assert guess.fidelity == "analytic"
        assert guess.cycles > 0

    def test_simulate_fidelity_analytic_routes_to_estimate(self):
        via_fidelity = repro.simulate("NN", "Tesla K40", scale=0.3,
                                      scheme="CLU", fidelity="analytic")
        direct = repro.estimate("NN", "Tesla K40", scale=0.3, scheme="CLU")
        assert via_fidelity == direct

    def test_simulate_fidelity_reduced_halves_scale(self):
        reduced = repro.simulate("NN", "Tesla K40", scale=0.6,
                                 fidelity="reduced")
        half = repro.simulate("NN", "Tesla K40", scale=0.3)
        assert reduced.cycles == half.cycles

    def test_fidelity_ladder_exported(self):
        assert list(repro.FIDELITIES) == ["analytic", "reduced", "full"]
        assert repro.resolve_fidelity("full") is repro.FULL


class TestFacadeCluster:
    def test_bsl_is_baseline_plan(self):
        plan = repro.cluster("NN", "BSL", gpu=repro.TESLA_K40)
        assert plan.scheme == "BSL"

    def test_direction_defaults_to_analysis(self):
        kernel = repro.workload("NN").kernel(scale=0.3,
                                             config=repro.TESLA_K40)
        auto = repro.cluster(kernel, "CLU", gpu=repro.TESLA_K40)
        explicit = repro.cluster(
            kernel, "CLU", gpu=repro.TESLA_K40,
            direction=repro.analyze_direction(kernel).direction)
        assert auto.sm_tasks == explicit.sm_tasks

    def test_throttled_scheme_honours_explicit_agents(self):
        kernel = repro.workload("ATX").kernel(scale=0.3,
                                              config=repro.TESLA_K40)
        plan = repro.cluster(kernel, "CLU+TOT", gpu=repro.TESLA_K40,
                             active_agents=2)
        assert plan.active_agents == 2


class TestFacadeSweep:
    def test_default_runner_matches_direct_execution(self):
        from repro.engine import schemes_job
        job = schemes_job("BS", repro.TESLA_K40, scale=0.3, seed=0,
                          use_paper_agents=True, schemes=("BSL", "CLU"))
        (result,) = repro.sweep([job])
        direct = repro.simulate("BS", repro.TESLA_K40, scale=0.3)
        assert result.metrics["BSL"].cycles == direct.cycles
