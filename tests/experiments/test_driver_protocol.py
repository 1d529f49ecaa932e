"""Driver protocol tests: uniform dispatch must cover every artifact."""

from repro.engine import SimJob
from repro.experiments.driver import (
    DRIVERS,
    ExperimentDriver,
    RunContext,
    driver_names,
    get_driver,
    run_driver,
)
from repro.gpu.config import TESLA_K40

import pytest

from tests.conftest import FIG12_SCALE

#: The session's shared Fig-12 matrix on Kepler (see ``fig12_sweep``).
SMALL = RunContext(platforms=(TESLA_K40,), scale=FIG12_SCALE, seed=0,
                   use_paper_agents=True)


class TestRegistry:
    def test_every_artifact_registers_a_driver(self):
        # registration order follows module import order, which varies
        # across test sessions — assert membership, not order
        assert set(driver_names()) == {
            "ablations", "fig2", "fig3", "fig4", "fig12", "fig13",
            "framework", "scheduler", "sensitivity", "table1", "table2",
            "tuning_study", "chiplet_study", "tenancy_study"}

    def test_registered_objects_satisfy_the_protocol(self):
        driver_names()  # force _load_all
        for name, driver in DRIVERS.items():
            assert isinstance(driver, ExperimentDriver), name
            assert driver.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            get_driver("fig99")


class TestPlanning:
    def test_jobs_are_engine_jobs_and_planning_is_deterministic(self):
        for name in driver_names():
            driver = get_driver(name)
            batch = driver.jobs(SMALL)
            assert all(isinstance(job, SimJob) for job in batch), name
            again = [job.key for job in driver.jobs(SMALL)]
            assert [job.key for job in batch] == again, name

    def test_fig12_and_fig13_share_the_evaluation_matrix(self):
        fig12 = {job.key for job in get_driver("fig12").jobs(SMALL)}
        fig13 = {job.key for job in get_driver("fig13").jobs(SMALL)}
        assert fig12 and fig12 == fig13

    def test_static_drivers_plan_empty_batches(self):
        for name in ("table1", "fig4"):
            assert get_driver(name).jobs(SMALL) == []


class TestRoundTrip:
    def test_fig12_render_matches_run_evaluation(self, fig12_runner,
                                                  fig12_sweep):
        from repro.experiments.fig12 import Fig12Result
        report = run_driver("fig12", SMALL, runner=fig12_runner)
        direct = fig12_sweep(TESLA_K40)
        assert report.render() == Fig12Result(sweep=direct).render()

    def test_memoizing_runner_serves_fig13_from_fig12(self, fig12_runner):
        run_driver("fig12", SMALL, runner=fig12_runner)
        executed_after_fig12 = fig12_runner.stats.executed
        run_driver("fig13", SMALL, runner=fig12_runner)
        assert fig12_runner.stats.executed == executed_after_fig12

    def test_table1_renders_without_jobs(self):
        report = run_driver("table1", SMALL)
        assert "Tesla K40" in report.render()
