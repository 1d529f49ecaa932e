"""Figure 12/13, scheduler-study and ablation driver tests.

The full sweep is the benchmark harness's job; these tests run reduced
matrices (one platform, reduced scale) and verify structure plus the
paper's direction on the strongest claims.
"""

import pytest

from repro.experiments.ablations import run_ablations
from repro.experiments.evaluation import group_of
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.scheduler_study import run_scheduler_study
from repro.gpu.config import TESLA_K40


@pytest.fixture(scope="module")
def kepler_sweep(fig12_sweep):
    return fig12_sweep(TESLA_K40)


class TestEvaluationSweep:
    def test_covers_all_23_apps(self, kepler_sweep):
        assert len(kepler_sweep.results) == 23

    def test_group_geomeans_computable(self, kepler_sweep):
        for group in ("algorithm", "cache-line", "no-exploitable"):
            gm = kepler_sweep.group_geomean_speedup(TESLA_K40, group, "CLU")
            assert gm > 0

    def test_cache_line_group_wins_on_kepler(self, kepler_sweep):
        gm = kepler_sweep.group_geomean_speedup(TESLA_K40, "cache-line",
                                                "CLU+TOT")
        assert gm > 1.15

    def test_no_exploitable_group_flat(self, kepler_sweep):
        gm = kepler_sweep.group_geomean_speedup(TESLA_K40, "no-exploitable",
                                                "CLU")
        assert 0.9 <= gm <= 1.1

    def test_l2_reduction_for_cache_line(self, kepler_sweep):
        gm = kepler_sweep.group_geomean_l2(TESLA_K40, "cache-line",
                                           "CLU+TOT")
        assert gm < 0.7

    def test_group_of(self):
        assert group_of("MM") == "algorithm"
        assert group_of("SYK") == "cache-line"
        assert group_of("BS") == "no-exploitable"
        with pytest.raises(KeyError):
            group_of("???")


class TestFigureRenderers:
    def test_fig12_renders(self, kepler_sweep):
        text = run_fig12(sweep=kepler_sweep).render()
        assert "Figure 12" in text
        assert "Kepler" in text
        assert "G-M" in text

    def test_fig13_renders(self, kepler_sweep):
        result = run_fig13(sweep=kepler_sweep)
        text = result.render()
        assert "Figure 13" in text
        assert "HT_RTE" in text

    def test_fig13_best_reduction_positive_for_cache_line(self, kepler_sweep):
        result = run_fig13(sweep=kepler_sweep)
        assert result.best_l2_reduction(TESLA_K40, "cache-line") > 0.3


class TestSchedulerStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_scheduler_study(abbr="NN")

    def test_round_robin_first_turnaround(self, study):
        rr = [o for o in study.observations if o.scheduler == "round-robin"]
        assert all(o.first_turnaround_rr for o in rr)

    def test_non_rr_schedulers_break_the_assumption(self, study):
        others = [o for o in study.observations
                  if o.scheduler != "round-robin"]
        assert any(not o.first_turnaround_rr for o in others)

    def test_rd_strong_under_rr_weak_otherwise(self, study):
        by_name = {s.scheduler: s for s in study.sensitivity}
        assert by_name["round-robin"].rd_speedup > 1.2
        assert by_name["randomized"].rd_speedup < \
            by_name["round-robin"].rd_speedup - 0.2

    def test_clu_always_effective(self, study):
        # agent-based clustering never collapses like RD does
        for s in study.sensitivity:
            assert s.clu_speedup > 0.95

    def test_renders(self, study):
        text = study.render()
        assert "S3.1" in text and "S5.2" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def ablations(self):
        return run_ablations()

    def test_all_studies_present(self, ablations):
        studies = {row.study for row in ablations.rows}
        assert "MM indexing" in studies
        assert "KMN throttling" in studies
        assert "NN throttling" in studies
        assert "IMD L1 size" in studies
        assert "IMD L1/Tex sectoring" in studies

    def test_nn_prefers_maximum_agents(self, ablations):
        rows = ablations.rows_for("NN throttling")
        degrees = [int(r.configuration.split()[0]) for r in rows]
        speedups = [r.speedup for r in rows]
        assert speedups[degrees.index(max(degrees))] == max(speedups)

    def test_tile_indexing_pays_overhead(self, ablations):
        rows = {r.configuration: r for r in ablations.rows_for("MM indexing")}
        assert rows["tile-wise 4x4"].speedup <= \
            rows["row-major (Y-P)"].speedup + 0.05

    def test_sectoring_hurts_l2_traffic(self, ablations):
        rows = {r.configuration: r
                for r in ablations.rows_for("IMD L1/Tex sectoring")}
        assert rows["unsectored"].l2_normalized <= \
            rows["2 sectors (real)"].l2_normalized

    def test_renders(self, ablations):
        assert "Section 5.2 ablations" in ablations.render()
