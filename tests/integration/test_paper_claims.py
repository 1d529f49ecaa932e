"""Integration tests: the paper's headline *shape* claims, end to end.

These run reduced evaluation matrices and assert the qualitative
structure of the results — who wins, where, and in which direction —
which is the reproduction's contract (absolute numbers are
simulator-dependent and tracked in EXPERIMENTS.md instead).
"""

import pytest

from repro.experiments.schemes import run_all_schemes
from repro.gpu.config import GTX570, GTX980, GTX1080, TESLA_K40
from repro.workloads.registry import by_category, workload


@pytest.fixture(scope="module")
def fermi_sweep(fig12_sweep):
    return fig12_sweep(GTX570)


@pytest.fixture(scope="module")
def maxwell_sweep(fig12_sweep):
    return fig12_sweep(GTX980)


class TestCacheLineArchitectureSplit:
    """Section 5.2-(2): cache-line clustering benefits Fermi/Kepler
    only, because Maxwell/Pascal's 32B lines carry no cross-CTA spill."""

    def test_fermi_cache_line_wins(self, fermi_sweep):
        gm = fermi_sweep.group_geomean_speedup(GTX570, "cache-line",
                                               "CLU+TOT")
        assert gm > 1.2

    def test_maxwell_cache_line_flat(self, maxwell_sweep):
        gm = maxwell_sweep.group_geomean_speedup(GTX980, "cache-line",
                                                 "CLU+TOT")
        assert 0.9 <= gm <= 1.1

    def test_fermi_l2_reduction_strong(self, fermi_sweep):
        gm = fermi_sweep.group_geomean_l2(GTX570, "cache-line", "CLU+TOT")
        assert gm < 0.65

    def test_maxwell_l2_unchanged(self, maxwell_sweep):
        gm = maxwell_sweep.group_geomean_l2(GTX980, "cache-line", "CLU+TOT")
        assert gm > 0.9


class TestAlgorithmGroup:
    def test_algorithm_group_gains_on_fermi(self, fermi_sweep):
        gm = fermi_sweep.group_geomean_speedup(GTX570, "algorithm",
                                               "CLU+TOT")
        assert gm > 1.05

    def test_algorithm_l2_reduced_everywhere(self, fermi_sweep,
                                             maxwell_sweep):
        assert fermi_sweep.group_geomean_l2(GTX570, "algorithm",
                                            "CLU+TOT") < 0.9
        assert maxwell_sweep.group_geomean_l2(GTX980, "algorithm",
                                              "CLU+TOT") < 0.95

    def test_best_algorithm_apps_beat_1_3x(self, fermi_sweep):
        best = max(fermi_sweep.best_clustered_speedup(GTX570, wl.abbr)
                   for wl in by_category("algorithm"))
        assert best > 1.3


class TestNoExploitableGroup:
    """Streaming/data/write apps neither gain nor regress much."""

    def test_flat_on_fermi(self, fermi_sweep):
        for wl in by_category("no-exploitable"):
            speedup = fermi_sweep.result(GTX570, wl.abbr).speedup("CLU")
            assert 0.85 <= speedup <= 1.15, wl.abbr

    def test_l2_traffic_unchanged(self, fermi_sweep):
        gm = fermi_sweep.group_geomean_l2(GTX570, "no-exploitable", "CLU")
        assert 0.9 <= gm <= 1.1


class TestThrottlingClaims:
    """Section 5.2-(3)/(4): throttling helps contention-bound apps and
    is unnecessary for most algorithm-related ones."""

    def test_atx_gains_and_voted_throttle_never_loses(self):
        # the dynamic vote picks the degree by measurement, so CLU+TOT
        # can only match-or-beat CLU up to noise; ATX gains strongly on
        # Kepler either way
        result = run_all_schemes(workload("ATX"), TESLA_K40, scale=0.6)
        assert result.speedup("CLU+TOT") > 1.25
        assert result.speedup("CLU+TOT") >= 0.95 * result.speedup("CLU")

    def test_nn_does_not_need_throttling(self):
        result = run_all_schemes(workload("NN"), TESLA_K40, scale=0.6,
                                 use_paper_agents=True)
        assert result.speedup("CLU") >= 0.95 * result.speedup("CLU+TOT")


class TestWriteRelatedClaim:
    """NW has locality, but the write-evict L1 destroys it — clustering
    cannot help (Section 3.2-D)."""

    def test_nw_flat_everywhere(self):
        for gpu in (GTX570, GTX980):
            result = run_all_schemes(workload("NW"), gpu, scale=0.6,
                                     use_paper_agents=True)
            assert 0.9 <= result.speedup("CLU") <= 1.1, gpu.name


class TestMmIsHard:
    """Section 5.2-(6): MM's reuse distance defeats the small L1, so its
    gains are modest despite large inherent reuse."""

    def test_mm_modest_on_all_architectures(self):
        for gpu in (GTX570, GTX980, GTX1080):
            result = run_all_schemes(workload("MM"), gpu, scale=0.8,
                                     use_paper_agents=True)
            assert 0.85 <= result.speedup("CLU") <= 1.25, gpu.name
