"""Per-application mechanism tests: each workload's locality source
behaves as its Figure-4 category prescribes when simulated.
"""

import pytest

from repro.core.agent import agent_plan
from repro.core.planner import partition_for
from repro.gpu.config import GTX570, GTX980, TESLA_K40
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.registry import workload


def clustered_vs_baseline(abbr, gpu, scale=0.5, active_agents=None):
    wl = workload(abbr)
    kernel = wl.kernel(scale=scale, config=gpu)
    part = partition_for(wl, kernel)
    sim = GpuSimulator(gpu)
    base = simulate(sim, kernel)
    plan = agent_plan(kernel, gpu, part, active_agents=active_agents)
    clu = simulate(sim, kernel, plan)
    return base, clu


class TestAlgorithmMechanisms:
    def test_nn_weight_reuse_lands_in_l1(self):
        base, clu = clustered_vs_baseline("NN", TESLA_K40)
        assert clu.l1_hit_rate > base.l1_hit_rate + 0.05
        assert clu.l2_transactions < 0.7 * base.l2_transactions

    def test_imd_window_overlap_recovered(self):
        base, clu = clustered_vs_baseline("IMD", TESLA_K40)
        assert clu.l2_transactions < 0.5 * base.l2_transactions

    def test_hs_halo_reuse_on_fermi(self):
        base, clu = clustered_vs_baseline("HS", GTX570)
        assert clu.l2_transactions < 0.8 * base.l2_transactions

    def test_bkp_input_slices_shared(self):
        base, clu = clustered_vs_baseline("BKP", GTX980)
        assert clu.l2_transactions < 0.8 * base.l2_transactions


class TestCacheLineMechanisms:
    @pytest.mark.parametrize("abbr", ["SYK", "ATX", "MVT", "BC"])
    def test_line_spill_recovered_on_fermi_only(self, abbr):
        base_f, clu_f = clustered_vs_baseline(abbr, GTX570)
        base_m, clu_m = clustered_vs_baseline(abbr, GTX980)
        fermi_ratio = clu_f.l2_transactions / base_f.l2_transactions
        maxwell_ratio = clu_m.l2_transactions / base_m.l2_transactions
        assert fermi_ratio < 0.7, f"{abbr}: Fermi should recover spill"
        assert maxwell_ratio > 0.9, f"{abbr}: Maxwell has no spill"


class TestWriteMechanism:
    def test_nw_write_evictions_fire(self):
        wl = workload("NW")
        kernel = wl.kernel(scale=0.5, config=TESLA_K40)
        metrics = GpuSimulator(TESLA_K40).run(kernel)
        assert metrics.l1.write_evictions > 0

    def test_nw_clustering_cannot_recover_the_reuse(self):
        base, clu = clustered_vs_baseline("NW", TESLA_K40)
        assert 0.9 <= clu.l2_transactions / base.l2_transactions <= 1.1


class TestStreamingMechanism:
    @pytest.mark.parametrize("abbr", ["BS", "SAD", "DXT"])
    def test_traffic_is_mandatory(self, abbr):
        base, clu = clustered_vs_baseline(abbr, GTX980)
        assert clu.l2_transactions == pytest.approx(base.l2_transactions,
                                                    rel=0.02)


class TestDataMechanism:
    def test_btr_hot_root_hits_everywhere(self):
        wl = workload("BTR")
        kernel = wl.kernel(scale=0.5, config=TESLA_K40)
        metrics = GpuSimulator(TESLA_K40).run(kernel)
        # the root/top levels are hot by accident of the data
        assert metrics.l1_hit_rate > 0.1

    def test_bfs_scattered_writes_present(self):
        wl = workload("BFS")
        kernel = wl.kernel(scale=0.5, config=TESLA_K40)
        metrics = GpuSimulator(TESLA_K40).run(kernel)
        assert metrics.l2_write_transactions > 0


class TestThrottlingMechanism:
    def test_kmn_centroids_thrash_at_full_agents_on_fermi(self):
        """KMN's Table-2 signature: the centroid table survives at one
        agent and thrashes at the maximum."""
        wl = workload("KMN")
        kernel = wl.kernel(scale=0.5, config=GTX570)
        sim = GpuSimulator(GTX570)
        part = partition_for(wl, kernel)
        full = simulate(sim, kernel, agent_plan(kernel, GTX570, part))
        one = simulate(sim, kernel,
                       agent_plan(kernel, GTX570, part, active_agents=1))
        assert one.l1_hit_rate > full.l1_hit_rate
        assert one.l2_transactions < full.l2_transactions
