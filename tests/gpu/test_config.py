"""Platform configuration tests: the Table 1 facts the paper relies on."""

import dataclasses

import pytest

from repro.gpu.cache import make_l2
from repro.gpu.config import (
    Architecture, BY_ARCHITECTURE, EVALUATION_PLATFORMS, GTX570, GTX750TI,
    GTX980, GTX1080, KB, PLATFORMS, TESLA_K40, WritePolicy, platform)


class TestTable1Values:
    def test_four_evaluation_platforms_in_paper_order(self):
        names = [gpu.name for gpu in EVALUATION_PLATFORMS]
        assert names == ["GTX570", "Tesla K40", "GTX980", "GTX1080"]

    def test_architectures(self):
        archs = [gpu.architecture for gpu in EVALUATION_PLATFORMS]
        assert archs == [Architecture.FERMI, Architecture.KEPLER,
                         Architecture.MAXWELL, Architecture.PASCAL]

    def test_compute_capabilities(self):
        assert [g.compute_capability for g in EVALUATION_PLATFORMS] == \
            [2.0, 3.5, 5.2, 6.1]

    def test_sm_counts(self):
        assert [g.num_sms for g in EVALUATION_PLATFORMS] == [15, 15, 16, 20]

    def test_warp_slots(self):
        assert [g.warp_slots for g in EVALUATION_PLATFORMS] == [48, 64, 64, 64]

    def test_cta_slots(self):
        assert [g.cta_slots for g in EVALUATION_PLATFORMS] == [8, 16, 32, 32]

    def test_l1_line_sizes(self):
        assert GTX570.l1_line == 128
        assert TESLA_K40.l1_line == 128
        assert GTX980.l1_line == 32
        assert GTX1080.l1_line == 32

    def test_l2_line_is_32b_everywhere(self, any_gpu):
        assert any_gpu.l2_line == 32

    def test_l1_line_not_smaller_than_l2_line(self, any_gpu):
        # "the L1 cache line size is larger than or equal to that of
        # L2. This is important for later discussion." (Section 2)
        assert any_gpu.l1_line >= any_gpu.l2_line

    def test_l2_sizes(self):
        assert GTX570.l2_size == 1536 * KB
        assert TESLA_K40.l2_size == 1536 * KB
        assert GTX980.l2_size == 2048 * KB
        assert GTX1080.l2_size == 2048 * KB

    def test_shared_memory_sizes(self):
        assert [g.smem_per_sm // KB for g in EVALUATION_PLATFORMS] == \
            [48, 48, 96, 64]

    def test_register_files(self):
        assert GTX570.registers_per_sm == 32 * 1024
        assert all(g.registers_per_sm == 64 * 1024
                   for g in EVALUATION_PLATFORMS[1:])

    def test_fermi_kepler_configurable_l1(self):
        assert set(GTX570.l1_configurable_sizes) == {16 * KB, 48 * KB}
        assert set(TESLA_K40.l1_configurable_sizes) == \
            {16 * KB, 32 * KB, 48 * KB}

    def test_maxwell_pascal_fixed_l1(self):
        assert GTX980.l1_configurable_sizes == ()
        assert GTX980.l1_size == 48 * KB
        assert GTX1080.l1_size == 48 * KB


class TestDerivedProperties:
    def test_max_threads_per_sm(self):
        assert GTX570.max_threads_per_sm == 1536
        assert TESLA_K40.max_threads_per_sm == 2048

    def test_write_policies(self, any_gpu):
        assert any_gpu.l1_write_policy is WritePolicy.WRITE_EVICT
        assert any_gpu.l2_write_policy is WritePolicy.WRITE_BACK_ALLOCATE

    def test_l2_transactions_per_l1_miss(self):
        # "one 128B L1 miss is equivalent to four 32B L2 read
        # transactions" on Fermi/Kepler (Section 3.1)
        assert GTX570.l2_transactions_per_l1_miss == 4
        assert TESLA_K40.l2_transactions_per_l1_miss == 4
        assert GTX980.l2_transactions_per_l1_miss == 1
        assert GTX1080.l2_transactions_per_l1_miss == 1

    def test_unified_l1_tex_flag(self):
        assert not GTX570.has_unified_l1_tex
        assert not TESLA_K40.has_unified_l1_tex
        assert GTX980.has_unified_l1_tex
        assert GTX1080.has_unified_l1_tex

    def test_static_warp_slot_binding(self):
        # Fermi/Kepler bind CTAs to warp slots statically (Section 4.2.3)
        assert GTX570.static_warp_slot_binding
        assert TESLA_K40.static_warp_slot_binding
        assert not GTX980.static_warp_slot_binding
        assert not GTX1080.static_warp_slot_binding

    def test_sector_counts(self):
        assert GTX570.l1_sectors == 1
        assert TESLA_K40.l1_sectors == 1
        assert GTX980.l1_sectors == 2
        assert GTX1080.l1_sectors == 2

    def test_latencies_match_figure2_measurements(self):
        assert [g.l1_latency for g in EVALUATION_PLATFORMS] == \
            [125.0, 91.0, 131.0, 132.0]
        assert [g.l2_latency for g in EVALUATION_PLATFORMS] == \
            [374.0, 260.0, 254.0, 260.0]

    def test_dram_slower_than_l2_slower_than_l1(self, any_gpu):
        assert any_gpu.l1_latency < any_gpu.l2_latency < any_gpu.dram_latency


class TestConfigOperations:
    def test_with_l1_size_valid(self):
        big = GTX570.with_l1_size(48 * KB)
        assert big.l1_size == 48 * KB
        assert big.num_sms == GTX570.num_sms

    def test_with_l1_size_invalid(self):
        with pytest.raises(ValueError):
            GTX570.with_l1_size(32 * KB)

    def test_with_l1_size_fixed_platform(self):
        with pytest.raises(ValueError):
            GTX980.with_l1_size(16 * KB)
        assert GTX980.with_l1_size(48 * KB).l1_size == 48 * KB

    def test_with_scaled_l2(self):
        shrunk = GTX980.with_scaled_l2(8)
        assert shrunk.l2_size == 256 * KB
        assert shrunk.l1_size == GTX980.l1_size

    def test_with_scaled_l2_floor(self):
        tiny = GTX570.with_scaled_l2(10_000)
        assert tiny.l2_size == 32 * KB

    def test_with_scaled_l2_keeps_whole_sets(self):
        # 2 MB / 3 is not a whole number of 256-byte L2 sets.
        shrunk = GTX980.with_scaled_l2(3)
        assert shrunk.l2_size == 682 * KB
        for fast in (True, False):
            assert make_l2(shrunk, fast=fast).n_sets == 682 * KB // 256

    def test_with_scaled_l2_invalid(self):
        with pytest.raises(ValueError):
            GTX980.with_scaled_l2(0)

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GTX570.num_sms = 99


class TestPlatformLookup:
    def test_lookup_by_name(self):
        assert platform("GTX980") is GTX980
        assert platform("Tesla K40") is TESLA_K40

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            platform("GTX9000")

    def test_registry_contains_gtx750ti(self):
        assert PLATFORMS["GTX750Ti"] is GTX750TI
        assert GTX750TI.compute_capability == 5.0

    def test_by_architecture(self):
        assert BY_ARCHITECTURE[Architecture.PASCAL] is GTX1080
