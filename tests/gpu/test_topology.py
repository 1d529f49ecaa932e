"""Chiplet topology properties: trivial-package bit-identity, placement
bijections, page-ownership consistency and local-traffic accounting.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.gpu import analytic, topology
from repro.gpu.config import GTX980, GTX1080, TESLA_K40, platform
from repro.gpu.metrics import canonical_metrics
from repro.gpu.plan import ExecutionPlan, baseline_plan
from repro.gpu.simulator import simulate
from repro.gpu.topology import (
    ChipletTopology,
    PLACEMENTS,
    TOPOLOGIES,
    _cluster_affinity,
    _greedy_assignment,
    chiplet_variant,
    place_tasks,
    resolve_placement,
)
from repro.kernels.access import read
from repro.kernels.kernel import AddressSpace, Dim3, KernelSpec
from repro.workloads.registry import all_workloads, workload


class TestTopologyBasics:
    def test_chiplet_variant_one_is_the_flat_die(self):
        assert chiplet_variant(GTX980, 1) is GTX980

    def test_chiplet_variant_names_capture_the_count(self):
        assert chiplet_variant(GTX980, 2).name == "GTX980x2"
        assert platform("GTX980x4").topology.chiplets == 4

    def test_one_chiplet_topology_is_trivial(self):
        assert ChipletTopology(chiplets=1).is_trivial
        assert not ChipletTopology(chiplets=2).is_trivial

    def test_sms_partition_into_contiguous_groups(self):
        topo = ChipletTopology(chiplets=4)
        groups = topo.sms_of_chiplet(16)
        assert [len(g) for g in groups] == [4, 4, 4, 4]
        flat = [sm for group in groups for sm in group]
        assert flat == list(range(16))
        for sm in range(16):
            assert topo.chiplet_of_sm(sm, 16) == sm // 4

    def test_resolve_placement(self):
        assert resolve_placement(None) == "oblivious"
        assert resolve_placement("local-first") == "local-first"
        with pytest.raises(ValueError):
            resolve_placement("teleport")

    def test_registries(self):
        assert TOPOLOGIES["single-die"] is None
        assert TOPOLOGIES["4-chiplet"].chiplets == 4
        assert set(PLACEMENTS) == {"oblivious", "local-first", "balanced"}

    @given(line=st.integers(0, 1 << 24),
           line_bytes=st.sampled_from((32, 64, 128)),
           chiplets=st.sampled_from((2, 3, 4, 8)))
    @settings(max_examples=50, deadline=None)
    def test_line_owner_consistent_with_addr_owner(self, line, line_bytes,
                                                   chiplets):
        topo = ChipletTopology(chiplets=chiplets)
        assert topo.owner_of_line(line, line_bytes) == \
            topo.owner_of_addr(line * line_bytes)

    @given(lines=st.lists(st.integers(0, 1 << 20), max_size=60),
           line_bytes=st.sampled_from((32, 128)),
           chiplets=st.sampled_from((2, 3, 4)),
           block_pages=st.sampled_from((1, 2, 64)))
    @settings(max_examples=50, deadline=None)
    def test_owner_split_is_owner_of_line(self, lines, line_bytes,
                                          chiplets, block_pages):
        topo = ChipletTopology(chiplets=chiplets, block_pages=block_pages)
        split = topo.owner_split(iter(lines), line_bytes)
        assert len(split) == chiplets
        for owner, owned in enumerate(split):
            assert owned == {line for line in lines
                             if topo.owner_of_line(line, line_bytes) == owner}


class TestChipletVariantValidation:
    """Ownership blocks must hold whole L1 and L2 lines: both cores
    and the ownership map assume a line never straddles two blocks."""

    @pytest.mark.parametrize("base, page_size, block_pages", [
        (GTX980, 16, 1), (GTX980, 100, 1), (GTX980, 50, 2),
        (TESLA_K40, 64, 1), (TESLA_K40, 96, 3)])
    def test_block_not_a_multiple_of_both_lines_is_rejected(
            self, base, page_size, block_pages):
        with pytest.raises(ValueError, match="multiple"):
            chiplet_variant(base, 2, page_size=page_size,
                            block_pages=block_pages)

    def test_facade_rejects_it_before_simulating(self):
        with pytest.raises(ValueError, match="multiple"):
            api.simulate("NN", "GTX980", scheme="CLU", scale=0.05,
                         topology=ChipletTopology(chiplets=2, page_size=16,
                                                  block_pages=1))

    @pytest.mark.parametrize("base, page_size", [(GTX980, 32),
                                                 (TESLA_K40, 128)])
    def test_smallest_whole_line_block_is_accepted(self, base, page_size):
        config = chiplet_variant(base, 2, page_size=page_size, block_pages=1)
        assert config.topology.block_bytes == page_size

    def test_one_chiplet_is_never_validated(self):
        assert chiplet_variant(GTX980, 1, page_size=16,
                               block_pages=1) is GTX980


def _per_line_affinity(tasks, kernel, config, topo):
    """The direct definition: every line of every op, priced once."""
    lines_by_owner = {}
    seen = set()
    for cta in tasks:
        for op in kernel.compiled_trace(cta, config.l1_line, config.l2_line):
            for line in op[3]:
                if line not in seen:
                    seen.add(line)
                    owner = topo.owner_of_line(line, config.l2_line)
                    lines_by_owner[owner] = lines_by_owner.get(owner, 0) + 1
    return lines_by_owner


def _per_line_owned(profile, topo, l2_line):
    """Unmemoized per-chiplet counts of a profile's L2 lines."""
    counts = [0] * topo.chiplets
    for line in profile.l2_lines:
        counts[topo.owner_of_line(line, l2_line)] += 1
    return tuple(counts)


def assert_split_matches_definition(kernel, config, policy):
    """Memoized ownership == per-line ownership, at every use site:
    cluster affinities, the placed binding and rung-0 estimates."""
    topo = config.topology
    flat = api.cluster(kernel, "CLU", gpu=config)
    for tasks in flat.sm_tasks:
        assert _cluster_affinity(tasks, kernel, config, topo) == \
            _per_line_affinity(tasks, kernel, config, topo)
    placed = api.cluster(kernel, "CLU", gpu=config, placement=policy)
    with mock.patch.object(topology, "_cluster_affinity",
                           _per_line_affinity):
        oracle = api.cluster(kernel, "CLU", gpu=config, placement=policy)
    assert placed.sm_tasks == oracle.sm_tasks
    for plan in (baseline_plan(), placed):
        got = analytic.estimate(config, kernel, plan)
        with mock.patch.object(analytic, "_owned_lines", _per_line_owned):
            want = analytic.estimate(config, kernel, plan)
        assert repr(got) == repr(want)


class TestOwnerSplitMatchesDefinition:
    """Chiplet ownership is split once per CTA footprint and memoized
    per (line geometry, block_bytes, chiplets); every result built on
    it must equal the per-line definition it replaced."""

    @given(abbr=st.sampled_from([w.abbr for w in all_workloads()]),
           base=st.sampled_from((GTX980, GTX1080)),
           chiplets=st.sampled_from((2, 4)),
           page_size=st.sampled_from((128, 512, 4096)),
           block_pages=st.sampled_from((1, 4, 64)),
           l2_divisor=st.sampled_from((1, 16)),
           policy=st.sampled_from(("local-first", "balanced")))
    @settings(max_examples=30, deadline=None)
    def test_registry_kernels(self, abbr, base, chiplets, page_size,
                              block_pages, l2_divisor, policy):
        # Registry kernels are shared instances, so their memos carry
        # over between examples with different topologies.
        config = chiplet_variant(base, chiplets, page_size=page_size,
                                 block_pages=block_pages)
        config = config.with_scaled_l2(l2_divisor)
        kernel = workload(abbr).kernel(scale=0.15, config=config)
        assert_split_matches_definition(kernel, config, policy)

    @staticmethod
    def fresh_kernel(abbr, config):
        """A kernel copy with empty memos and its own profile table."""
        return dataclasses.replace(
            workload(abbr).kernel(scale=0.2, config=config))

    # The shrunken L2 makes DRAM traffic, without which the estimates
    # carry no remote term to compare.
    @pytest.mark.parametrize("policy", ["local-first", "balanced"])
    def test_same_kernel_on_two_then_four_chiplets(self, policy):
        kernel = self.fresh_kernel("HST", GTX980)
        for name in ("GTX980x2", "GTX980x4"):
            config = platform(name).with_scaled_l2(16)
            assert_split_matches_definition(kernel, config, policy)

    @pytest.mark.parametrize("policy", ["local-first", "balanced"])
    def test_same_kernel_under_two_block_sizes(self, policy):
        kernel = self.fresh_kernel("BKP", GTX980)
        for block_pages in (64, 1):
            config = chiplet_variant(GTX980, 2, page_size=512,
                                     block_pages=block_pages)
            assert_split_matches_definition(
                kernel, config.with_scaled_l2(16), policy)


class TestTrivialPackageBitIdentity:
    """A 1-chiplet package must be indistinguishable from the flat die
    — the property that keeps every golden fingerprint valid."""

    def _flat_and_trivial(self, abbr, scheme, fast):
        trivial = dataclasses.replace(GTX980,
                                      topology=ChipletTopology(chiplets=1))
        out = []
        for config in (GTX980, trivial):
            kernel = workload(abbr).kernel(scale=0.3, config=config)
            plan = None
            if scheme != "BSL":
                plan = api.cluster(kernel, scheme, gpu=config)
            out.append(simulate(config, kernel, plan, seed=0, warmups=1,
                                fast=fast))
        return out

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast", "reference"])
    @pytest.mark.parametrize("abbr,scheme",
                             [("NN", "CLU"), ("HST", "CLU"), ("ATX", "BSL")])
    def test_bit_identical_on_both_cores(self, abbr, scheme, fast):
        flat, trivial = self._flat_and_trivial(abbr, scheme, fast)
        assert canonical_metrics(flat) == canonical_metrics(trivial)

    def test_flat_metrics_have_no_numa_section(self):
        metrics = api.simulate("NN", GTX980, scale=0.3)
        assert metrics.chiplets == 1
        assert metrics.dram_remote_transactions == 0
        assert metrics.remote_traffic_fraction == 0.0
        assert "numa" not in canonical_metrics(metrics)


class TestPlacementBijection:
    """Every placement policy is a permutation of the cluster binding:
    the same task lists, each appearing exactly once."""

    @pytest.fixture(scope="class")
    def placed_inputs(self):
        config = platform("GTX980x4").with_scaled_l2(16)
        kernel = workload("HST").kernel(scale=0.3, config=config)
        plan = api.cluster(kernel, "CLU", gpu=config)
        return config, kernel, plan.sm_tasks

    @pytest.mark.parametrize("policy", sorted(PLACEMENTS))
    def test_policy_is_a_bijection(self, placed_inputs, policy):
        config, kernel, sm_tasks = placed_inputs
        placed = place_tasks(sm_tasks, policy, config.topology, config,
                             kernel)
        assert len(placed) == len(sm_tasks)
        original = sorted(tuple(tasks) for tasks in sm_tasks)
        permuted = sorted(tuple(tasks) for tasks in placed)
        assert permuted == original

    def test_trivial_topology_never_moves_anything(self, placed_inputs):
        config, kernel, sm_tasks = placed_inputs
        for policy in PLACEMENTS:
            placed = place_tasks(sm_tasks, policy,
                                 ChipletTopology(chiplets=1), config, kernel)
            assert placed == list(sm_tasks)

    @given(chiplets=st.sampled_from((2, 4)),
           clusters_per_chiplet=st.integers(1, 6),
           balance=st.booleans(),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_greedy_assignment_fills_every_slot_exactly(
            self, chiplets, clusters_per_chiplet, balance, data):
        """The greedy bind is slot-exact: chiplet k receives exactly
        ``slots[k]`` clusters, whatever the affinities — the balanced
        cluster-count property every policy inherits."""
        slots = [clusters_per_chiplet] * chiplets
        n = sum(slots)
        affinities = [
            {owner: data.draw(st.integers(0, 100),
                              label=f"aff[{c}][{owner}]")
             for owner in range(chiplets)}
            for c in range(n)]
        assignment = _greedy_assignment(affinities, slots, balance=balance)
        assert len(assignment) == n
        counts = [assignment.count(k) for k in range(chiplets)]
        assert counts == slots


class TestLocalTrafficAccounting:
    """DRAM traffic confined to its accessor's own chiplet must charge
    zero remote transactions and zero hop latency."""

    def _local_only_setup(self):
        """All tasks on chiplet 0, all pages in chiplet-0 blocks.

        The allocator's base (0x1000_0000) is 256 KiB-aligned, so a
        footprint under one ownership block (256 KiB) sits entirely in
        chiplet-0-owned pages; binding every task to SMs 0..3 (chiplet
        0 of the 4-chiplet Maxwell) makes every DRAM fill local.
        """
        config = platform("GTX980x4")
        topo = config.topology
        rows = 512  # 512 * 32B = 16 KiB << one 256 KiB block
        space = AddressSpace()
        array = space.alloc("local", rows, 8)

        def trace(bx, by, bz):
            return [read(array.addr((bx * 37 + k * 13) % rows, 0), 4, 32, 4)
                    for k in range(16)]

        kernel = KernelSpec(name="local-only", grid=Dim3(16), block=Dim3(64),
                            trace=trace, regs_per_thread=16)
        home_sms = topo.sms_of_chiplet(config.num_sms)[0]
        sm_tasks = [[] for _ in range(config.num_sms)]
        for cta in range(kernel.grid.count):
            sm_tasks[home_sms[cta % len(home_sms)]].append(cta)
        plan = ExecutionPlan(scheme="CLU", mode="placed", sm_tasks=sm_tasks,
                             active_agents=1)
        return config, kernel, plan

    def test_all_local_pages_mean_zero_remote_traffic(self):
        config, kernel, plan = self._local_only_setup()
        metrics = simulate(config, kernel, plan, seed=0, warmups=0)
        assert metrics.chiplets == 4
        assert metrics.dram_transactions > 0
        assert metrics.dram_remote_transactions == 0
        assert metrics.remote_traffic_fraction == 0.0
        assert metrics.dram_local_transactions == metrics.dram_transactions

    def test_local_only_run_matches_flat_timing(self):
        """With zero remote fills the hop cost never engages: the same
        plan on the topology-free die is bit-identical in cycles."""
        config, kernel, plan = self._local_only_setup()
        chipleted = simulate(config, kernel, plan, seed=0, warmups=0)
        flat = simulate(GTX980, kernel, plan, seed=0, warmups=0)
        assert chipleted.cycles == flat.cycles
        assert chipleted.dram_transactions == flat.dram_transactions


class TestCoreAgreement:
    def test_fast_and_reference_agree_on_chiplet_platform(self):
        config = platform("GTX980x4").with_scaled_l2(16)
        kernel = workload("HST").kernel(scale=0.3, config=config)
        plan = api.cluster(kernel, "CLU", gpu=config,
                           placement="local-first")
        fast = simulate(config, kernel, plan, seed=0, warmups=1, fast=True)
        reference = simulate(config, kernel, plan, seed=0, warmups=1,
                             fast=False)
        assert canonical_metrics(fast) == canonical_metrics(reference)
        assert fast.dram_remote_transactions > 0


class TestPlacementEndToEnd:
    def test_local_first_never_loses_static_locality(self):
        """The demonstration pair: on the 4-chiplet Maxwell in the
        shrunken-L2 regime, local-first strictly reduces the remote
        traffic the oblivious binding routes across the interposer."""
        config = platform("GTX980x4").with_scaled_l2(16)
        for abbr in ("HST", "BKP"):
            oblivious = api.simulate(abbr, config, scheme="CLU", scale=0.3)
            local = api.simulate(abbr, config, scheme="CLU", scale=0.3,
                                 placement="local-first")
            assert local.dram_remote_transactions <= \
                oblivious.dram_remote_transactions, abbr
            assert local.remote_traffic_fraction < \
                oblivious.remote_traffic_fraction, abbr
