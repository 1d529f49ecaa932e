"""Simulator tests: completeness, determinism, plan semantics, and the
cache/timing effects the paper's evaluation depends on.
"""

from repro.core.agent import agent_plan
from repro.core.indexing import X_PARTITION
from repro.core.redirection import redirection_plan
from repro.gpu.config import PLATFORMS
from repro.gpu.scheduler import RoundRobinScheduler
from repro.gpu.simulator import GpuSimulator, simulate

from tests.conftest import make_row_band_kernel, make_streaming_kernel


class TestBaselineExecution:
    def test_every_cta_executes_once(self, any_gpu, shared_table_kernel):
        metrics = GpuSimulator(any_gpu).run(shared_table_kernel)
        assert metrics.ctas_executed == shared_table_kernel.n_ctas
        assert sum(metrics.ctas_per_sm) == shared_table_kernel.n_ctas

    def test_deterministic_per_seed(self, kepler, shared_table_kernel):
        sim = GpuSimulator(kepler)
        a = sim.run(shared_table_kernel, seed=3)
        b = sim.run(shared_table_kernel, seed=3)
        assert a.cycles == b.cycles
        assert a.l2_transactions == b.l2_transactions

    def test_positive_cycles_and_traffic(self, any_gpu, streaming_kernel):
        metrics = GpuSimulator(any_gpu).run(streaming_kernel)
        assert metrics.cycles > 0
        assert metrics.l2_read_transactions > 0
        assert metrics.l2_write_transactions > 0
        assert metrics.dram_transactions > 0

    def test_cold_simulate_helper(self, kepler, streaming_kernel):
        metrics = simulate(kepler, streaming_kernel, warmups=0)
        assert metrics.scheme == "BSL"
        assert metrics.gpu_name == kepler.name

    def test_streaming_kernel_never_hits_l1(self, kepler, streaming_kernel):
        metrics = GpuSimulator(kepler).run(streaming_kernel)
        assert metrics.l1.hits == 0

    def test_shared_table_kernel_hits_l1(self, kepler, shared_table_kernel):
        metrics = GpuSimulator(kepler).run(shared_table_kernel)
        assert metrics.l1_hit_rate > 0.2

    def test_occupancy_in_unit_range(self, any_gpu, shared_table_kernel):
        metrics = GpuSimulator(any_gpu).run(shared_table_kernel)
        assert 0.0 < metrics.achieved_occupancy <= 1.0


class TestL2TransactionAccounting:
    def test_fermi_l1_miss_is_four_l2_transactions(self, fermi,
                                                   streaming_kernel):
        metrics = GpuSimulator(fermi).run(streaming_kernel)
        # every read access misses; each 128B L1 line fill = 4 x 32B
        reads = streaming_kernel.n_ctas * 2
        assert metrics.l2_read_transactions == reads * 4

    def test_maxwell_l1_miss_is_one_l2_transaction(self, maxwell,
                                                   streaming_kernel):
        metrics = GpuSimulator(maxwell).run(streaming_kernel)
        # each 128B warp read = 4 x 32B sector accesses = 4 transactions
        reads = streaming_kernel.n_ctas * 2
        assert metrics.l2_read_transactions == reads * 4

    def test_writes_counted_separately(self, kepler, streaming_kernel):
        metrics = GpuSimulator(kepler).run(streaming_kernel)
        writes = streaming_kernel.n_ctas  # one 128B store = 4 x 32B
        assert metrics.l2_write_transactions == writes * 4

    def test_l1_disabled_routes_reads_to_l2(self, kepler, streaming_kernel):
        on = GpuSimulator(kepler).run(streaming_kernel)
        off = GpuSimulator(kepler, l1_enabled=False).run(streaming_kernel)
        assert off.l1.accesses == 0
        assert off.l2_read_transactions == on.l2_read_transactions


class TestPlacedMode:
    def test_placed_runs_all_tasks(self, kepler, shared_table_kernel):
        plan = agent_plan(shared_table_kernel, kepler, X_PARTITION)
        metrics = GpuSimulator(kepler).run(shared_table_kernel, plan)
        assert metrics.ctas_executed == shared_table_kernel.n_ctas

    def test_placed_balances_tasks(self, kepler, shared_table_kernel):
        plan = agent_plan(shared_table_kernel, kepler, X_PARTITION)
        metrics = GpuSimulator(kepler).run(shared_table_kernel, plan)
        assert max(metrics.ctas_per_sm) - min(metrics.ctas_per_sm) <= 1

    def test_placed_charges_overheads(self, maxwell, shared_table_kernel):
        plan = agent_plan(shared_table_kernel, maxwell, X_PARTITION)
        metrics = GpuSimulator(maxwell).run(shared_table_kernel, plan)
        assert metrics.overhead_cycles > 0

    def test_throttled_plan_reduces_concurrency(self, kepler,
                                                shared_table_kernel):
        sim = GpuSimulator(kepler)
        full = sim.run(shared_table_kernel,
                       agent_plan(shared_table_kernel, kepler, X_PARTITION))
        one = sim.run(shared_table_kernel,
                      agent_plan(shared_table_kernel, kepler, X_PARTITION,
                                 active_agents=1))
        assert one.achieved_occupancy < full.achieved_occupancy

    def test_ignores_scheduler(self, kepler, shared_table_kernel):
        plan = agent_plan(shared_table_kernel, kepler, X_PARTITION)
        a = GpuSimulator(kepler).run(shared_table_kernel, plan, seed=1)
        b = GpuSimulator(kepler,
                         scheduler=RoundRobinScheduler()).run(
            shared_table_kernel, plan, seed=99)
        assert a.cycles == b.cycles


class TestClusteringEffects:
    def test_clustering_improves_row_band_hit_rate(self, fermi):
        # row-band reuse is the canonical clusterable pattern
        kernel = make_row_band_kernel(grid_x=15, grid_y=15, band_rows=4)
        from repro.core.indexing import Y_PARTITION
        sim = GpuSimulator(fermi)
        base = sim.run(kernel)
        clustered = sim.run(kernel, agent_plan(kernel, fermi, Y_PARTITION))
        assert clustered.l1_hit_rate > base.l1_hit_rate
        assert clustered.l2_transactions < base.l2_transactions

    def test_redirection_under_rr_matches_cluster_affinity(self, fermi):
        kernel = make_row_band_kernel(grid_x=15, grid_y=15, band_rows=4)
        from repro.core.indexing import Y_PARTITION
        rr_sim = GpuSimulator(fermi, scheduler=RoundRobinScheduler())
        base = rr_sim.run(kernel)
        rd = rr_sim.run(kernel, redirection_plan(kernel, fermi, Y_PARTITION))
        assert rd.l2_transactions < base.l2_transactions

    def test_bypass_protects_l1_from_streams(self, kepler,
                                             shared_table_kernel):
        sim = GpuSimulator(kepler)
        plain = sim.run(shared_table_kernel,
                        agent_plan(shared_table_kernel, kepler, X_PARTITION))
        bypassed = sim.run(
            shared_table_kernel,
            agent_plan(shared_table_kernel, kepler, X_PARTITION,
                       bypass_streams=True, scheme="CLU+BPS"))
        assert bypassed.l1.accesses < plain.l1.accesses

    def test_prefetch_issues_fills(self, kepler):
        from tests.conftest import make_streaming_kernel
        kernel = make_streaming_kernel(n_ctas=400)  # several waves/SM
        plan = agent_plan(kernel, kepler, X_PARTITION,
                          prefetch_depth=2, scheme="PFH")
        metrics = GpuSimulator(kepler).run(kernel, plan)
        assert metrics.prefetch_issues > 0


class TestRecording:
    def test_per_cta_records(self, kepler, shared_table_kernel):
        metrics = GpuSimulator(kepler).run(shared_table_kernel,
                                           record_per_cta=True)
        assert len(metrics.cta_records) == shared_table_kernel.n_ctas
        ids = sorted(r.original_id for r in metrics.cta_records)
        assert ids == list(range(shared_table_kernel.n_ctas))

    def test_records_off_by_default(self, kepler, shared_table_kernel):
        metrics = GpuSimulator(kepler).run(shared_table_kernel)
        assert metrics.cta_records == []


class TestWarmMeasurement:
    def test_warm_run_sees_warm_l2(self, kepler, shared_table_kernel):
        sim = GpuSimulator(kepler)
        cold = sim.run(shared_table_kernel)
        warm = simulate(sim, shared_table_kernel, warmups=1)
        assert warm.dram_transactions < cold.dram_transactions

    def test_warm_run_l1_is_cold(self, kepler, streaming_kernel):
        # L1s are invalidated at kernel-launch boundaries
        sim = GpuSimulator(kepler)
        warm = simulate(sim, streaming_kernel, warmups=2)
        assert warm.l1.hits == 0

    def test_counters_cover_measured_launch_only(self, kepler,
                                                 shared_table_kernel):
        sim = GpuSimulator(kepler)
        single = sim.run(shared_table_kernel)
        warm = simulate(sim, shared_table_kernel, warmups=3)
        assert warm.l1.accesses == single.l1.accesses
        assert warm.ctas_executed == shared_table_kernel.n_ctas


class TestCachePairRecycling:
    """The process-wide pool of reset cache pairs (DESIGN.md, "One
    cache-pair pool per process")."""

    def test_simulate_parks_one_reset_pair(self, kepler,
                                           shared_table_kernel,
                                           cache_pool):
        sim = GpuSimulator(kepler)
        first = simulate(sim, shared_table_kernel)
        (pair,) = cache_pool._pairs.values()
        l1s, l2 = pair
        assert not any(l2._tags)
        assert all(not any(part._tags) for l1 in l1s for part in l1._parts)
        assert l2.stats.accesses == 0
        again = simulate(sim, shared_table_kernel)
        (still,) = cache_pool._pairs.values()
        assert still is pair
        assert again.cycles == first.cycles

    def test_nested_taker_gets_a_fresh_pair(self, kepler, cache_pool):
        sim = GpuSimulator(kepler)
        outer = sim.take_caches()
        inner = sim.take_caches()
        assert inner is not outer
        sim.park_caches(inner)
        sim.park_caches(outer)
        (kept,) = cache_pool._pairs.values()
        assert kept is inner

    def test_bare_launch_recycles_the_pair(self, kepler,
                                          shared_table_kernel, cache_pool):
        sim = GpuSimulator(kepler)
        first = sim.run(shared_table_kernel)
        (pair,) = cache_pool._pairs.values()
        again = sim.run(shared_table_kernel)
        (still,) = cache_pool._pairs.values()
        assert still is pair
        assert again.cycles == first.cycles

    def test_config_path_reuses_the_pooled_pair(self, kepler,
                                                shared_table_kernel,
                                                cache_pool, monkeypatch):
        built = []
        fresh = GpuSimulator.fresh_caches

        def counting_fresh(self):
            built.append(self)
            return fresh(self)

        monkeypatch.setattr(GpuSimulator, "fresh_caches", counting_fresh)
        first = simulate(kepler, shared_table_kernel)  # its own simulator
        (pair,) = cache_pool._pairs.values()
        again = simulate(kepler, shared_table_kernel)  # another one
        simulate(GpuSimulator(kepler), shared_table_kernel)
        assert len(built) == 1
        (still,) = cache_pool._pairs.values()
        assert still is pair
        assert again.cycles == first.cycles

    def test_key_is_the_cache_geometry(self, kepler, cache_pool):
        import dataclasses

        from repro.gpu.config import GTX980
        from repro.gpu.simulator import cache_key

        # A chiplet variant and a knob the caches never read share the
        # flat die's pair; the core and every cache field split it.
        gtx980x2 = PLATFORMS["GTX980x2"]
        assert cache_key(gtx980x2, True) == cache_key(GTX980, True)
        assert cache_key(dataclasses.replace(kepler, l2_latency=1.0),
                         True) == cache_key(kepler, True)
        assert cache_key(kepler, False) != cache_key(kepler, True)
        for field, value in (("num_sms", 7), ("l1_size", 32768),
                             ("l1_line", 64), ("l1_sectors", 2),
                             ("l2_size", 786432), ("l2_line", 64)):
            assert cache_key(dataclasses.replace(kepler, **{field: value}),
                             True) != cache_key(kepler, True), field

        sim = GpuSimulator(GTX980)
        sim.park_caches(sim.take_caches())
        (pair,) = cache_pool._pairs.values()
        assert GpuSimulator(gtx980x2, hiding_cap=4.0).take_caches() is pair

    def test_oldest_key_is_evicted(self, kepler, cache_pool):
        from repro.gpu.simulator import POOL_KEYS

        sims = [GpuSimulator(kepler.with_scaled_l2(d))
                for d in range(1, POOL_KEYS + 2)]
        pairs = [sim.take_caches() for sim in sims]
        for sim, pair in zip(sims, pairs):
            sim.park_caches(pair)
        assert len(cache_pool._pairs) == POOL_KEYS
        assert sims[0].take_caches() is not pairs[0]
        assert all(sim.take_caches() is pair
                   for sim, pair in zip(sims[1:], pairs[1:]))

    def test_caller_caches_are_left_alone(self, kepler,
                                          shared_table_kernel, cache_pool):
        sim = GpuSimulator(kepler)
        caches = sim.fresh_caches()
        simulate(sim, shared_table_kernel, caches=caches)
        assert cache_pool._pairs == {}
        assert caches[1].stats.accesses > 0

    def test_concurrent_callers_never_share_a_pair(self, kepler, cache_pool):
        import sys
        import threading

        from repro.gpu.metrics import canonical_metrics

        kernels = [make_row_band_kernel(), make_streaming_kernel()]
        want = [canonical_metrics(simulate(GpuSimulator(kepler), k,
                                           caches=GpuSimulator(
                                               kepler).fresh_caches()))
                for k in kernels]
        sim = GpuSimulator(kepler)
        mismatches = []

        def worker(index):
            # Half the threads share one simulator, half build their
            # own per call: every one of them draws from the one pool.
            gpu = sim if index < 3 else kepler
            for _ in range(3):
                got = canonical_metrics(simulate(gpu, kernels[index % 2]))
                if got != want[index % 2]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(cache_pool._pairs) == 1

    def test_executor_jobs_build_one_pair_per_key(self, cache_pool,
                                                  monkeypatch):
        from collections import Counter

        from repro.engine.executors import (execute, measure_job,
                                            simulate_job)
        from repro.gpu.cache import default_fast
        from repro.gpu.config import GTX980, TESLA_K40
        from repro.gpu.simulator import cache_key

        built = Counter()
        fresh = GpuSimulator.fresh_caches

        def counting_fresh(self):
            built[cache_key(self.config, self.fast)] += 1
            return fresh(self)

        monkeypatch.setattr(GpuSimulator, "fresh_caches", counting_fresh)
        for seed in range(4):
            for gpu in ("GTX980", "Tesla K40"):
                execute(simulate_job("NN", gpu, scale=0.05, seed=seed))
                execute(measure_job("NN", gpu, plan="clu", scale=0.05,
                                    seed=seed))
        fast = default_fast()
        assert built == {cache_key(GTX980, fast): 1,
                         cache_key(TESLA_K40, fast): 1}
