"""A reset cache is a fresh cache; a recycled pair is a new one.

``simulate()``, ``GpuSimulator.run()`` and the co-tenant runner draw
their cold cache pairs from one process-wide pool keyed by cache
geometry: they reset a pair when a call finishes and park it for the
next call of that geometry, from any simulator.  That is only sound
if ``reset()`` restores the freshly built state exactly, in every
cache class, so these properties check it directly:

* after any drawn op history and ``reset()``, replaying a drawn op
  sequence gives the same ``(hit, ready)`` stream, counters and
  in-set line order (hence victim order) as a brand-new cache — for
  the fast and reference set-associative caches under LRU and random
  replacement, and for both sectored caches;
* ``simulate()`` and bare ``GpuSimulator.run()`` calls for different
  kernels, plans and platforms, interleaved on long-lived simulators,
  each match the same call on a brand-new simulator, bit for bit;
* jobs that each build their own simulator — on Tesla K40, GTX980,
  the GTX980x2 chiplet part (which shares GTX980's pair), a scaled L2
  and an isolated co-tenant mix — interleaved over one pool of a
  drawn bound, each match the same job on brand-new caches and on
  the reference core.

Example counts scale with ``REPRO_FUZZ_CASES`` like the rest of the
differential suite.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.gpu.config import PLATFORMS, WritePolicy
from repro.gpu.fastpath import FastSectoredCache, FastSetAssociativeCache
from repro.gpu.metrics import canonical_metrics
from repro.gpu.refmodel import SectoredCache, SetAssociativeCache
from repro.gpu import simulator as simulator_module
from repro.gpu.simulator import POOL_KEYS, GpuSimulator, simulate
from repro.obs.tracer import Tracer
from repro.tenancy import TenantMix, run_mix
from repro.workloads.registry import REGISTRY

from tests.differential.test_simulator_differential import random_kernel

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "80"))

CACHE_FUZZ = settings(max_examples=CASES, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
SIM_FUZZ = settings(max_examples=max(12, CASES // 4), deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

LINE = 32

#: name -> builder(n_sets, assoc, seed); every class that ``reset()``
#: must return to its constructed state.
CACHES = {
    "fast-lru": lambda n_sets, assoc, seed: FastSetAssociativeCache(
        n_sets * assoc * LINE, LINE, assoc, WritePolicy.WRITE_EVICT),
    "fast-random": lambda n_sets, assoc, seed: FastSetAssociativeCache(
        n_sets * assoc * LINE, LINE, assoc, WritePolicy.WRITE_BACK_ALLOCATE,
        random_replacement=True, seed=seed),
    "fast-sectored": lambda n_sets, assoc, seed: FastSectoredCache(
        2 * n_sets * assoc * LINE, LINE, assoc, 2),
    "ref-lru": lambda n_sets, assoc, seed: SetAssociativeCache(
        n_sets * assoc * LINE, LINE, assoc, WritePolicy.WRITE_EVICT),
    "ref-random": lambda n_sets, assoc, seed: SetAssociativeCache(
        n_sets * assoc * LINE, LINE, assoc, WritePolicy.WRITE_BACK_ALLOCATE,
        random_replacement=True, seed=seed),
    "ref-sectored": lambda n_sets, assoc, seed: SectoredCache(
        2 * n_sets * assoc * LINE, LINE, assoc, 2),
}


def _op():
    addr = st.integers(min_value=0, max_value=24 * LINE - 1)
    time = st.sampled_from([0.0, 1.0, 7.5, 100.0, 350.0])
    sector = st.integers(min_value=0, max_value=3)
    return st.one_of(
        st.tuples(st.just("access"), addr, time,
                  st.sampled_from([0.0, 10.0, 200.0]), st.booleans(),
                  sector),
        st.tuples(st.just("install"), addr, time, sector),
        st.tuples(st.just("contains"), addr, sector),
        st.tuples(st.just("settle")),
        st.tuples(st.just("flush")),
    )


OPS = st.lists(_op(), max_size=60)


def _sectored(cache) -> bool:
    return isinstance(cache, (FastSectoredCache, SectoredCache))


def apply(cache, op):
    """Run one op; returns what the op returns (``None`` for none)."""
    kind = op[0]
    sector = {"sector": op[-1]} if _sectored(cache) and kind in (
        "access", "install", "contains") else {}
    if kind == "access":
        return cache.access(op[1], op[2], op[3], op[4], **sector)
    if kind == "install":
        return cache.install(op[1], op[2], **sector)
    if kind == "contains":
        return cache.contains(op[1], **sector)
    return getattr(cache, kind)()


def state(cache):
    """Everything observable: lines in recency order with their fill
    times (so victim order), counters, LCG state, tracer, level."""
    if _sectored(cache):
        return tuple(state(part) for part in cache._parts)
    if isinstance(cache, FastSetAssociativeCache):
        sets = tuple(tuple(zip(tags, ready))
                     for tags, ready in zip(cache._tags, cache._ready))
    else:
        sets = tuple(tuple(cset.items()) for cset in cache._sets)
    s = cache.stats
    return (sets, (s.accesses, s.hits, s.misses, s.reserved_hits,
                   s.write_evictions),
            cache._rng_state, cache._tracer, cache._level)


@CACHE_FUZZ
@given(name=st.sampled_from(sorted(CACHES)),
       n_sets=st.integers(min_value=1, max_value=4),
       assoc=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=0xFFFF),
       history=OPS, replay=OPS, traced=st.booleans())
def test_reset_cache_replays_like_a_fresh_one(name, n_sets, assoc, seed,
                                              history, replay, traced):
    build = CACHES[name]
    used = build(n_sets, assoc, seed)
    if traced:
        used.set_tracer(Tracer(), "L2")
    for op in history:
        apply(used, op)
    used.reset()
    fresh = build(n_sets, assoc, seed)
    assert state(used) == state(fresh)
    for step, op in enumerate(replay):
        assert apply(used, op) == apply(fresh, op), (step, op)
        assert state(used) == state(fresh), (step, op)


#: Fermi/Kepler (128 B lines), Maxwell (sectored L1) and a chiplet part.
PLATFORM_NAMES = ("GTX570", "Tesla K40", "GTX980", "GTX1080x2")
SCHEMES = ("BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT")


@SIM_FUZZ
@given(calls=st.lists(
    st.tuples(st.sampled_from(PLATFORM_NAMES),
              st.integers(min_value=0, max_value=3),
              st.sampled_from(SCHEMES),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2),
              st.booleans(), st.booleans()),
    min_size=2, max_size=6),
    fast=st.booleans())
def test_interleaved_simulate_calls_match_fresh_simulators(calls, fast):
    kernels = [random_kernel(random.Random(0x5E7 + k), k) for k in range(4)]
    shared = {}
    for gpu, k, scheme, seed, warmups, per_cta, launch in calls:
        config = PLATFORMS[gpu]
        kernel = kernels[k]
        sim = shared.setdefault(gpu, GpuSimulator(config, fast=fast))
        plan = api.cluster(kernel, scheme, gpu=config,
                           active_agents=1 if "TOT" in scheme else None)
        if launch:  # one bare launch: GpuSimulator.run recycles too
            got = sim.run(kernel, plan, seed=seed, record_per_cta=per_cta)
            want = GpuSimulator(config, fast=fast).run(
                kernel, plan, seed=seed, record_per_cta=per_cta)
        else:
            got = simulate(sim, kernel, plan, seed=seed, warmups=warmups,
                           record_per_cta=per_cta)
            want = simulate(GpuSimulator(config, fast=fast), kernel, plan,
                            seed=seed, warmups=warmups,
                            record_per_cta=per_cta)
        assert canonical_metrics(got) == canonical_metrics(want), \
            (gpu, kernel.name, scheme, seed, warmups)
        assert got.cta_records == want.cta_records


#: Cache geometries for the pool property: GTX980x2 shares GTX980's
#: key, the scaled L2 has its own (small enough that HST spills it).
POOL_CONFIGS = {
    "Tesla K40": PLATFORMS["Tesla K40"],
    "GTX980": PLATFORMS["GTX980"],
    "GTX980x2": PLATFORMS["GTX980x2"],
    "Tesla K40 L2/64": PLATFORMS["Tesla K40"].with_scaled_l2(64),
}
#: The co-tenant job: two registry tenants, each in its own L2 slice.
ISOLATED_MIX = TenantMix.of(
    {"workload": "NN", "scheme": "CLU", "scale": 0.05},
    {"workload": "ATX", "scale": 0.05}, policy="cluster-isolated")


@contextmanager
def pool_of(keys: int):
    """Swap in an empty cache-pair pool bounded to ``keys`` keys."""
    saved = simulator_module._POOL
    simulator_module._POOL = simulator_module._CachePairPool(keys)
    try:
        yield
    finally:
        simulator_module._POOL = saved


@SIM_FUZZ
@example(jobs=[("simulate", "Tesla K40 L2/64", 3, "BSL", 0, 1),
               ("simulate", "Tesla K40", 3, "BSL", 0, 1),
               ("simulate", "Tesla K40 L2/64", 3, "CLU", 1, 0),
               ("mix", "GTX980", 0),
               ("simulate", "GTX980x2", 3, "CLU+TOT", 0, 1),
               ("mix", "GTX980x2", 1)], keys=POOL_KEYS)
@given(jobs=st.lists(st.one_of(
    st.tuples(st.just("simulate"), st.sampled_from(sorted(POOL_CONFIGS)),
              st.integers(min_value=0, max_value=3),
              st.sampled_from(SCHEMES),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("mix"), st.sampled_from(("GTX980", "GTX980x2")),
              st.integers(min_value=0, max_value=2))),
    min_size=2, max_size=6),
    keys=st.integers(min_value=1, max_value=POOL_KEYS))
def test_pooled_pairs_cross_simulators(jobs, keys):
    # Three random kernels fit any L2 here; HST's footprint does not,
    # so it tells a scaled L2 from a full one.
    kernels = [random_kernel(random.Random(0x9001 + k), k) for k in range(3)]
    kernels.append(REGISTRY["HST"].kernel(scale=0.05,
                                          config=PLATFORMS["Tesla K40"]))
    with pool_of(keys):
        for job in jobs:
            if job[0] == "mix":
                _, gpu, seed = job
                got = run_mix(ISOLATED_MIX, gpu, seed=seed)
                with pool_of(0):  # keeps nothing: every pair brand-new
                    fresh = run_mix(ISOLATED_MIX, gpu, seed=seed)
                    ref = run_mix(ISOLATED_MIX, gpu, seed=seed, fast=False)
                want = [canonical_metrics(m) for m in fresh.metrics]
                assert [canonical_metrics(m) for m in got.metrics] == want
                assert [canonical_metrics(m) for m in ref.metrics] == want
                assert got.tenants == fresh.tenants, job
                continue
            _, name, k, scheme, seed, warmups = job
            config, kernel = POOL_CONFIGS[name], kernels[k]
            plan = api.cluster(kernel, scheme, gpu=config,
                               active_agents=1 if "TOT" in scheme else None)
            got = simulate(config, kernel, plan, seed=seed, warmups=warmups)
            fresh = simulate(config, kernel, plan, seed=seed,
                             warmups=warmups,
                             caches=GpuSimulator(config).fresh_caches())
            ref_sim = GpuSimulator(config, fast=False)
            ref = simulate(ref_sim, kernel, plan, seed=seed,
                           warmups=warmups, caches=ref_sim.fresh_caches())
            assert canonical_metrics(got) == canonical_metrics(fresh), job
            assert canonical_metrics(ref) == canonical_metrics(fresh), job
