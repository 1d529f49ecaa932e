"""End-to-end differential fuzzing: fast simulation core vs oracle.

Random kernels (grids, block sizes, trace shapes, stream tags,
scattered and single-lane accesses), random platforms (including
shrunk-cache variants that force constant eviction), random schemes,
schedulers, seeds, warm-up counts, hiding caps and join staggers are
simulated twice — once on the :mod:`repro.gpu.fastpath` core and once
on the :mod:`repro.gpu.refmodel` oracle — and the resulting
:class:`~repro.gpu.metrics.KernelMetrics` must be *bit-identical*,
established via :func:`repro.gpu.metrics.canonical_metrics` (floats
compared through ``repr``).

Only :mod:`random` is used; the harness stays dependency-free.  Case
counts scale with ``REPRO_FUZZ_CASES`` (see the cache-level fuzzer).
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from repro import api
from repro.gpu import fastpath
from repro.gpu.config import KB, PLATFORMS
from repro.gpu.metrics import canonical_metrics, metrics_fingerprint
from repro.gpu.scheduler import SCHEDULERS
from repro.gpu.simulator import GpuSimulator
from repro.kernels.access import read, write
from repro.kernels.kernel import (AddressSpace, ArrayRef, Dim3, KernelSpec,
                                  LocalityCategory)
from repro.workloads.registry import workload

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "80"))

#: End-to-end runs cost far more than cache op streams; scale down.
SIM_CASES = max(12, CASES // 2)

PLATFORM_NAMES = sorted(PLATFORMS)


def random_config(rng):
    """A real platform, sometimes with caches shrunk to force churn."""
    base = PLATFORMS[rng.choice(PLATFORM_NAMES)]
    roll = rng.random()
    if roll < 0.40:
        return base
    if roll < 0.70:
        # Tiny L2: every working set spills, exercising the
        # pseudo-random replacement and write-back paths hard.
        return replace(base, l2_size=32 * KB)
    # Tiny L1 *and* L2: constant eviction at both levels.
    return replace(base, l1_size=max(base.l1_line * 16, base.l1_size // 8),
                   l2_size=64 * KB)


def random_kernel(rng, case):
    """A deterministic synthetic kernel with randomly drawn shape.

    All randomness is consumed *before* the trace closure is built, so
    the trace is a pure function of the CTA index — a requirement for
    both simulation cores (traces are memoized per CTA).
    """
    two_d = rng.random() < 0.4
    if two_d:
        grid_x, grid_y = rng.randrange(2, 8), rng.randrange(2, 7)
    else:
        grid_x, grid_y = rng.randrange(4, 48), 1
    n_ctas = grid_x * grid_y
    warps = rng.choice([1, 2, 4])

    space = AddressSpace()
    table_rows = rng.randrange(2, 10)
    table = space.alloc("table", table_rows, 32)
    data = space.alloc("data", n_ctas * 2, 32)
    scatter = space.alloc("scatter", max(64, n_ctas), 32)

    reps = rng.randrange(1, 4)
    stream_tag = rng.random() < 0.5
    do_write = rng.random() < 0.6
    scatter_stride = rng.choice([4, 64, 136, 260])
    scatter_lanes = rng.choice([1, 8, 32])
    n_scatter = scatter.rows

    def trace(bx, by, bz):
        u = by * grid_x + bx
        accesses = []
        for r in range(reps):
            accesses.append(read(data.addr((u * 2 + r) % (n_ctas * 2), 0),
                                 4, 32, 4, stream=stream_tag))
        for r in range(table_rows):
            accesses.append(read(table.addr(r, 0), 4, 32, 4))
        accesses.append(read(scatter.addr(u % n_scatter, 0),
                             scatter_stride, scatter_lanes, 4))
        accesses.append(read(table.addr(u % table_rows, 0), 4, 1, 4))
        if do_write:
            accesses.append(write(data.addr(u % (n_ctas * 2), 0),
                                  4, 32, 4, stream=stream_tag))
        return accesses

    if two_d:
        refs = (
            ArrayRef("table", (("by",), ("j",)), weight=2.0),
            ArrayRef("data", (("by",), ("bx", "tx"))),
            ArrayRef("out", (("by",), ("bx", "tx")), is_write=True),
        )
    else:
        refs = (
            ArrayRef("data", (("bx", "tx"),)),
            ArrayRef("table", (("j",),), weight=2.0),
            ArrayRef("out", (("bx", "tx"),), is_write=True),
        )
    return KernelSpec(
        name=f"fuzz-{case}", grid=Dim3(grid_x, grid_y),
        block=Dim3(32 * warps), trace=trace, regs_per_thread=16,
        category=LocalityCategory.ALGORITHM, array_refs=refs)


def assert_bit_identical(kernel, config, *, scheme=None, plan=None,
                         scheduler=None, seed=0, warmups=1,
                         record_per_cta=False, l1_enabled=True,
                         hiding_cap=14.0, join_stagger=6, label=""):
    """Simulate on both cores and require bit-identical metrics."""
    sims = [GpuSimulator(config, scheduler=scheduler, fast=fast,
                         l1_enabled=l1_enabled, hiding_cap=hiding_cap,
                         join_stagger=join_stagger)
            for fast in (False, True)]
    got = [api.simulate(kernel, sim, scheme=scheme, plan=plan, seed=seed,
                        warmups=warmups, record_per_cta=record_per_cta)
           for sim in sims]
    ref, fast = (canonical_metrics(m) for m in got)
    assert ref == fast, f"divergence: {label}"
    assert metrics_fingerprint(got[0]) == metrics_fingerprint(got[1]), label


def test_simulator_differential_fuzz():
    """The main fuzz loop: random everything, zero divergence allowed."""
    for case in range(SIM_CASES):
        rng = random.Random(0xFA57 + case)
        kernel = random_kernel(rng, case)
        config = random_config(rng)
        scheme = rng.choice(["BSL", "BSL", "RD", "RD", "CLU", "CLU",
                             "CLU+TOT+BPS"])
        scheduler = SCHEDULERS[rng.choice(sorted(SCHEDULERS))]
        plan = None
        if scheme in ("CLU+TOT", "CLU+TOT+BPS", "PFH+TOT"):
            # Pin active_agents so plan construction itself stays cheap;
            # the voting path gets its own dedicated test below.
            plan = api.cluster(kernel, scheme, gpu=config,
                               active_agents=rng.randrange(1, 4))
            scheme = None
        assert_bit_identical(
            kernel, config, scheme=scheme, plan=plan, scheduler=scheduler,
            seed=rng.randrange(0, 1 << 16), warmups=rng.randrange(0, 3),
            record_per_cta=rng.random() < 0.3,
            l1_enabled=rng.random() > 0.15,
            hiding_cap=rng.choice([14.0, 14.0, 8.0]),
            join_stagger=rng.choice([6, 6, 3]),
            label=f"case {case}: {kernel.name} on {config.name} "
                  f"scheme={scheme or (plan and plan.scheme)}")


def test_schedule_memo_keys_on_join_stagger():
    """The fast core memoizes each wave's chunk schedule by trace
    lengths, interleave chunk *and* join stagger.  Alternating the
    stagger in one process must never replay the other stagger's
    schedule: every run still matches the reference core."""
    config = PLATFORMS["Tesla K40"]
    kernel = workload("NN").kernel(scale=0.2, config=config)
    for stagger in (6, 3, 6):
        assert_bit_identical(kernel, config, scheme="CLU", seed=5,
                             join_stagger=stagger,
                             label=f"join_stagger={stagger}")


def test_schedule_memo_is_bounded():
    """The memo is cleared wholesale when full, so a long-lived
    process holds at most ``_SCHEDULES_CAP`` schedules."""
    saved = dict(fastpath._SCHEDULES)
    try:
        fastpath._SCHEDULES.clear()
        fastpath._SCHEDULES.update(
            {((i,), 2, 6): [] for i in range(fastpath._SCHEDULES_CAP)})
        config = PLATFORMS["Tesla K40"]
        kernel = workload("BS").kernel(scale=0.1, config=config)
        api.simulate(kernel, config, warmups=0)
        assert 0 < len(fastpath._SCHEDULES) < fastpath._SCHEDULES_CAP
    finally:
        fastpath._SCHEDULES.clear()
        fastpath._SCHEDULES.update(saved)


@pytest.mark.parametrize("scheme", ["CLU+TOT", "PFH+TOT"])
def test_throttled_schemes_vote_identically(scheme):
    """Scheme planning that *itself* simulates (the throttling vote)
    must reach the same plan and metrics on either core."""
    rng = random.Random(0x707E + len(scheme))
    kernel = random_kernel(rng, 9000)
    config = PLATFORMS["Tesla K40"]
    assert_bit_identical(kernel, config, scheme=scheme, seed=11, warmups=1,
                         label=f"vote path, scheme={scheme}")


def test_registry_workloads_differential():
    """A slice of the paper's real workload registry, both cores."""
    for abbrev, gpu_name, scheme in [("NN", "Tesla K40", "CLU"),
                                     ("ATX", "GTX980", "RD"),
                                     ("BS", "GTX1080", "BSL")]:
        metrics = []
        for fast in (False, True):
            metrics.append(api.simulate(abbrev, gpu_name, scheme=scheme,
                                        scale=0.1, seed=3, fast=fast))
        assert canonical_metrics(metrics[0]) == canonical_metrics(metrics[1]), \
            f"{abbrev}/{gpu_name}/{scheme}"
