"""Differential fuzzing: a batch of jobs in one process vs each alone.

A sweep runs a whole batch of jobs — same kernel and platform,
different plans/seeds/knobs — back to back in one process.  The only
state the fast core keeps between jobs is its chunk-schedule memo
(:data:`repro.gpu.fastpath._SCHEDULES`), which replaced the deleted
batched backend's pooled arena.  The batch's contract is unchanged:
*bit-identity* with ``len(items)`` independent runs, here each on an
empty memo, so no job can replay a schedule drawn for another job's
knobs.

Case counts scale with ``REPRO_FUZZ_CASES`` like the other
differential harnesses.
"""

from __future__ import annotations

import os
import random

from repro import api
from repro.gpu import fastpath
from repro.gpu.metrics import canonical_metrics, metrics_fingerprint
from repro.gpu.scheduler import SCHEDULERS
from repro.gpu.simulator import GpuSimulator

from tests.differential.test_simulator_differential import (
    random_config,
    random_kernel,
)

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "80"))

#: Each case simulates a whole batch twice; scale down accordingly.
BATCH_CASES = max(8, CASES // 10)

SCHEDULER_NAMES = sorted(SCHEDULERS)


def random_item(rng, kernel, config) -> dict:
    """One randomly drawn batch member (plan + per-job knobs)."""
    scheme = rng.choice(["BSL", "BSL", "RD", "CLU", "CLU", "CLU+TOT+BPS"])
    plan = None
    if scheme != "BSL":
        # Pin active_agents for the throttled scheme so plan building
        # stays cheap; the voting path is covered by the simulator
        # differential suite.
        kwargs = {"active_agents": rng.randrange(1, 4)} \
            if scheme == "CLU+TOT+BPS" else {}
        plan = api.cluster(kernel, scheme, gpu=config, **kwargs)
    return dict(
        plan=plan,
        seed=rng.randrange(0, 1 << 16),
        warmups=rng.randrange(0, 3),
        record_per_cta=rng.random() < 0.3,
        scheduler=SCHEDULERS[rng.choice(SCHEDULER_NAMES)],
        hiding_cap=rng.choice([14.0, 14.0, 8.0]),
        l1_enabled=rng.random() > 0.15,
        join_stagger=rng.choice([6, 6, 3]))


def run_item(kernel, config, item):
    sim = GpuSimulator(config, scheduler=item["scheduler"], fast=True,
                       l1_enabled=item["l1_enabled"],
                       hiding_cap=item["hiding_cap"],
                       join_stagger=item["join_stagger"])
    return api.simulate(kernel, sim, plan=item["plan"], seed=item["seed"],
                        warmups=item["warmups"],
                        record_per_cta=item["record_per_cta"])


def test_batched_backend_fuzz():
    """Random batch compositions, zero divergence allowed."""
    saved = dict(fastpath._SCHEDULES)
    try:
        for case in range(BATCH_CASES):
            rng = random.Random(0xBA7C + case)
            kernel = random_kernel(rng, case)
            config = random_config(rng)
            items = [random_item(rng, kernel, config)
                     for _ in range(rng.randrange(2, 7))]
            alone = []
            for item in items:
                fastpath._SCHEDULES.clear()
                alone.append(run_item(kernel, config, item))
            fastpath._SCHEDULES.clear()
            batched = [run_item(kernel, config, item) for item in items]
            for i, (ref, got) in enumerate(zip(alone, batched)):
                assert canonical_metrics(ref) == canonical_metrics(got), \
                    f"case {case} item {i}: {kernel.name} on {config.name}"
                assert metrics_fingerprint(ref) == metrics_fingerprint(got)
    finally:
        fastpath._SCHEDULES.clear()
        fastpath._SCHEDULES.update(saved)
