"""CTA throttling (paper §4.3-I): choosing ACTIVE_AGENTS.

Throttling limits the concurrent agents per SM to reduce contention
for caches and bandwidth.  The paper decides the throttling degree at
runtime with a dynamic CTA voting scheme (similar to [12]): try
candidate degrees, keep the fastest.  :func:`vote_active_agents`
implements that vote against the simulator; callers can shrink the
kernel first (a "reduced problem size" probe) to keep the vote cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.agent import agent_plan
from repro.core.indexing import PartitionDirection, Y_PARTITION
from repro.gpu.config import GpuConfig
from repro.gpu.metrics import KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan
from repro.gpu.simulator import simulate
from repro.kernels.kernel import KernelSpec


def throttle_candidates(max_agents: int) -> "list[int]":
    """Candidate ACTIVE_AGENTS values: powers of two plus the maximum."""
    if max_agents < 1:
        raise ValueError("max_agents must be >= 1")
    candidates = []
    step = 1
    while step < max_agents:
        candidates.append(step)
        step *= 2
    candidates.append(max_agents)
    return candidates


def _plan_digest(plan: ExecutionPlan) -> dict:
    """``plan.describe()`` without its ``scheme`` label: two plans
    with equal digests built for one kernel and platform dispatch
    identically, whatever they are called."""
    digest = plan.describe()
    del digest["scheme"]
    return digest


@dataclass(frozen=True)
class ThrottleVote:
    """Outcome of the dynamic voting scheme.

    Besides each candidate's cycles, the vote keeps the full metrics
    and plan digest of every candidate run and the ``seed``/``warmups``
    they ran with, so a caller measuring one of those plans again can
    take the vote's run instead (:meth:`measured`).
    """

    active_agents: int
    max_agents: int
    cycles_by_candidate: "dict[int, float]"
    metrics_by_candidate: "dict[int, KernelMetrics]" = field(
        default_factory=dict)
    digest_by_candidate: "dict[int, dict]" = field(default_factory=dict)
    seed: int = 0
    warmups: int = 1

    @property
    def throttled(self) -> bool:
        return self.active_agents < self.max_agents

    def measured(self, plan: ExecutionPlan, seed: int,
                 warmups: int) -> "KernelMetrics | None":
        """The vote's metrics for ``plan``, relabelled with its scheme.

        ``None`` unless a candidate ran a plan with the same digest
        under the same ``seed`` and ``warmups`` (the caller vouches
        for kernel and simulator: pass the vote's own).
        """
        if (seed, warmups) != (self.seed, self.warmups):
            return None
        digest = _plan_digest(plan)
        for degree, candidate in self.digest_by_candidate.items():
            if candidate == digest:
                return replace(self.metrics_by_candidate[degree],
                               scheme=plan.scheme)
        return None


def vote_active_agents(simulator, kernel: KernelSpec,
                       partition_direction: PartitionDirection = Y_PARTITION,
                       bypass_streams: bool = False,
                       candidates=None, seed: int = 0) -> ThrottleVote:
    """Pick the ACTIVE_AGENTS degree that minimizes simulated cycles.

    ``simulator`` is a :class:`~repro.gpu.simulator.GpuSimulator`;
    its config determines MAX_AGENTS.  Each candidate is measured with
    :func:`~repro.gpu.simulator.simulate` at scheduler ``seed`` and one
    warm-up.  Ties go to the larger degree (throttle only when it
    actually helps, §5.2-(4)).
    """
    config: GpuConfig = simulator.config
    max_agents = max_ctas_per_sm(config, kernel)
    if candidates is None:
        candidates = throttle_candidates(max_agents)
    warmups = 1
    metrics, digests = {}, {}
    for degree in candidates:
        if not 1 <= degree <= max_agents:
            raise ValueError(f"candidate {degree} outside [1, {max_agents}]")
        plan = agent_plan(kernel, config, partition_direction,
                          active_agents=degree, bypass_streams=bypass_streams)
        metrics[degree] = simulate(simulator, kernel, plan, seed=seed,
                                   warmups=warmups)
        digests[degree] = _plan_digest(plan)
    cycles = {degree: m.cycles for degree, m in metrics.items()}
    best = min(sorted(cycles, reverse=True), key=cycles.get)
    return ThrottleVote(active_agents=best, max_agents=max_agents,
                        cycles_by_candidate=cycles,
                        metrics_by_candidate=metrics,
                        digest_by_candidate=digests,
                        seed=seed, warmups=warmups)
