"""The six evaluation configurations of Figures 12/13.

For every (workload, platform) pair this module measures the bar set
of :data:`repro.core.planner.SCHEMES`.  The throttled schemes' degree
comes from the dynamic throttling vote by default, or from the paper's
Table-2 value for strict fidelity.  The partition direction comes from
Table 2 (the configuration the authors ran); workloads without a
Table-2 row fall back to the dependency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import SCHEMES, build_plan, partition_for
from repro.core.throttling import ThrottleVote, vote_active_agents
from repro.gpu.config import GpuConfig
from repro.gpu.metrics import KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.base import Workload


def throttle_vote(workload: Workload, kernel, config: GpuConfig,
                  simulator: GpuSimulator = None,
                  use_paper_value: bool = False) -> ThrottleVote:
    """The CLU+TOT throttling decision for one workload/platform pair.

    The dynamic vote by default; with ``use_paper_value`` (and a
    Table-2 row) the paper's degree, as a vote that measured nothing.
    """
    max_agents = max_ctas_per_sm(config, kernel)
    if use_paper_value and workload.table2 is not None:
        paper = workload.table2.opt_agents_for(config.architecture)
        return ThrottleVote(active_agents=min(max_agents, paper),
                            max_agents=max_agents, cycles_by_candidate={})
    sim = simulator if simulator is not None else GpuSimulator(config)
    return vote_active_agents(sim, kernel, partition_for(workload, kernel))


def build_scheme_plans(workload: Workload, kernel, config: GpuConfig,
                       vote: ThrottleVote) -> "dict[str, ExecutionPlan]":
    """All six Figure-12 configurations for one workload/platform pair;
    the throttled schemes use ``vote``'s degree."""
    part = partition_for(workload, kernel)
    return {scheme: build_plan(kernel, config, scheme, direction=part,
                               active_agents=vote.active_agents)
            for scheme in SCHEMES}


@dataclass
class SchemeResults:
    """Metrics of all six configurations for one workload/platform."""

    workload: str
    gpu: str
    metrics: "dict[str, KernelMetrics]"

    @property
    def baseline(self) -> KernelMetrics:
        return self.metrics["BSL"]

    def speedup(self, scheme: str) -> float:
        return self.baseline.cycles / self.metrics[scheme].cycles

    def l2_normalized(self, scheme: str) -> float:
        return self.metrics[scheme].l2_transactions_vs(self.baseline)

    def occupancy_delta(self, scheme: str) -> float:
        return (self.metrics[scheme].achieved_occupancy
                - self.baseline.achieved_occupancy)


def run_all_schemes(workload: Workload, config: GpuConfig,
                    scale: float = 1.0, seed: int = 0,
                    use_paper_agents: bool = False,
                    warmups: int = 1,
                    l2_divisor: int = 1,
                    schemes=SCHEMES,
                    runner=None) -> SchemeResults:
    """Simulate the requested configurations for one workload/platform.

    Each configuration is measured after ``warmups`` warm-up launches
    with preserved cache contents, matching the paper's
    average-of-multiple-runs methodology.  ``l2_divisor`` optionally
    shrinks the L2 (see ``GpuConfig.with_scaled_l2``); the default
    keeps Table 1's real L2, which the ablation study varies.

    With a ``runner``, the pair is submitted as one engine job — it
    can then be satisfied by the persistent result cache or execute on
    a worker process alongside other pairs.  Without one, it computes
    inline (this is also the path the engine's executor takes).
    """
    from repro.gpu.config import PLATFORMS
    if runner is not None and PLATFORMS.get(config.name) == config:
        # Only registered Table-1 platforms round-trip through the
        # declarative job (workers rebuild the config by name); ad-hoc
        # configs fall through to the inline path.
        from repro.engine import schemes_job
        return runner.run_one(schemes_job(
            workload, config, scale=scale, seed=seed,
            use_paper_agents=use_paper_agents, warmups=warmups,
            l2_divisor=l2_divisor,
            schemes=None if schemes is SCHEMES else tuple(schemes)))
    kernel = workload.kernel(scale=scale, config=config)
    run_config = config.with_scaled_l2(l2_divisor)
    sim = GpuSimulator(run_config)
    vote = throttle_vote(workload, kernel, run_config, sim,
                         use_paper_value=use_paper_agents)
    plans = build_scheme_plans(workload, kernel, run_config, vote)
    metrics = {}
    for scheme in schemes:
        # The vote already ran CLU (its maximum degree) and CLU+TOT (its
        # pick) on this simulator; reuse a run whose plan, seed and
        # warmups match instead of repeating it bit for bit.
        metrics[scheme] = (vote.measured(plans[scheme], seed, warmups)
                           or simulate(sim, kernel, plans[scheme],
                                       seed=seed, warmups=warmups))
    return SchemeResults(workload=workload.abbr, gpu=config.name,
                         metrics=metrics)
