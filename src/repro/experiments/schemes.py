"""The six evaluation configurations of Figures 12/13.

For every (workload, platform) pair this module builds the paper's
bar set:

* ``BSL`` — untouched kernel through the hardware scheduler model.
* ``RD``  — redirection-based clustering (Listing 4).
* ``CLU`` — agent-based clustering, maximum allowable agents.
* ``CLU+TOT`` — agent-based with the optimal active-agent count; by
  default the degree is found with the dynamic throttling vote, or the
  paper's Table-2 value can be requested for strict fidelity.
* ``CLU+TOT+BPS`` — plus streaming-access bypassing.
* ``PFH+TOT`` — order reshaping + successor prefetching (the scheme
  intended for the no-exploitable-locality group).

The partition direction comes from Table 2 (the configuration the
authors ran); workloads without a Table-2 row fall back to the
dependency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import agent_plan
from repro.core.dependence import analyze_direction
from repro.core.indexing import direction
from repro.core.prefetch import prefetch_plan
from repro.core.redirection import redirection_plan
from repro.core.throttling import ThrottleVote, vote_active_agents
from repro.gpu.config import GpuConfig
from repro.gpu.metrics import KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan, baseline_plan
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.base import Workload

#: Figure 12/13 bar order.
SCHEME_ORDER = ("BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT")


def partition_for(workload: Workload, kernel) -> "object":
    """Table-2 partition direction, or dependency analysis fallback."""
    if workload.table2 is not None:
        return direction(workload.table2.partition)
    return analyze_direction(kernel).direction


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
    opt = vote.active_agents
    return {
        "BSL": baseline_plan(),
        "RD": redirection_plan(kernel, config, part),
        "CLU": agent_plan(kernel, config, part, scheme="CLU"),
        "CLU+TOT": agent_plan(kernel, config, part, active_agents=opt,
                              scheme="CLU+TOT"),
        "CLU+TOT+BPS": agent_plan(kernel, config, part, active_agents=opt,
                                  bypass_streams=True, scheme="CLU+TOT+BPS"),
        "PFH+TOT": prefetch_plan(kernel, config, part, active_agents=opt),
    }


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
                    schemes=SCHEME_ORDER,
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
            schemes=None if schemes is SCHEME_ORDER else tuple(schemes)))
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
