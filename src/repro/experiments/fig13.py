"""Figure 13 — L2 transactions (normalized) and L1 hit rates.

The cache-side view of the same sweep as Figure 12.  The paper's
headline numbers: clustering cuts L2 transactions for the algorithm
group by 55/65/29/28% on Fermi/Kepler/Maxwell/Pascal, and for the
cache-line group by 81/71/34% on Fermi/Kepler/Maxwell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import SCHEMES
from repro.experiments.driver import RunContext, register
from repro.experiments.evaluation import (
    EvaluationSweep, GROUP_ORDER, assemble_evaluation, evaluation_jobs,
    run_evaluation)
from repro.experiments.report import format_table
from repro.gpu.config import EVALUATION_PLATFORMS
from repro.workloads.registry import by_category

#: Paper-reported L2-transaction reductions (1 - normalized), for the
#: EXPERIMENTS.md paper-vs-measured index.
PAPER_L2_REDUCTION_ALGORITHM = {
    "Fermi": 0.55, "Kepler": 0.65, "Maxwell": 0.29, "Pascal": 0.28,
}
PAPER_L2_REDUCTION_CACHELINE = {
    "Fermi": 0.81, "Kepler": 0.71, "Maxwell": 0.34,
}


@dataclass
class Fig13Result:
    sweep: EvaluationSweep

    def best_l2_reduction(self, gpu, group: str) -> float:
        """Group geomean reduction for the best clustered scheme."""
        best = min(
            self.sweep.group_geomean_l2(gpu, group, scheme)
            for scheme in ("CLU", "CLU+TOT", "CLU+TOT+BPS"))
        return 1.0 - best

    def render(self) -> str:
        parts = []
        schemes = [s for s in SCHEMES if s != "BSL"]
        for gpu in self.sweep.platforms:
            for group in GROUP_ORDER:
                rows = []
                for wl in by_category(group):
                    result = self.sweep.result(gpu, wl.abbr)
                    rows.append(
                        [wl.abbr]
                        + [result.l2_normalized(s) for s in schemes]
                        + [f"{result.baseline.l1_hit_rate:.2f}",
                           f"{result.metrics['CLU+TOT'].l1_hit_rate:.2f}"])
                rows.append(
                    ["G-M"]
                    + [self.sweep.group_geomean_l2(gpu, group, s)
                       for s in schemes]
                    + ["-", "-"])
                parts.append(format_table(
                    ["App"] + list(schemes) + ["HT_RTE(BSL)", "HT_RTE(TOT)"],
                    rows,
                    title=f"Figure 13 [{gpu.architecture.value} / {group}] "
                          f"L2 transactions normalized to BSL"))
                parts.append("")
        return "\n".join(parts)


@register
class Fig13Driver:
    """Cache-side view of the same matrix fig12 plans (same job keys)."""

    name = "fig13"

    def jobs(self, ctx: RunContext) -> list:
        return evaluation_jobs(ctx.platforms, scale=ctx.scale,
                               seed=ctx.seed,
                               use_paper_agents=ctx.use_paper_agents)

    def render(self, ctx: RunContext, results) -> "Fig13Result":
        return Fig13Result(sweep=assemble_evaluation(
            results, ctx.platforms, scale=ctx.scale))


def run_fig13(platforms=EVALUATION_PLATFORMS, scale: float = 1.0,
              sweep: EvaluationSweep = None) -> Fig13Result:
    """Reproduce Figure 13 (optionally reusing a finished sweep)."""
    if sweep is None:
        sweep = run_evaluation(platforms=platforms, scale=scale)
    return Fig13Result(sweep=sweep)


if __name__ == "__main__":
    print(run_fig13().render())
