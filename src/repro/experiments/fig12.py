"""Figure 12 — normalized speedup and achieved occupancy.

For every architecture row and application group the paper plots six
bars per application (BSL, RD, CLU, CLU+TOT, CLU+TOT+BPS, PFH+TOT)
plus the achieved-occupancy line; the annotations call out the
per-scheme geometric means (e.g. Fermi algorithm: RD 1.21x, CLU 1.28x,
CLU+TOT 1.46x).  This driver renders the same rows and geomeans from
the simulation sweep.
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

#: The paper's headline geometric-mean speedups for the algorithm
#: group (Fermi, Kepler, Maxwell, Pascal), used by EXPERIMENTS.md for
#: the paper-vs-measured comparison.
PAPER_ALGORITHM_GEOMEANS = {
    "Fermi": 1.46, "Kepler": 1.48, "Maxwell": 1.45, "Pascal": 1.41,
}
PAPER_CACHELINE_GEOMEANS = {"Fermi": 1.47, "Kepler": 1.29}


@dataclass
class Fig12Result:
    sweep: EvaluationSweep

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
                        + [result.speedup(s) for s in schemes]
                        + [f"{result.metrics['CLU+TOT'].achieved_occupancy:.2f}"])
                rows.append(
                    ["G-M"]
                    + [self.sweep.group_geomean_speedup(gpu, group, s)
                       for s in schemes]
                    + ["-"])
                parts.append(format_table(
                    ["App"] + list(schemes) + ["AC_OCP(TOT)"], rows,
                    title=f"Figure 12 [{gpu.architecture.value} / {group}] "
                          f"speedup over BSL"))
                parts.append("")
        return "\n".join(parts)


@register
class Fig12Driver:
    """Speedup/occupancy view of the shared evaluation matrix.

    Plans the identical job list as fig13, so a memoizing runner
    charges the matrix once however many of the two views run.
    """

    name = "fig12"

    def jobs(self, ctx: RunContext) -> list:
        return evaluation_jobs(ctx.platforms, scale=ctx.scale,
                               seed=ctx.seed,
                               use_paper_agents=ctx.use_paper_agents)

    def render(self, ctx: RunContext, results) -> "Fig12Result":
        return Fig12Result(sweep=assemble_evaluation(
            results, ctx.platforms, scale=ctx.scale))


def run_fig12(platforms=EVALUATION_PLATFORMS, scale: float = 1.0,
              sweep: EvaluationSweep = None) -> Fig12Result:
    """Reproduce Figure 12 (optionally reusing a finished sweep)."""
    if sweep is None:
        sweep = run_evaluation(platforms=platforms, scale=scale)
    return Fig12Result(sweep=sweep)


if __name__ == "__main__":
    print(run_fig12().render())
