"""repro — Locality-Aware CTA Clustering for Modern GPUs (ASPLOS 2017).

A full reproduction of Li et al.'s CTA-Clustering: the software-only
technique that remaps which GPU thread block (CTA) runs on which SM so
that blocks with inter-CTA data reuse share an L1 cache — plus the
trace-driven GPU simulator substrate it is evaluated on, the 40
workload models, the locality analysis tools and one experiment driver
per table/figure of the paper.

Quickstart (the stable facade — see :mod:`repro.api`)::

    from repro import GTX980, Y_PARTITION, cluster, simulate, workload

    kernel = workload("NN").kernel(config=GTX980)
    baseline = simulate(kernel, GTX980)
    clustered = simulate(kernel, GTX980,
                         plan=cluster(kernel, "CLU", gpu=GTX980,
                                      direction=Y_PARTITION))
    print(baseline.cycles / clustered.cycles)

The layers underneath:

* ``repro.api`` — the stable entry points: ``simulate``, ``cluster``,
  ``sweep``, ``tune``, ``estimate``, ``bound``, ``cotenant``
  (everything here is re-exported at top level).
  ``simulate``/``sweep``/``tune`` accept ``fidelity=`` naming a rung
  of the measurement ladder (:mod:`repro.fidelity`): ``"analytic"`` /
  ``"reduced"`` / ``"full"``.
* ``repro.gpu`` — platforms (Table 1), caches, GigaThread scheduler
  models, the cycle-approximate simulator.
* ``repro.core`` — the contribution: partitioning/inverting/binding,
  redirection- and agent-based clustering, throttling, bypassing,
  prefetching, the classifier and the Fig.-11 framework.
* ``repro.engine`` — declarative simulation jobs and the parallel,
  cached sweep runner.
* ``repro.tuner`` — budget-aware, seed-deterministic search over
  clustering configurations (``grid``/``hillclimb``/``halving``).
* ``repro.tenancy`` — the multi-tenant interference lab: concurrent
  kernels sharing SMs and the L2, with per-tenant accounting and the
  reuse-graph oracle bound as the report's ceiling column.
* ``repro.obs`` — observability: simulator tracers, phase timers,
  ``--profile`` artifacts and Chrome trace export.
* ``repro.workloads`` / ``repro.analysis`` / ``repro.experiments`` —
  the evaluation: application models, reuse quantification and the
  per-table/figure drivers.
"""

from repro.api import (SCHEMES, AnalyticEstimate, bound, cluster, cotenant,
                       estimate, simulate, sweep, tune)
from repro.analysis.bound import BoundReport
from repro.tenancy import (POLICIES, TenancyReport, TenantMix, TenantResult,
                           TenantSpec)
from repro.fidelity import (ANALYTIC, FIDELITIES, FULL, REDUCED, Fidelity,
                            resolve_fidelity)
from repro.core import (
    CtaPartitioner,
    OptimizationDecision,
    TileWiseIndexing,
    X_PARTITION,
    Y_PARTITION,
    agent_plan,
    analyze_direction,
    classify,
    direction,
    generate_from_decision,
    inspector_plan,
    optimize,
    prefetch_plan,
    redirection_plan,
    vote_active_agents,
)
from repro.core.inspector import (
    affinity_order,
    conserved_affinity,
    inspect_kernel,
)
from repro.core.throttling import throttle_candidates
from repro.experiments.report import format_table
from repro.gpu import (
    CHIPLET_PLATFORMS,
    ChipletTopology,
    EVALUATION_PLATFORMS,
    GTX570,
    GTX750TI,
    GTX980,
    GTX980X2,
    GTX980X4,
    GTX1080,
    GTX1080X2,
    GTX1080X4,
    GpuSimulator,
    KernelMetrics,
    PLACEMENTS,
    TESLA_K40,
    TOPOLOGIES,
    baseline_plan,
    chiplet_variant,
    max_ctas_per_sm,
    platform,
)
from repro.kernels import (
    AddressSpace,
    ArrayRef,
    Dim3,
    KernelSpec,
    LocalityCategory,
    read,
    write,
)
from repro.obs import ProfileSession, RecordingTracer, Tracer
from repro.workloads.registry import (
    all_workloads,
    by_category,
    figure3_workloads,
    table2_workloads,
    workload,
)

__version__ = "2.0.0"


def version_line() -> str:
    """The one-line version banner both CLIs print for ``--version``:
    package release plus the engine schema version that salts the
    persistent result cache."""
    from repro.engine.job import ENGINE_VERSION
    return f"repro {__version__} (engine schema {ENGINE_VERSION})"

__all__ = [
    "SCHEMES", "bound", "cluster", "cotenant", "estimate", "simulate",
    "sweep", "tune",
    "BoundReport", "POLICIES", "TenancyReport", "TenantMix",
    "TenantResult", "TenantSpec",
    "ANALYTIC", "AnalyticEstimate", "FIDELITIES", "FULL", "Fidelity",
    "REDUCED", "resolve_fidelity",
    "CtaPartitioner", "OptimizationDecision", "TileWiseIndexing",
    "X_PARTITION", "Y_PARTITION", "agent_plan", "analyze_direction",
    "classify", "direction", "generate_from_decision", "inspector_plan",
    "optimize", "prefetch_plan", "redirection_plan", "vote_active_agents",
    "affinity_order", "conserved_affinity", "inspect_kernel",
    "throttle_candidates", "format_table",
    "CHIPLET_PLATFORMS", "ChipletTopology", "EVALUATION_PLATFORMS",
    "GTX570", "GTX750TI", "GTX980", "GTX980X2", "GTX980X4", "GTX1080",
    "GTX1080X2", "GTX1080X4", "GpuSimulator", "KernelMetrics", "PLACEMENTS",
    "TESLA_K40", "TOPOLOGIES", "baseline_plan", "chiplet_variant",
    "max_ctas_per_sm", "platform",
    "AddressSpace", "ArrayRef", "Dim3", "KernelSpec", "LocalityCategory",
    "read", "write",
    "ProfileSession", "RecordingTracer", "Tracer",
    "all_workloads", "by_category", "figure3_workloads", "table2_workloads",
    "workload", "__version__", "version_line",
]
