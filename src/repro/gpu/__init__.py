"""GPU simulator substrate: platforms, caches, scheduler, timing."""

from repro.gpu.config import (
    Architecture,
    BY_ARCHITECTURE,
    CHIPLET_PLATFORMS,
    EVALUATION_PLATFORMS,
    GTX570,
    GTX750TI,
    GTX980,
    GTX980X2,
    GTX980X4,
    GTX1080,
    GTX1080X2,
    GTX1080X4,
    GpuConfig,
    PLATFORMS,
    TESLA_K40,
    platform,
)
from repro.gpu.topology import (
    ChipletTopology,
    PLACEMENTS,
    TOPOLOGIES,
    chiplet_variant,
    place_tasks,
    resolve_placement,
)
from repro.gpu.analytic import (
    AnalyticEstimate,
    estimate as analytic_estimate,
    fit_power_law,
    load_calibration,
    reload_calibration,
)
from repro.gpu.metrics import KernelMetrics, geometric_mean
from repro.gpu.occupancy import max_ctas_per_sm, occupancy_report
from repro.gpu.plan import ExecutionPlan, baseline_plan
from repro.gpu.scheduler import (
    ObservedScheduler,
    RandomizedScheduler,
    RoundRobinScheduler,
    SCHEDULERS,
)
from repro.gpu.simulator import GpuSimulator, simulate

__all__ = [
    "Architecture", "BY_ARCHITECTURE", "CHIPLET_PLATFORMS",
    "EVALUATION_PLATFORMS", "GTX570", "GTX750TI", "GTX980", "GTX980X2",
    "GTX980X4", "GTX1080", "GTX1080X2", "GTX1080X4", "GpuConfig",
    "PLATFORMS", "TESLA_K40", "platform",
    "ChipletTopology", "PLACEMENTS", "TOPOLOGIES", "chiplet_variant",
    "place_tasks", "resolve_placement",
    "AnalyticEstimate", "analytic_estimate", "fit_power_law",
    "load_calibration", "reload_calibration",
    "KernelMetrics", "geometric_mean", "max_ctas_per_sm",
    "occupancy_report", "ExecutionPlan", "baseline_plan", "ObservedScheduler",
    "RandomizedScheduler", "RoundRobinScheduler", "SCHEDULERS", "GpuSimulator",
    "simulate",
]
