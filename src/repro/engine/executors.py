"""Job kinds: how a declarative :class:`SimJob` becomes a result.

Each executor rebuilds the live objects a job names — workload,
platform, kernel, execution plan, simulator — from the registries and
runs the corresponding measurement.  Executors are plain module-level
functions so the runner can ship jobs to ``ProcessPoolExecutor``
workers; everything they return must pickle cleanly (metrics,
dataclass records), never plans or kernels.

The first six kinds cover every experiment driver; the other six
wrap the stable :mod:`repro.api` facade so request/response front ends
(:mod:`repro.service`) can name facade calls declaratively and share
the engine's dedup key, persistent cache and worker offload:

========== ==================================================== =====================
kind       meaning                                              result
========== ==================================================== =====================
schemes    all Figure-12 configurations of one (app, GPU) pair  ``SchemeResults``
measure    one plan on one (app, GPU) pair, with model knobs    ``KernelMetrics``
microbench the Listing-3 latency probe on one GPU               ``MicrobenchResult``
reuse      inter- vs intra-CTA reuse quantification of one app  ``ReuseProfile``
table2     occupancy-model CTAs/SM quadruple of one app         ``tuple[int, ...]``
framework  the Fig.-11 framework's decision for one (app, GPU)  ``DecisionSummary``
simulate   one ``repro.api.simulate`` call, named by strings    ``KernelMetrics``
cluster    one ``repro.api.cluster`` call, named by strings     ``dict`` (plan digest)
tune       one ``repro.tuner`` search of one (app, GPU) pair    ``TuneResult`` record
estimate   closed-form rung-0 estimate of one configuration     ``AnalyticEstimate``
bound      reuse-graph oracle hit ceiling of one configuration  ``BoundReport``
cotenant   one multi-tenant mix measurement (``repro.tenancy``) ``TenancyReport``
========== ==================================================== =====================

The companion ``*_job`` builders are the only places job extras are
spelled out, so drivers and executors cannot drift apart.
"""

from __future__ import annotations

import dataclasses

from repro.core.planner import (PLAN_KINDS, SCHEMES, build_plan,
                                check_label, partition_for)
from repro.engine.job import SimJob
from repro.gpu.config import GpuConfig, platform
from repro.gpu.scheduler import SCHEDULERS
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.base import ARCH_ORDER, Workload

#: kind -> executor registry.
EXECUTORS = {}


def executor(kind: str):
    """Register the executor function for one job kind."""
    def register(fn):
        EXECUTORS[kind] = fn
        return fn
    return register


def execute(job: SimJob):
    """Run one job to completion in this process."""
    try:
        fn = EXECUTORS[job.kind]
    except KeyError:
        raise KeyError(f"unknown job kind {job.kind!r}; "
                       f"known: {sorted(EXECUTORS)}") from None
    return fn(job)


def _abbr(workload) -> str:
    return workload.abbr if isinstance(workload, Workload) else str(workload)


def _gpu_name(gpu) -> str:
    return gpu.name if isinstance(gpu, GpuConfig) else str(gpu)


def _lookup_workload(abbr: str) -> Workload:
    from repro.workloads.registry import workload
    return workload(abbr)


# ----------------------------------------------------------------------
# schemes — the Figure-12/13 unit: one (workload, platform) pair
# ----------------------------------------------------------------------

def schemes_job(workload, gpu, *, scale: float = 1.0, seed: int = 0,
                use_paper_agents: bool = False, warmups: int = 1,
                l2_divisor: int = 1, schemes=None) -> SimJob:
    """All six evaluation configurations of one (workload, GPU) pair."""
    return SimJob.make(
        "schemes", workload=_abbr(workload), gpu=_gpu_name(gpu),
        scale=scale, seed=seed, warmups=warmups,
        use_paper_agents=use_paper_agents, l2_divisor=l2_divisor,
        schemes=schemes)


@executor("schemes")
def _run_schemes(job: SimJob):
    from repro.experiments.schemes import run_all_schemes
    schemes = job.extra("schemes") or SCHEMES
    return run_all_schemes(
        _lookup_workload(job.workload), platform(job.gpu),
        scale=job.scale, seed=job.seed,
        use_paper_agents=bool(job.extra("use_paper_agents", False)),
        warmups=job.warmups,
        l2_divisor=int(job.extra("l2_divisor", 1)),
        schemes=tuple(schemes))


# ----------------------------------------------------------------------
# measure — one plan under explicit model knobs (ablations, studies)
# ----------------------------------------------------------------------

def measure_job(workload, gpu, *, plan: str = "baseline",
                scale: float = 1.0, seed: int = 0, warmups: int = 1,
                scheme: str = None, direction: str = None,
                active_agents: int = None,
                bypass_streams: bool = False, tile: "tuple[int, int]" = None,
                scheduler: str = None, hiding_cap: float = None,
                join_stagger: int = None, l1_size: int = None,
                l1_sectors: int = None, l2_divisor: int = 1,
                placement: str = None) -> SimJob:
    """One measured run of one plan on one (workload, GPU) pair.

    ``plan`` is ``baseline``/``rd``/``clu``/``pfh``; ``scheme`` only
    labels the result and must name a scheme of that plan kind (the
    knobs, not the label, pick the plan).  ``direction`` is a
    partition-direction name (``"Y-P"``/``"X-P"``) or ``None`` for
    ``partition_for``'s pick (Table 2 or the dependency analysis),
    matching what every driver does — the tuner passes it explicitly
    so the direction is a searchable axis.  ``tile`` switches the CLU
    plan to tile-wise indexing, the remaining knobs override the
    platform (L1 size/sectors, scaled L2) and the timing model
    (scheduler policy, ``hiding_cap``, ``join_stagger``).
    ``placement`` names a chiplet placement policy for the CLU plan
    (see :data:`repro.gpu.topology.PLACEMENTS`; a no-op on flat
    platforms).
    """
    if plan not in PLAN_KINDS.values():
        raise ValueError(f"unknown plan kind {plan!r}")
    check_label(scheme, plan)
    return SimJob.make(
        "measure", workload=_abbr(workload), gpu=_gpu_name(gpu),
        scheme=scheme, scale=scale, seed=seed, warmups=warmups,
        plan=plan, direction=direction, active_agents=active_agents,
        bypass_streams=bypass_streams, tile=tile, scheduler=scheduler,
        hiding_cap=hiding_cap, join_stagger=join_stagger, l1_size=l1_size,
        l1_sectors=l1_sectors, l2_divisor=l2_divisor, placement=placement)


def _platform_for(job: SimJob) -> GpuConfig:
    gpu = platform(job.gpu)
    topology = job.extra("topology")
    if topology is not None:
        from repro.api import apply_topology
        gpu = apply_topology(gpu, topology)
    l1_size = job.extra("l1_size")
    if l1_size is not None:
        gpu = gpu.with_l1_size(int(l1_size))
    l1_sectors = job.extra("l1_sectors")
    if l1_sectors is not None:
        gpu = dataclasses.replace(gpu, l1_sectors=int(l1_sectors))
    l2_divisor = int(job.extra("l2_divisor", 1))
    if l2_divisor != 1:
        gpu = gpu.with_scaled_l2(l2_divisor)
    return gpu


def _simulator_for(job: SimJob, gpu: GpuConfig) -> GpuSimulator:
    kwargs = {}
    scheduler = job.extra("scheduler")
    if scheduler is not None:
        kwargs["scheduler"] = SCHEDULERS[scheduler]
    hiding_cap = job.extra("hiding_cap")
    if hiding_cap is not None:
        kwargs["hiding_cap"] = float(hiding_cap)
    join_stagger = job.extra("join_stagger")
    if join_stagger is not None:
        kwargs["join_stagger"] = int(join_stagger)
    return GpuSimulator(gpu, **kwargs)


def measure_plan(job: SimJob) -> tuple:
    """The ``(platform, kernel, plan)`` a ``measure`` job runs.

    Also the plan an ``estimate`` job in plan form prices, and the
    plan :meth:`repro.tuner.SearchSpace.plan` hands back for a point,
    so an estimate or a tune's winner is always the plan its
    simulation ran.
    """
    workload = _lookup_workload(job.workload)
    gpu = _platform_for(job)
    kernel = workload.kernel(scale=job.scale, config=gpu)
    name = job.extra("direction")
    active_agents = job.extra("active_agents")
    plan = build_plan(
        kernel, gpu, job.extra("plan", "baseline"),
        direction=(name if name is not None
                   else partition_for(workload, kernel)),
        active_agents=(int(active_agents) if active_agents is not None
                       else None),
        bypass=bool(job.extra("bypass_streams", False)),
        tile=job.extra("tile"), placement=job.extra("placement"),
        label=job.scheme)
    return gpu, kernel, plan


@executor("measure")
def _run_measure(job: SimJob):
    gpu, kernel, plan = measure_plan(job)
    sim = _simulator_for(job, gpu)
    return simulate(sim, kernel, plan, seed=job.seed,
                    warmups=job.warmups)


# ----------------------------------------------------------------------
# microbench — the Listing-3 latency probe (Figure 2, scheduler study)
# ----------------------------------------------------------------------

def microbench_job(gpu, *, staggered: bool = False, scheduler: str = None,
                   seed: int = 0) -> SimJob:
    """One probe run; ``scheduler`` of ``None`` keeps the observed model."""
    return SimJob.make("microbench", gpu=_gpu_name(gpu), seed=seed,
                       warmups=0, staggered=staggered, scheduler=scheduler)


@executor("microbench")
def _run_microbench(job: SimJob):
    from repro.kernels.microbench import run_microbench
    scheduler = job.extra("scheduler")
    return run_microbench(
        platform(job.gpu), staggered=bool(job.extra("staggered", False)),
        scheduler=SCHEDULERS[scheduler] if scheduler is not None else None,
        seed=job.seed)


# ----------------------------------------------------------------------
# reuse — the Figure-3 quantification (cache/scheduler independent)
# ----------------------------------------------------------------------

def reuse_job(workload, *, scale: float = 0.5, max_ctas: int = 250) -> SimJob:
    """Inter- vs intra-CTA reuse attribution for one application."""
    return SimJob.make("reuse", workload=_abbr(workload), scale=scale,
                       warmups=0, max_ctas=max_ctas)


@executor("reuse")
def _run_reuse(job: SimJob):
    from repro.analysis.reuse import quantify_reuse
    kernel = _lookup_workload(job.workload).kernel(scale=job.scale)
    return quantify_reuse(kernel, max_ctas=int(job.extra("max_ctas", 250)))


# ----------------------------------------------------------------------
# table2 — the occupancy model's CTAs/SM quadruple
# ----------------------------------------------------------------------

def table2_job(workload) -> SimJob:
    """Model CTAs/SM for one application across the four architectures."""
    return SimJob.make("table2", workload=_abbr(workload), warmups=0)


@executor("table2")
def _run_table2(job: SimJob):
    from repro.gpu.config import BY_ARCHITECTURE
    from repro.gpu.occupancy import max_ctas_per_sm
    workload = _lookup_workload(job.workload)
    model = []
    for arch in ARCH_ORDER:
        gpu = BY_ARCHITECTURE[arch]
        kernel = workload.kernel(config=gpu)
        model.append(max_ctas_per_sm(gpu, kernel))
    return tuple(model)


# ----------------------------------------------------------------------
# framework — the Figure-11 end-to-end decision
# ----------------------------------------------------------------------

def framework_job(workload, gpu, *, scale: float = 0.6,
                  seed: int = 0) -> SimJob:
    """Let the automatic framework optimize one (workload, GPU) pair."""
    return SimJob.make("framework", workload=_abbr(workload),
                       gpu=_gpu_name(gpu), scale=scale, seed=seed,
                       warmups=0)


@executor("framework")
def _run_framework(job: SimJob):
    from repro.core.framework import optimize
    workload = _lookup_workload(job.workload)
    gpu = platform(job.gpu)
    kernel = workload.kernel(scale=job.scale, config=gpu)
    decision = optimize(kernel, gpu,
                        probe_kernel=workload.probe_kernel(gpu),
                        seed=job.seed)
    return decision.summarize()


# ----------------------------------------------------------------------
# simulate / cluster — the repro.api facade as declarative jobs
# ----------------------------------------------------------------------

def simulate_job(workload, gpu, *, scheme: str = None, scale: float = 1.0,
                 seed: int = 0, warmups: int = 1,
                 topology: str = None, placement: str = None) -> SimJob:
    """One :func:`repro.api.simulate` call, named entirely by strings.

    The executor *is* the facade call, so a result served from this
    job — directly, from the persistent cache, or through
    :mod:`repro.service` — is bit-identical to calling
    ``repro.api.simulate`` with the same arguments in-process.

    ``topology`` names a preset from
    :data:`repro.gpu.topology.TOPOLOGIES` (or gives a chiplet count);
    ``placement`` a policy from
    :data:`repro.gpu.topology.PLACEMENTS`.  Both participate in the
    job's content hash — a chiplet measurement can never alias a
    flat-die cache entry.
    """
    return SimJob.make("simulate", workload=_abbr(workload),
                       gpu=_gpu_name(gpu), scheme=scheme, scale=scale,
                       seed=seed, warmups=warmups, topology=topology,
                       placement=placement)


@executor("simulate")
def _run_simulate(job: SimJob):
    from repro.api import simulate as api_simulate
    return api_simulate(job.workload, job.gpu, scheme=job.scheme,
                        scale=job.scale, seed=job.seed,
                        warmups=job.warmups,
                        topology=job.extra("topology"),
                        placement=job.extra("placement"))


def cluster_job(workload, gpu, *, scheme: str = "CLU",
                direction: str = None, active_agents: int = None,
                seed: int = 0, topology: str = None,
                placement: str = None) -> SimJob:
    """One :func:`repro.api.cluster` call; the result is the plan's
    JSON-stable digest (:meth:`~repro.gpu.plan.ExecutionPlan.describe`),
    since live plans hold callables and never cross process
    boundaries.  ``direction`` is a name (``"X-P"``/``"Y-P"``) or
    ``None`` for the dependence analysis's choice.
    """
    return SimJob.make("cluster", workload=_abbr(workload),
                       gpu=_gpu_name(gpu), scheme=scheme, seed=seed,
                       warmups=0, direction=direction,
                       active_agents=active_agents, topology=topology,
                       placement=placement)


# ----------------------------------------------------------------------
# tune — one repro.tuner search, named entirely by strings
# ----------------------------------------------------------------------

def tune_job(workload, gpu, *, objective: str = "cycles",
             strategy: str = "hillclimb", budget: int = 24,
             scale: float = 1.0, seed: int = 0,
             warmups: int = 1) -> SimJob:
    """One :func:`repro.tuner.tune` search as a declarative job.

    The result is the plan-free :class:`~repro.tuner.core.TuneResult`
    record — leaderboards cache and serve like any other result, and
    a cached tune is bit-identical to recomputing it (the tuner is
    seed-deterministic).  The executor runs the search on a *serial*
    in-process engine: the job itself may already be executing on a
    pool worker, and candidate evaluations still share the persistent
    result cache either way.
    """
    return SimJob.make("tune", workload=_abbr(workload), gpu=_gpu_name(gpu),
                       scale=scale, seed=seed, warmups=warmups,
                       objective=objective, strategy=strategy, budget=budget)


@executor("tune")
def _run_tune(job: SimJob):
    from repro.tuner import tune
    result = tune(job.workload, job.gpu,
                  objective=str(job.extra("objective", "cycles")),
                  strategy=str(job.extra("strategy", "hillclimb")),
                  budget=int(job.extra("budget", 24)),
                  scale=job.scale, seed=job.seed, warmups=job.warmups)
    return result.record()


# ----------------------------------------------------------------------
# estimate — the closed-form analytic model (fidelity rung 0)
# ----------------------------------------------------------------------

def estimate_job(workload, gpu, *, scheme: str = None, plan: str = None,
                 scale: float = 1.0, seed: int = 0, warmups: int = 1,
                 direction: str = None, active_agents: int = None,
                 bypass_streams: bool = False,
                 tile: "tuple[int, int]" = None, l2_divisor: int = 1,
                 topology: str = None, placement: str = None) -> SimJob:
    """One rung-0 analytic estimate of one clustering configuration.

    Two spellings, matching the two callers: ``scheme`` names a
    Figure-12 label exactly like :func:`simulate_job` (the facade and
    the service use this), while ``plan`` + knobs name the
    configuration the way ``measure`` jobs do (the tuner uses this so
    an estimate's plan is rebuilt by the very same code as its
    full-fidelity counterpart).  Passing both is rejected.

    The result is an :class:`~repro.gpu.analytic.AnalyticEstimate` —
    hit rates and a calibrated cycle estimate from reuse-distance and
    footprint math, with no simulation behind it.
    """
    if scheme is not None and plan is not None:
        raise ValueError("estimate_job takes scheme= or plan=, not both")
    if plan is not None and plan not in PLAN_KINDS.values():
        raise ValueError(f"unknown plan kind {plan!r}")
    return SimJob.make(
        "estimate", workload=_abbr(workload), gpu=_gpu_name(gpu),
        scheme=scheme, scale=scale, seed=seed, warmups=warmups,
        plan=plan, direction=direction, active_agents=active_agents,
        bypass_streams=bypass_streams, tile=tile, l2_divisor=l2_divisor,
        topology=topology, placement=placement)


@executor("estimate")
def _run_estimate(job: SimJob):
    from repro.api import cluster as api_cluster
    from repro.gpu.analytic import estimate as analytic_estimate
    if job.extra("plan") is not None:
        gpu, kernel, plan = measure_plan(job)
    else:
        gpu = _platform_for(job)
        kernel = _lookup_workload(job.workload).kernel(scale=job.scale,
                                                       config=gpu)
        plan = None if job.scheme is None else api_cluster(
            kernel, job.scheme, gpu=gpu, seed=job.seed,
            placement=job.extra("placement"))
    return analytic_estimate(gpu, kernel, plan, seed=job.seed,
                             warmups=job.warmups)


# ----------------------------------------------------------------------
# bound — the reuse-graph oracle ceiling (no simulation behind it)
# ----------------------------------------------------------------------

def bound_job(workload, gpu, *, scale: float = 1.0, l2_divisor: int = 1,
              topology: str = None) -> SimJob:
    """The reuse-graph cache-hit ceiling of one (workload, GPU) pair.

    The result is a :class:`~repro.analysis.bound.BoundReport` — the
    theoretical L1/L2 hit-rate ceilings no demand-caching schedule can
    exceed, computed from the compiled access streams alone.  Seed,
    warmups, scheme and scheduler never enter: the bound is
    schedule-free by construction, so the job omits them and every
    (workload, platform, scale) triple hashes to one cache entry.
    """
    return SimJob.make("bound", workload=_abbr(workload),
                       gpu=_gpu_name(gpu), scale=scale, warmups=0,
                       l2_divisor=l2_divisor, topology=topology)


@executor("bound")
def _run_bound(job: SimJob):
    from repro.analysis.bound import cache_hit_bound
    workload = _lookup_workload(job.workload)
    gpu = _platform_for(job)
    kernel = workload.kernel(scale=job.scale, config=gpu)
    return cache_hit_bound(gpu, kernel)


# ----------------------------------------------------------------------
# cotenant — one multi-tenant mix through repro.tenancy
# ----------------------------------------------------------------------

def cotenant_job(tenants, gpu, *, policy: str = "shared", seed: int = 0,
                 warmups: int = 1) -> SimJob:
    """One co-tenant measurement of a tenant mix on one platform.

    ``tenants`` is a sequence of tenant descriptors — abbreviations,
    mappings or :class:`~repro.tenancy.TenantSpec` instances — which
    are normalized to their descriptor dicts before hashing, so a mix
    built from specs and the same mix built from JSON alias the same
    cache entry.  The result is a
    :class:`~repro.tenancy.TenancyReport` (per-tenant co-run metrics,
    solo baselines, interference deltas and the oracle column).
    """
    from repro.tenancy import TenantMix
    mix = TenantMix.of(*tenants, policy=policy)
    return SimJob.make("cotenant", gpu=_gpu_name(gpu), seed=seed,
                       warmups=warmups, policy=mix.policy,
                       tenants=[t.descriptor() for t in mix.tenants])


@executor("cotenant")
def _run_cotenant(job: SimJob):
    from repro.tenancy import TenantMix, run_mix
    tenants = [dict(pairs) for pairs in job.extra("tenants")]
    mix = TenantMix.of(*tenants, policy=str(job.extra("policy", "shared")))
    return run_mix(mix, platform(job.gpu), seed=job.seed,
                   warmups=job.warmups)


@executor("cluster")
def _run_cluster(job: SimJob):
    from repro.api import cluster as api_cluster
    from repro.core.indexing import direction as lookup_direction
    name = job.extra("direction")
    part = lookup_direction(name) if name is not None else None
    active_agents = job.extra("active_agents")
    if active_agents is not None:
        active_agents = int(active_agents)
    gpu = platform(job.gpu)
    topology = job.extra("topology")
    if topology is not None:
        from repro.api import apply_topology
        gpu = apply_topology(gpu, topology)
    plan = api_cluster(job.workload, job.scheme, gpu=gpu,
                       direction=part, active_agents=active_agents,
                       seed=job.seed, placement=job.extra("placement"))
    return plan.describe()
