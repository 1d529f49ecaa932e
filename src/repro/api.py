"""repro.api — the stable public facade.

Three keyword-only entry points cover the package's whole workflow;
everything they accept or return is re-exported from :mod:`repro`
itself, so user code (and every script in ``examples/``) never imports
an internal module:

* :func:`simulate` — measure one kernel (or registry workload) on one
  platform, optionally transformed by a scheme or an explicit plan,
  optionally observed by a :class:`~repro.obs.Tracer`;
* :func:`cluster` — build the execution plan for one of the paper's
  named schemes (``BSL``/``RD``/``CLU``/``CLU+TOT``/``CLU+TOT+BPS``/
  ``PFH+TOT``) without running anything;
* :func:`sweep` — run a declarative job batch through a
  :class:`~repro.engine.SweepRunner` (parallelism, caching,
  memoization and profiling all live on the runner);
* :func:`tune` — search the clustering configuration space of one
  (workload, platform) pair with a budgeted, seed-deterministic
  strategy and return the best plan plus a ranked leaderboard
  (:mod:`repro.tuner`);
* :func:`estimate` — the closed-form analytic locality model
  (:mod:`repro.gpu.analytic`): hit rates and a calibrated cycle
  estimate with no simulation behind them, orders of magnitude
  cheaper — fidelity **rung 0**;
* :func:`bound` — the reuse-graph oracle ceiling
  (:mod:`repro.analysis.bound`): the cache-hit rate no demand-caching
  schedule can exceed, from the compiled access streams alone;
* :func:`cotenant` — measure a multi-tenant mix
  (:mod:`repro.tenancy`): several kernels sharing SMs and the L2,
  with per-tenant interference metrics and the oracle column.

Measurement *fidelity* is a first-class axis (:mod:`repro.fidelity`):
``simulate``/``sweep``/``tune`` accept a keyword-only ``fidelity=``
naming a rung — ``"analytic"`` (rung 0, the closed-form model),
``"reduced"`` (rung 1, half-scale simulation) or ``"full"`` (rung 2,
the default).

The served counterpart (:mod:`repro.service`) exposes the same
operations over HTTP/JSON; its stdlib client is re-exported here —
:func:`connect` / :class:`ServiceClient` — so remote callers also
never import an internal module.

Stability contract: these signatures only grow new keyword arguments;
positional meaning and return types are fixed.  Internal modules may
reorganize freely underneath.
"""

from __future__ import annotations

import dataclasses

from repro.core.dependence import analyze_direction
from repro.core.planner import SCHEME_TABLE, SCHEMES, build_plan
from repro.core.throttling import vote_active_agents
from repro.fidelity import FIDELITIES, FULL, Fidelity, resolve_fidelity
from repro.gpu.analytic import AnalyticEstimate
from repro.gpu.config import GpuConfig, PLATFORMS
from repro.gpu.metrics import KernelMetrics
from repro.gpu.plan import ExecutionPlan
from repro.gpu.simulator import GpuSimulator
from repro.gpu.simulator import simulate as _simulate_kernel
from repro.kernels.kernel import KernelSpec
from repro.gpu.topology import (ChipletTopology, TOPOLOGIES, chiplet_variant,
                                resolve_placement)
from repro.service.client import ServiceClient, ServiceError, connect
from repro.workloads.base import Workload
from repro.workloads.registry import workload as _lookup_workload

__all__ = ["AnalyticEstimate", "FIDELITIES", "Fidelity", "SCHEMES",
           "ServiceClient", "ServiceError", "apply_topology", "bound",
           "cluster", "connect", "cotenant", "estimate", "resolve_fidelity",
           "simulate", "sweep", "tune"]


def apply_topology(config: GpuConfig, topology) -> GpuConfig:
    """Derive the chiplet variant of a platform, or return it as-is.

    ``topology`` may be ``None`` (no change), a preset name from
    :data:`repro.gpu.topology.TOPOLOGIES` (``"single-die"`` /
    ``"2-chiplet"`` / ``"4-chiplet"``), a chiplet count, or a
    :class:`~repro.gpu.topology.ChipletTopology`.  Trivial topologies
    return ``config`` itself — the same object, the same name — so a
    1-chiplet request is provably the flat die.
    """
    if topology is None:
        return config
    if isinstance(topology, str):
        try:
            topology = TOPOLOGIES[topology]
        except KeyError:
            raise KeyError(f"unknown topology {topology!r}; "
                           f"known: {sorted(TOPOLOGIES)}") from None
        if topology is None:
            return config
    if isinstance(topology, bool):
        raise TypeError("topology must be a name, count or "
                        "ChipletTopology, not a bool")
    if isinstance(topology, int):
        return chiplet_variant(config, topology)
    if isinstance(topology, ChipletTopology):
        if topology.is_trivial:
            return config
        return chiplet_variant(config, topology.chiplets,
                               hop_latency=topology.hop_latency,
                               hop_service=topology.hop_service,
                               page_size=topology.page_size,
                               block_pages=topology.block_pages)
    raise TypeError(f"topology must be a preset name, chiplet count or "
                    f"ChipletTopology, got {type(topology).__name__}")


def _resolve_config(gpu) -> "tuple[GpuSimulator | None, GpuConfig]":
    """Accept a GpuConfig, a platform name, or a prepared simulator."""
    if isinstance(gpu, GpuSimulator):
        return gpu, gpu.config
    if isinstance(gpu, GpuConfig):
        return None, gpu
    if isinstance(gpu, str):
        try:
            return None, PLATFORMS[gpu]
        except KeyError:
            raise KeyError(f"unknown platform {gpu!r}; "
                           f"known: {sorted(PLATFORMS)}") from None
    raise TypeError(f"gpu must be a GpuConfig, platform name or "
                    f"GpuSimulator, got {type(gpu).__name__}")


def _resolve_kernel(workload, config: GpuConfig,
                    scale: float) -> "tuple[KernelSpec, Workload | None]":
    """Accept a KernelSpec, a Workload, or a registry abbreviation."""
    if isinstance(workload, KernelSpec):
        return workload, None
    if isinstance(workload, Workload):
        return workload.kernel(scale=scale, config=config), workload
    if isinstance(workload, str):
        found = _lookup_workload(workload)
        return found.kernel(scale=scale, config=config), found
    raise TypeError(f"workload must be a KernelSpec, Workload or registry "
                    f"abbreviation, got {type(workload).__name__}")


def cluster(kernel, scheme: str = "CLU", *, gpu,
            direction=None, active_agents: int = None,
            seed: int = 0, placement: str = None) -> ExecutionPlan:
    """Build the execution plan for one of the paper's named schemes.

    ``kernel`` is a :class:`~repro.kernels.KernelSpec` (or a registry
    workload/abbreviation, instantiated at scale 1.0); ``gpu`` a
    platform config, name or simulator.  ``direction`` is the
    partition direction (e.g. ``repro.X_PARTITION``); when omitted it
    comes from the dependency analysis, exactly as the automatic
    framework would choose.  For the throttled schemes,
    ``active_agents`` overrides the dynamic throttling vote (which
    simulates candidate degrees and therefore costs a few runs);
    ``seed`` is the scheduler seed the vote's runs use.
    ``placement`` names a chiplet placement policy
    (:data:`repro.gpu.topology.PLACEMENTS`) applied to the CLU-family
    binding on a multi-chiplet platform — a no-op on flat dies and for
    ``BSL``/``RD``.
    """
    _check_scheme(scheme, placement)
    simulator, config = _resolve_config(gpu)
    kernel, _ = _resolve_kernel(kernel, config, scale=1.0)
    plan, _vote = _plan_scheme(kernel, scheme, simulator, config,
                               direction=direction,
                               active_agents=active_agents,
                               placement=placement, seed=seed)
    return plan


def _check_scheme(scheme: str, placement: "str | None") -> None:
    """Fail early on an unknown scheme or placement-policy name."""
    if scheme not in SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}; known: {SCHEMES}")
    resolve_placement(placement)


def _plan_scheme(kernel: KernelSpec, scheme: str, simulator, config, *,
                 direction=None, active_agents: int = None,
                 placement: str = None, seed: int = 0):
    """:func:`cluster`'s planner, for a resolved kernel and platform.

    A throttling vote runs on ``simulator`` (a fresh one on ``config``
    if ``None``) at scheduler ``seed``.  Returns ``(plan, vote)``,
    where ``vote`` is the :class:`~repro.core.throttling.ThrottleVote`,
    or ``None`` when no vote ran.
    """
    entry = SCHEME_TABLE[scheme]
    if direction is None and entry.kind != "baseline":
        direction = analyze_direction(kernel).direction
    vote = None
    if entry.throttled and active_agents is None:
        if simulator is None:
            simulator = GpuSimulator(config)
        vote = vote_active_agents(simulator, kernel, direction, seed=seed)
        active_agents = vote.active_agents
    return build_plan(kernel, config, scheme, direction=direction,
                      active_agents=active_agents,
                      placement=placement), vote


def simulate(workload, gpu, *, scheme: str = None, plan: ExecutionPlan = None,
             scale: float = 1.0, seed: int = 0, warmups: int = 1,
             record_per_cta: bool = False, tracer=None,
             fast: bool = None, fidelity=None, topology=None,
             placement: str = None) -> KernelMetrics:
    """Measure one workload (or kernel) on one platform.

    ``workload`` is a registry abbreviation (``"NN"``), a
    :class:`~repro.workloads.base.Workload`, or a raw
    :class:`~repro.kernels.KernelSpec`; ``gpu`` a platform config,
    name, or a :class:`~repro.GpuSimulator` whose custom knobs should
    be kept.  Exactly one of ``scheme`` (a name from
    :data:`SCHEMES`, planned via :func:`cluster`) and ``plan`` (an
    explicit :class:`~repro.gpu.plan.ExecutionPlan`) may be given;
    with neither, the kernel runs untransformed (``BSL``).

    Runs ``warmups`` warm-up launches with preserved cache contents,
    then measures — the paper's methodology.  ``tracer`` (a
    :class:`repro.Tracer`) observes the measured launch only and never
    changes the returned metrics.  A throttled scheme's vote already
    measures its candidate plans; when the planned one is among them
    (same seed, warm-ups and core, no tracer, no per-CTA records) that
    run is returned instead of a second, identical one.

    ``fast`` selects the simulation core (default: the fast flat-array
    path; ``REPRO_FAST_MODEL=0`` flips the process default).  Fast and
    reference cores are bit-identical, so the flag never changes a
    result — only wall-clock time.

    ``fidelity`` names the measurement rung: ``"full"`` (default)
    simulates at the requested scale, ``"reduced"`` at half of it, and
    ``"analytic"`` delegates to :func:`estimate` — returning an
    :class:`~repro.gpu.analytic.AnalyticEstimate` (which shares the
    canonical metric fields with :class:`~repro.gpu.metrics.KernelMetrics`)
    and ignoring the simulation-only knobs (``record_per_cta``,
    ``tracer``, ``fast``).

    ``topology`` derives a chiplet variant of the platform before
    anything runs (see :func:`apply_topology`); ``placement`` names
    the chiplet binding policy the planned scheme uses.  Combining
    ``topology`` with a prepared :class:`~repro.GpuSimulator` is
    rejected — the simulator was already built for its own config.
    """
    if scheme is not None and plan is not None:
        raise ValueError("pass either scheme= or plan=, not both")
    if placement is not None and plan is not None:
        raise ValueError("placement= applies to a planned scheme; "
                         "pass it to cluster() when building a plan")
    rung = resolve_fidelity(fidelity, default=FULL)
    if not rung.simulated:
        return estimate(workload, gpu, scheme=scheme, plan=plan, scale=scale,
                        seed=seed, warmups=warmups, topology=topology,
                        placement=placement)
    scale = rung.scale_of(scale)
    simulator, config = _resolve_config(gpu)
    if topology is not None:
        if simulator is not None:
            raise ValueError("topology= cannot rewrite a prepared "
                             "GpuSimulator; pass a config or name")
        config = apply_topology(config, topology)
    kernel, _ = _resolve_kernel(workload, config, scale=scale)
    if plan is None and scheme is not None and scheme != "BSL":
        _check_scheme(scheme, placement)
        voter = simulator if simulator is not None else GpuSimulator(config)
        plan, vote = _plan_scheme(kernel, scheme, voter, config,
                                  placement=placement)
        # The vote already ran each candidate plan; take that run when
        # it is this plan, seed and warm-up count on this core, with
        # nothing to trace or record per CTA.
        if (vote is not None and tracer is None and voter.tracer is None
                and not record_per_cta
                and (fast is None or bool(fast) == voter.fast)):
            measured = vote.measured(plan, seed, warmups)
            if measured is not None:
                return measured
    return _simulate_kernel(simulator if simulator is not None else config,
                            kernel, plan, seed=seed, warmups=warmups,
                            record_per_cta=record_per_cta, tracer=tracer,
                            fast=fast)


def estimate(workload, gpu, *, scheme: str = None, plan: ExecutionPlan = None,
             scale: float = 1.0, seed: int = 0, warmups: int = 1,
             calibrated: bool = True, topology=None,
             placement: str = None) -> AnalyticEstimate:
    """Analytically estimate one configuration — fidelity rung 0.

    Same workload/platform/scheme/plan spellings as :func:`simulate`,
    but the answer comes from the closed-form locality model of
    :mod:`repro.gpu.analytic` — reuse-distance histograms and
    inter-CTA footprint overlap over the cluster map — with **no
    simulation behind it**: orders of magnitude cheaper per decision.
    Trust its *rankings* (which scheme wins); quote absolute cycle
    counts only from :func:`simulate`.  ``calibrated`` applies the
    per-architecture power-law calibration (monotone, so it never
    changes a ranking); pass ``False`` for the raw model cost.
    """
    if scheme is not None and plan is not None:
        raise ValueError("pass either scheme= or plan=, not both")
    if placement is not None and plan is not None:
        raise ValueError("placement= applies to a planned scheme; "
                         "pass it to cluster() when building a plan")
    simulator, config = _resolve_config(gpu)
    if topology is not None:
        if simulator is not None:
            raise ValueError("topology= cannot rewrite a prepared "
                             "GpuSimulator; pass a config or name")
        config = apply_topology(config, topology)
        simulator = None
    kernel, _ = _resolve_kernel(workload, config, scale=scale)
    if plan is None and scheme is not None and scheme != "BSL":
        plan = cluster(kernel, scheme, gpu=simulator or config, seed=seed,
                       placement=placement)
    from repro.gpu.analytic import estimate as _estimate_kernel
    return _estimate_kernel(config, kernel, plan, seed=seed, warmups=warmups,
                            calibrated=calibrated)


def bound(workload, gpu, *, scale: float = 1.0, topology=None):
    """The reuse-graph oracle cache-hit ceiling — no simulation at all.

    Same workload/platform spellings as :func:`simulate`; the answer
    is a :class:`~repro.analysis.bound.BoundReport` whose
    ``bound_hit_rate`` / ``bound_l2_hit_rate`` cap what *any*
    demand-caching schedule — any scheme, CTA order, warm state or
    co-tenant interference — can achieve on this (workload, platform)
    pair.  The bound is schedule-free, so there is no seed, warmup or
    scheme axis: one call answers every configuration at once, which
    is what makes it an oracle column for results tables and a pruning
    signal for the tuner.
    """
    simulator, config = _resolve_config(gpu)
    if topology is not None:
        if simulator is not None:
            raise ValueError("topology= cannot rewrite a prepared "
                             "GpuSimulator; pass a config or name")
        config = apply_topology(config, topology)
    kernel, _ = _resolve_kernel(workload, config, scale=scale)
    from repro.analysis.bound import cache_hit_bound
    return cache_hit_bound(config, kernel)


def cotenant(tenants, gpu, *, policy: str = "shared", seed: int = 0,
             warmups: int = 1, fast: bool = None):
    """Measure a multi-tenant mix — several kernels sharing one GPU.

    ``tenants`` is a prepared :class:`~repro.tenancy.TenantMix` (whose
    own policy then applies) or a sequence of tenant descriptors —
    registry abbreviations, mappings with ``workload``/``scheme``/
    ``scale``/``seed``/``active_agents``/``bypass`` keys, or
    :class:`~repro.tenancy.TenantSpec` instances — combined under
    ``policy`` (``"shared"`` / ``"sm-split"`` / ``"cluster-isolated"``).
    Returns a :class:`~repro.tenancy.TenancyReport` with per-tenant
    co-run metrics, solo baselines, slowdown/hit-delta interference
    numbers, the unfairness index and the oracle bound column.  A
    one-tenant mix is bit-identical to :func:`simulate` of the same
    configuration.
    """
    from repro.tenancy import TenantMix, run_mix
    if isinstance(tenants, TenantMix):
        mix = tenants
    else:
        mix = TenantMix.of(*tenants, policy=policy)
    _, config = _resolve_config(gpu)
    return run_mix(mix, config, seed=seed, warmups=warmups, fast=fast)


def _job_at_fidelity(job, rung: Fidelity):
    """One declarative job, re-expressed at a measurement rung."""
    if rung.simulated:
        if rung.scale_multiplier == 1.0:
            return job
        return dataclasses.replace(job, scale=job.scale
                                   * rung.scale_multiplier)
    if job.kind == "estimate":
        return job
    from repro.engine.executors import estimate_job
    if job.kind == "simulate":
        return estimate_job(job.workload, job.gpu, scheme=job.scheme,
                            scale=job.scale, seed=job.seed,
                            warmups=job.warmups,
                            topology=job.extra("topology"),
                            placement=job.extra("placement"))
    if job.kind == "measure":
        tile = job.extra("tile")
        return estimate_job(
            job.workload, job.gpu, plan=job.extra("plan", "baseline"),
            scale=job.scale, seed=job.seed, warmups=job.warmups,
            direction=job.extra("direction"),
            active_agents=job.extra("active_agents"),
            bypass_streams=bool(job.extra("bypass_streams", False)),
            tile=tuple(tile) if tile is not None else None,
            placement=job.extra("placement"))
    raise ValueError(f"job kind {job.kind!r} has no analytic (rung 0) "
                     f"counterpart; only simulate/measure/estimate jobs "
                     f"can run at fidelity 'analytic'")


def sweep(jobs, *, runner=None, fidelity=None) -> list:
    """Run a declarative job batch; results come in submission order.

    ``jobs`` is an iterable of :class:`~repro.engine.SimJob` (from the
    builders ``repro.engine`` exports: ``schemes_job``,
    ``measure_job``, ...).  ``runner`` configures parallelism, the
    persistent cache, memoization, progress lines and profiling; the
    default is serial, cache-less, and bit-identical to any parallel
    runner fed the same batch.

    ``fidelity`` re-expresses every job at a named rung before
    running: ``"reduced"`` halves each job's scale, ``"analytic"``
    swaps ``simulate``/``measure`` jobs for their closed-form
    ``estimate`` counterparts (other kinds have no rung-0 form and are
    rejected).  The default leaves the batch untouched.
    """
    rung = resolve_fidelity(fidelity, default=FULL)
    if rung is not FULL:
        jobs = [_job_at_fidelity(job, rung) for job in jobs]
    if runner is None:
        from repro.engine import SweepRunner
        runner = SweepRunner()
    return runner.run(jobs)


def tune(workload, gpu, *, objective: str = "cycles",
         strategy: str = "hillclimb", budget: int = None,
         scale: float = 1.0, seed: int = 0, warmups: int = 1,
         fidelity=None, runner=None, progress: bool = False, profile=None,
         topology=None, placement: str = None):
    """Search clustering configurations for one (workload, GPU) pair.

    ``workload`` is a registry abbreviation, ``gpu`` a platform name
    or config.  ``strategy`` is ``"grid"``/``"hillclimb"``/
    ``"halving"`` and ``objective`` is ``"cycles"`` (the paper's
    metric), ``"l2_transactions"`` or ``"dram_transactions"`` — lower
    is always better.  ``budget`` bounds candidate evaluations (the
    analytic rung is free; ``halving`` triages the whole space on it
    before spending any simulation budget).  ``fidelity`` names the
    rung the baseline and leaderboard are evaluated at (``"full"`` by
    default — the only rung whose numbers carry the regression-free
    guarantee; ``"analytic"`` gives a simulation-free exploratory
    ranking of the whole space).

    Returns a :class:`~repro.tuner.TuneResult`: the winning
    :class:`~repro.gpu.plan.ExecutionPlan` (``best_plan``), the ranked
    full-fidelity ``leaderboard``, and the framework's rule-based pick
    as ``baseline``.  The warm start guarantees
    ``best.score <= baseline.score`` — tuning never regresses the
    Fig.-11 rules.  Results are bit-deterministic for a fixed
    (seed, budget) and candidate evaluations persist in the engine's
    result cache, so a repeat tune re-simulates nothing.

    ``topology`` swaps in the platform's chiplet variant (the variant
    must be a registered platform — the tuner names its jobs with
    platform strings); ``placement`` pins the chiplet placement axis
    to one policy instead of searching it.
    """
    from repro.tuner import DEFAULT_BUDGET, tune as _tune
    _, config = _resolve_config(gpu)
    if topology is not None:
        config = apply_topology(config, topology)
        if config.name not in PLATFORMS:
            raise KeyError(
                f"topology variant {config.name!r} is not a registered "
                f"platform; tune() needs a name the engine can resolve "
                f"(known: {sorted(PLATFORMS)})")
    return _tune(_abbr_of(workload), config.name, objective=objective,
                 strategy=strategy,
                 budget=DEFAULT_BUDGET if budget is None else budget,
                 scale=scale, seed=seed, warmups=warmups, fidelity=fidelity,
                 runner=runner, progress=progress, profile=profile,
                 placement=placement)


def _abbr_of(workload) -> str:
    if isinstance(workload, Workload):
        return workload.abbr
    if isinstance(workload, str):
        return _lookup_workload(workload).abbr
    raise TypeError(f"workload must be a Workload or registry "
                    f"abbreviation, got {type(workload).__name__}")
