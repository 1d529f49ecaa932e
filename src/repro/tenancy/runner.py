"""Co-tenant dispatch: multiple kernels sharing one simulated GPU.

The runner executes every tenant of a :class:`~repro.tenancy.TenantMix`
concurrently on one :class:`~repro.gpu.simulator.GpuSimulator`.  It is
the third wave source of the simulator's one SM event loop
(:meth:`~repro.gpu.simulator.GpuSimulator.run_waves`): each SM visit
picks the next wave round-robin among the tenants that own the SM and
still have CTAs — so the waves of different kernels interleave
through the shared L1s and L2 in approximately global time order,
which is exactly the inter-kernel contention CIAO (PAPERS.md) studies.

Tenant isolation of the *address space* comes from tagging: tenant
``t``'s kernel is a trace-wrapped variant whose every access is offset
by ``t * TENANT_STRIDE``, so distinct tenants occupy disjoint tag
ranges in the very same cache arrays (reference dicts and fastpath
flat tags alike) and per-tenant hits/misses are exact, not sampled.

Per-tenant *accounting* needs no per-line bookkeeping beyond that:
every wave belongs to exactly one tenant, so snapshotting the five
:class:`~repro.gpu.refmodel.CacheStats` counters around each wave and
crediting the delta to the wave's tenant attributes every access
(including interference misses caused by other tenants' evictions) to
the kernel that issued it.

Solo equivalence
----------------
A one-tenant mix is *delegated* to :func:`repro.api.simulate` with the
identically-built plan, so it is bit-identical to the single-kernel
simulator on both cores by construction; the tenant source only runs
for two or more tenants.  It differs from the solo sources on purpose
(DESIGN.md, "One SM event loop, three wave sources"): no tail quota,
since with several grids in flight the tail of one kernel overlaps the
body of the next; lazy agent binding; and no prefetch.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

from repro.analysis.bound import BoundReport, cache_hit_bound
from repro.gpu.cache import make_l2
from repro.gpu.config import PLATFORMS, GpuConfig
from repro.gpu.metrics import KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.simulator import GpuSimulator
from repro.kernels.kernel import KernelSpec
from repro.tenancy.spec import TenantMix
from repro.workloads.registry import workload as _lookup_workload

#: Byte offset between consecutive tenants' address spaces.  Far above
#: any kernel footprint, and a power of two, so the shift is aligned
#: to every cache-line size and never changes intra-tenant line
#: structure — it only moves the tenant into its own tag range.
TENANT_STRIDE = 1 << 40


def _resolve_gpu(gpu) -> GpuConfig:
    if isinstance(gpu, GpuConfig):
        return gpu
    if isinstance(gpu, str):
        try:
            return PLATFORMS[gpu]
        except KeyError:
            raise KeyError(f"unknown platform {gpu!r}; "
                           f"known: {sorted(PLATFORMS)}") from None
    raise TypeError(f"gpu must be a GpuConfig or platform name, "
                    f"got {type(gpu).__name__}")


def tenant_kernel(kernel: KernelSpec, index: int) -> KernelSpec:
    """The address-shifted variant tenant ``index`` executes.

    Tenant 0 runs the untouched kernel (the very instance solo runs
    and goldens use, so its memoized traces are shared); tenant ``t``
    gets a trace-wrapped copy offset by ``t * TENANT_STRIDE``.
    ``dataclasses.replace`` resets the non-init memo fields, so the
    variant builds its own trace cache instead of poisoning the
    original's.
    """
    if index == 0:
        return kernel
    offset = index * TENANT_STRIDE
    inner = kernel.trace

    def shifted(bx, by, bz, _inner=inner, _offset=offset):
        return tuple(a._replace(base=a.base + _offset)
                     for a in _inner(bx, by, bz))

    return dataclasses.replace(kernel, trace=shifted)


def _tenant_plan(kernel, config, spec):
    """Build the tenant's execution plan on (a view of) the platform.

    Plans are built from the *unshifted* kernel: every plan is a pure
    CTA-id mapping plus knobs, and the dependency analysis it rests on
    is symbolic, so the mitigation a tenant gets is exactly what the
    same workload would get solo — which is the comparison the
    interference study wants.
    """
    from repro.api import cluster

    plan = cluster(kernel, spec.scheme, gpu=config, seed=spec.seed,
                   active_agents=spec.active_agents)
    if spec.bypass and not plan.bypass_streams:
        plan = dataclasses.replace(plan, bypass_streams=True)
    return plan


def _owned_sms(policy: str, n_tenants: int, num_sms: int):
    """Which physical SMs each tenant dispatches onto."""
    if policy == "shared":
        return [list(range(num_sms)) for _ in range(n_tenants)]
    if num_sms < n_tenants:
        raise ValueError(
            f"policy {policy!r} needs at least one SM per tenant: "
            f"{n_tenants} tenants on {num_sms} SMs")
    base, extra = divmod(num_sms, n_tenants)
    owned, start = [], 0
    for t in range(n_tenants):
        count = base + (1 if t < extra else 0)
        owned.append(list(range(start, start + count)))
        start += count
    return owned


def _snapshot(stats):
    return (stats.accesses, stats.hits, stats.misses,
            stats.reserved_hits, stats.write_evictions)


def _credit(into, stats, before):
    into.accesses += stats.accesses - before[0]
    into.hits += stats.hits - before[1]
    into.misses += stats.misses - before[2]
    into.reserved_hits += stats.reserved_hits - before[3]
    into.write_evictions += stats.write_evictions - before[4]


class _TenantRun:
    """Mutable per-pass dispatch state of one tenant."""

    __slots__ = ("kernel", "plan", "vmap", "capacity", "state", "queues",
                 "bind_pending", "metrics", "l2")

    def __init__(self, index, kernel, plan, owned, scheduler, seed, config,
                 policy, n_tenants, l2):
        self.kernel = kernel
        self.plan = plan
        self.vmap = {sm: v for v, sm in enumerate(owned)}
        self.capacity = capacity = max_ctas_per_sm(config, kernel)
        self.l2 = l2
        metrics = KernelMetrics(
            gpu_name=config.name,
            kernel_name=kernel.name,
            scheme=plan.scheme,
            warp_slots=config.warp_slots * len(owned),
            sm_cycles=[0.0] * config.num_sms,
            ctas_per_sm=[0] * config.num_sms,
        )
        metrics.tenants = n_tenants
        metrics.tenant_index = index
        metrics.tenancy_policy = policy
        self.metrics = metrics
        if plan.mode == "scheduled":
            self.state = scheduler.start(kernel.n_ctas, len(owned),
                                         capacity, seed)
            self.queues = None
            self.bind_pending = None
        else:
            self.state = None
            self.queues = [deque(tasks) for tasks in plan.sm_tasks]
            self.bind_pending = {sm for sm in owned
                                 if self.queues[self.vmap[sm]]}

    def next_wave(self, phys_sm):
        """The tenant's next wave on this SM, or ``None`` once drained.

        A placed tenant binds its agents lazily, as the lead-in of its
        first wave on each SM.
        """
        virtual = self.vmap[phys_sm]
        plan = self.plan
        if self.state is not None:
            positions = self.state.take(virtual, self.capacity)
            if not positions:
                return None
            return (self.capacity, [plan.resolve(u) for u in positions],
                    self.kernel, plan, self.metrics, self.l2, 0.0, None)
        queue = self.queues[virtual]
        if not queue:
            return None
        agents = plan.active_agents
        wave = [queue.popleft() for _ in range(min(agents, len(queue)))]
        lead = 0.0
        if phys_sm in self.bind_pending:
            self.bind_pending.discard(phys_sm)
            lead = plan.agent_bind_overhead
        return (agents, wave, self.kernel, plan, self.metrics, self.l2,
                lead, None)


class _TenantSource:
    """Round-robin among each SM's owning tenants that still have CTAs;
    each wave's cache-counter deltas are credited to its tenant."""

    record_per_cta = False

    def __init__(self, runs, l1s, num_sms):
        self.launches = [(run.kernel, run.plan, run.metrics)
                         for run in runs]
        self.l1s = l1s
        self.owners = [[] for _ in range(num_sms)]
        for run in runs:
            for sm in run.vmap:
                self.owners[sm].append(run)
        self.rr = [0] * num_sms
        self.before = None

    def starts(self):
        return [(0.0, sm) for sm, owners in enumerate(self.owners)
                if owners]

    def next_wave(self, sm):
        owners = self.owners[sm]
        for probe in range(len(owners)):
            run = owners[(self.rr[sm] + probe) % len(owners)]
            wave = run.next_wave(sm)
            if wave is not None:
                self.rr[sm] = (self.rr[sm] + probe + 1) % len(owners)
                self.before = (run, _snapshot(self.l1s[sm].stats),
                               _snapshot(run.l2.stats))
                return wave
        return None

    def wave_done(self, sm):
        run, l1_before, l2_before = self.before
        _credit(run.metrics.l1, self.l1s[sm].stats, l1_before)
        _credit(run.metrics.l2, run.l2.stats, l2_before)


@dataclass(frozen=True)
class TenantResult:
    """One tenant's measured, solo and oracle numbers side by side."""

    index: int
    workload: str
    scheme: str
    sm_count: int
    cycles: float
    l1_hit_rate: float
    l2_hit_rate: float
    l2_transactions: int
    dram_transactions: int
    solo_cycles: float
    solo_l1_hit_rate: float
    #: Wall-clock dilation vs owning the whole GPU (>= 1 ~ slower).
    slowdown: float
    #: Solo minus co-run L1 hit rate (positive ~ interference cost).
    l1_hit_delta: float
    #: The reuse-graph oracle ceiling (the report's oracle column).
    bound_hit_rate: float
    bound_l2_hit_rate: float

    @property
    def bound_headroom(self) -> float:
        """Oracle headroom still above the co-run hit rate."""
        return self.bound_hit_rate - self.l1_hit_rate


@dataclass(frozen=True)
class TenancyReport:
    """Everything one co-tenant measurement produced."""

    gpu_name: str
    policy: str
    seed: int
    warmups: int
    tenants: "tuple[TenantResult, ...]"
    #: Per-tenant co-run metrics (canonicalizable, fingerprintable).
    metrics: "tuple[KernelMetrics, ...]"
    bounds: "tuple[BoundReport, ...]"
    #: Cycles until the last tenant finished.
    makespan_cycles: float
    #: max/min tenant slowdown (1.0 = perfectly fair).
    unfairness: float

    def violations(self, tolerance: float = 1e-9) -> "list[str]":
        """Oracle-bound violations (always empty for a sound bound)."""
        problems = []
        for t in self.tenants:
            if t.l1_hit_rate > t.bound_hit_rate + tolerance:
                problems.append(
                    f"{t.workload}[{t.index}] L1 hit rate "
                    f"{t.l1_hit_rate:.6f} exceeds oracle bound "
                    f"{t.bound_hit_rate:.6f}")
            if t.l2_hit_rate > t.bound_l2_hit_rate + tolerance:
                problems.append(
                    f"{t.workload}[{t.index}] L2 hit rate "
                    f"{t.l2_hit_rate:.6f} exceeds oracle bound "
                    f"{t.bound_l2_hit_rate:.6f}")
        return problems

    def render(self) -> str:
        """Human-readable per-tenant table with the oracle column."""
        lines = [
            f"TenancyReport  gpu={self.gpu_name}  policy={self.policy}  "
            f"makespan={self.makespan_cycles:.0f}  "
            f"unfairness={self.unfairness:.3f}",
            f"{'tenant':>10s} {'scheme':>11s} {'SMs':>4s} "
            f"{'cycles':>12s} {'slowdn':>7s} {'l1_hit':>7s} "
            f"{'solo':>7s} {'delta':>7s} {'oracle':>7s}",
        ]
        for t in self.tenants:
            lines.append(
                f"{t.workload:>10s} {t.scheme:>11s} {t.sm_count:>4d} "
                f"{t.cycles:>12.0f} {t.slowdown:>7.3f} "
                f"{t.l1_hit_rate:>7.1%} {t.solo_l1_hit_rate:>7.1%} "
                f"{t.l1_hit_delta:>+7.1%} {t.bound_hit_rate:>7.1%}")
        return "\n".join(lines)


def run_mix(mix: TenantMix, gpu, *, seed: int = 0, warmups: int = 1,
            fast: bool = None, tracer=None) -> TenancyReport:
    """Measure a tenant mix on one platform.

    Mirrors :func:`repro.gpu.simulator.simulate` methodology: the full
    co-dispatch runs ``warmups`` warm-up passes (distinct scheduler
    seeds, L2 contents carried across pass boundaries), then the
    measured pass at seed ``+ warmups``.  Per-tenant solo baselines
    (same plan, same seed/warmup discipline, whole GPU) and the
    reuse-graph oracle bound are measured alongside, so the report
    carries interference deltas and the oracle column in one shot.
    """
    if warmups < 0:
        raise ValueError(f"warmups must be >= 0, got {warmups}")
    config = _resolve_gpu(gpu)
    n = len(mix.tenants)
    owned = _owned_sms(mix.policy, n, config.num_sms)

    from repro import api

    # Per-tenant solo world: registry kernel, plan, baseline, bound.
    solo_kernels = [
        _lookup_workload(spec.workload).kernel(scale=spec.scale,
                                               config=config)
        for spec in mix.tenants
    ]
    solo_plans = [_tenant_plan(kernel, config, spec)
                  for kernel, spec in zip(solo_kernels, mix.tenants)]
    bounds = tuple(cache_hit_bound(config, kernel)
                   for kernel in solo_kernels)
    solo_metrics = [
        api.simulate(spec.workload, config, plan=plan, scale=spec.scale,
                     seed=spec.seed + seed, warmups=warmups, fast=fast)
        for spec, plan in zip(mix.tenants, solo_plans)
    ]

    if n == 1:
        # Solo equivalence by construction: the baseline above *is*
        # the single-kernel simulator run, bit for bit, on whichever
        # core the process default selects.
        co_metrics = solo_metrics
    else:
        co_metrics = _run_cotenant(mix, config, owned, solo_kernels,
                                   solo_plans, seed=seed, warmups=warmups,
                                   fast=fast, tracer=tracer)

    results = []
    for t, spec in enumerate(mix.tenants):
        co = co_metrics[t]
        solo = solo_metrics[t]
        slowdown = (co.cycles / solo.cycles) if solo.cycles > 0 else 1.0
        results.append(TenantResult(
            index=t,
            workload=spec.workload,
            scheme=co.scheme,
            sm_count=len(owned[t]),
            cycles=co.cycles,
            l1_hit_rate=co.l1_hit_rate,
            l2_hit_rate=co.l2.hit_rate,
            l2_transactions=co.l2_transactions,
            dram_transactions=co.dram_transactions,
            solo_cycles=solo.cycles,
            solo_l1_hit_rate=solo.l1_hit_rate,
            slowdown=slowdown,
            l1_hit_delta=solo.l1_hit_rate - co.l1_hit_rate,
            bound_hit_rate=bounds[t].bound_hit_rate,
            bound_l2_hit_rate=bounds[t].bound_l2_hit_rate,
        ))
    slowdowns = [r.slowdown for r in results]
    unfairness = (max(slowdowns) / min(slowdowns)
                  if min(slowdowns) > 0 else 1.0)
    return TenancyReport(
        gpu_name=config.name,
        policy=mix.policy,
        seed=seed,
        warmups=warmups,
        tenants=tuple(results),
        metrics=tuple(co_metrics),
        bounds=bounds,
        makespan_cycles=max(m.cycles for m in co_metrics),
        unfairness=unfairness,
    )


def _run_cotenant(mix, config, owned, solo_kernels, solo_plans, *, seed,
                  warmups, fast, tracer):
    """The multi-tenant passes proper (two or more tenants)."""
    n = len(mix.tenants)
    sim = GpuSimulator(config, fast=fast)

    # Shifted kernels + (view-config) plans, built once per mix so the
    # trace memos amortize across warm-up and measured passes.
    kernels = [tenant_kernel(kernel, t)
               for t, kernel in enumerate(solo_kernels)]
    plans = []
    for t, spec in enumerate(mix.tenants):
        if len(owned[t]) == config.num_sms:
            plans.append(solo_plans[t])
        else:
            view = dataclasses.replace(config, num_sms=len(owned[t]))
            plans.append(_tenant_plan(solo_kernels[t], view, spec))

    # Shared memory hierarchy: the platform's pooled pair, the one the
    # solo runs above just parked.  ``cluster-isolated`` models a
    # static way-partition of the shared L2 as per-tenant
    # set-partitioned slices of 1/n capacity (see DESIGN), built per
    # mix: no tenant can evict another tenant's L2 lines under that
    # policy, and the pair's own L2 sits out the mix.
    caches = sim.take_caches()
    l1s, shared_l2 = caches
    if mix.policy == "cluster-isolated":
        slice_config = config.with_scaled_l2(n)
        l2s = [make_l2(slice_config, fast=sim.fast) for _ in range(n)]
        l2_of = list(l2s)
    else:
        l2s = [shared_l2]
        l2_of = [shared_l2] * n

    for pass_index in range(warmups + 1):
        measured = pass_index == warmups
        runs = [
            _TenantRun(t, kernels[t], plans[t], owned[t], sim.scheduler,
                       spec.seed + seed + pass_index, config, mix.policy,
                       n, l2_of[t])
            for t, spec in enumerate(mix.tenants)
        ]
        sim.run_waves(_TenantSource(runs, l1s, config.num_sms), l1s, l2s,
                      tracer if measured else None)
    sim.park_caches(caches)
    return [run.metrics for run in runs]
