"""Co-tenant dispatch: multiple kernels sharing one simulated GPU.

The runner executes every tenant of a :class:`~repro.tenancy.TenantMix`
concurrently on one :class:`~repro.gpu.simulator.GpuSimulator`: SMs
advance on the same shared event heap the solo dispatch loops use, but
each SM visit now picks the next wave round-robin among the tenants
that own the SM and still have CTAs — so the waves of different
kernels interleave through the shared L1s and L2 in approximately
global time order, which is exactly the inter-kernel contention CIAO
(PAPERS.md) studies.

Tenant isolation of the *address space* comes from tagging: tenant
``t``'s kernel is a trace-wrapped variant whose every access is offset
by ``t * TENANT_STRIDE``, so distinct tenants occupy disjoint tag
ranges in the very same cache arrays (reference dicts and fastpath
flat tags alike) and per-tenant hits/misses are exact, not sampled.

Per-tenant *accounting* needs no per-line bookkeeping beyond that:
every wave belongs to exactly one tenant, so snapshotting the five
:class:`~repro.gpu.refmodel.CacheStats` counters around each
``_execute_wave`` call and crediting the delta to the wave's tenant
attributes every access (including interference misses caused by
other tenants' evictions) to the kernel that issued it.

Solo equivalence
----------------
A one-tenant mix is *delegated* to :func:`repro.api.simulate` with the
identically-built plan, so it is bit-identical to the single-kernel
simulator on all three cores by construction — the co-dispatch loop
only ever runs for two or more tenants, and golden fingerprints never
see it.  (The multi-tenant loop intentionally drops the solo
scheduler's tail-quota fairness pass: with several grids in flight the
tail of one kernel overlaps the body of the next, so there is no
single tail region to equalize.)
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.analysis.bound import BoundReport, cache_hit_bound
from repro.gpu import fastpath
from repro.gpu.cache import make_l1, make_l2
from repro.gpu.config import PLATFORMS, GpuConfig
from repro.gpu.metrics import KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.simulator import GpuSimulator
from repro.kernels.kernel import KernelSpec
from repro.tenancy.spec import TenantMix, TenantSpec
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
    from repro.gpu.plan import baseline_plan

    if spec.scheme == "BSL":
        plan = baseline_plan()
    else:
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

    __slots__ = ("index", "spec", "kernel", "plan", "owned", "vmap",
                 "capacity", "state", "queues", "bind_pending",
                 "metrics", "sm_clocks")

    def __init__(self, index, spec, kernel, plan, owned, capacity,
                 scheduler, seed, config, policy, n_tenants, chiplets):
        self.index = index
        self.spec = spec
        self.kernel = kernel
        self.plan = plan
        self.owned = owned
        self.vmap = {sm: v for v, sm in enumerate(owned)}
        self.capacity = capacity
        metrics = KernelMetrics(
            gpu_name=config.name,
            kernel_name=kernel.name,
            scheme=plan.scheme,
            warp_slots=config.warp_slots * len(owned),
            ctas_per_sm=[0] * config.num_sms,
        )
        metrics.chiplets = chiplets
        metrics.tenants = n_tenants
        metrics.tenant_index = index
        metrics.tenancy_policy = policy
        self.metrics = metrics
        self.sm_clocks = [0.0] * config.num_sms
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
        """The tenant's next wave of CTA ids on this SM, or ``None``."""
        virtual = self.vmap[phys_sm]
        if self.state is not None:
            positions = self.state.take(virtual, self.capacity)
            if not positions:
                return None
            return [self.plan.resolve(u) for u in positions]
        queue = self.queues[virtual]
        if not queue:
            return None
        take = min(self.plan.active_agents, len(queue))
        return [queue.popleft() for _ in range(take)]


def _dispatch(sim, config, runs, l1s, l2_of, tracer=None):
    """One full co-tenant pass: run every tenant's grid to completion."""
    num_sms = config.num_sms
    owners = [[] for _ in range(num_sms)]
    for run in runs:
        for sm in run.owned:
            owners[sm].append(run)
    rr = [0] * num_sms
    turnarounds = [0] * num_sms
    heap = [(0.0, sm) for sm in range(num_sms) if owners[sm]]
    heapify(heap)
    while heap:
        now, sm = heappop(heap)
        run = None
        wave = None
        n_owning = len(owners[sm])
        for probe in range(n_owning):
            candidate = owners[sm][(rr[sm] + probe) % n_owning]
            wave = candidate.next_wave(sm)
            if wave:
                run = candidate
                rr[sm] = (rr[sm] + probe + 1) % n_owning
                break
        if run is None:
            continue  # every owner drained: the SM retires
        plan = run.plan
        metrics = run.metrics
        overhead = 0.0
        if run.bind_pending is not None and sm in run.bind_pending:
            run.bind_pending.discard(sm)
            overhead += plan.agent_bind_overhead
        l1 = l1s[sm]
        l2 = l2_of[run.index]
        l1_before = _snapshot(l1.stats)
        l2_before = _snapshot(l2.stats)
        if tracer is not None:
            tracer.dispatch(sm, turnarounds[sm], len(wave), len(wave), now)
        duration = sim._execute_wave(
            run.kernel, wave, now + overhead, l1, l2, metrics,
            False, sm, turnarounds[sm], None, plan, tracer)
        _credit(metrics.l1, l1.stats, l1_before)
        _credit(metrics.l2, l2.stats, l2_before)
        per_unit = (plan.per_cta_overhead if plan.mode == "scheduled"
                    else plan.per_task_overhead)
        overhead += per_unit * len(wave)
        duration += overhead
        metrics.overhead_cycles += overhead
        metrics.ctas_executed += len(wave)
        metrics.ctas_per_sm[sm] += len(wave)
        finish = now + duration
        run.sm_clocks[sm] = finish
        if tracer is not None:
            tracer.wave(sm, turnarounds[sm], now, duration, len(wave))
        turnarounds[sm] += 1
        heappush(heap, (finish, sm))
    for run in runs:
        run.metrics.sm_cycles = list(run.sm_clocks)
        run.metrics.cycles = max(run.sm_clocks) if run.sm_clocks else 0.0


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
        co_metrics = _run_cotenant(mix, config, solo_kernels, solo_plans,
                                   seed=seed, warmups=warmups, fast=fast,
                                   tracer=tracer)

    results = []
    for t, spec in enumerate(mix.tenants):
        co = co_metrics[t]
        solo = solo_metrics[t]
        slowdown = (co.cycles / solo.cycles) if solo.cycles > 0 else 1.0
        results.append(TenantResult(
            index=t,
            workload=spec.workload,
            scheme=co.scheme,
            sm_count=(config.num_sms if mix.policy == "shared" or n == 1
                      else len(_owned_sms(mix.policy, n,
                                          config.num_sms)[t])),
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


def _run_cotenant(mix, config, solo_kernels, solo_plans, *, seed, warmups,
                  fast, tracer):
    """The multi-tenant passes proper (two or more tenants)."""
    n = len(mix.tenants)
    sim = GpuSimulator(config, fast=fast)
    chiplets = sim._topo.chiplets if sim._topo is not None else 1
    owned = _owned_sms(mix.policy, n, config.num_sms)

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
    capacities = [max_ctas_per_sm(config, kernel) for kernel in kernels]

    # Shared memory hierarchy.  ``cluster-isolated`` models a static
    # way-partition of the shared L2 as per-tenant set-partitioned
    # slices of 1/n capacity (see DESIGN): no tenant can evict another
    # tenant's L2 lines under that policy.
    l1s = [make_l1(config, fast=sim.fast) for _ in range(config.num_sms)]
    if mix.policy == "cluster-isolated":
        slice_config = config.with_scaled_l2(n)
        l2s = [make_l2(slice_config, fast=sim.fast) for _ in range(n)]
        l2_of = list(l2s)
    else:
        shared_l2 = make_l2(config, fast=sim.fast)
        l2s = [shared_l2]
        l2_of = [shared_l2] * n
    sim._use_fastpath = (sim.fast
                         and all(fastpath.is_fast_caches(l1s, l2)
                                 for l2 in l2s)
                         and l1s[0].line_size == config.l1_line
                         and all(l2.line_size == config.l2_line
                                 for l2 in l2s))

    final_runs = None
    for pass_index in range(warmups + 1):
        measured = pass_index == warmups
        # Kernel-launch boundary semantics, as in GpuSimulator.run():
        # L1s invalidate between launches, L2 keeps contents.
        for l1 in l1s:
            l1.reset_stats()
            l1.flush()
        for l2 in l2s:
            l2.reset_stats()
            l2.settle()
        runs = [
            _TenantRun(t, spec, kernels[t], plans[t], owned[t],
                       capacities[t], sim.scheduler,
                       spec.seed + seed + pass_index, config, mix.policy,
                       n, chiplets)
            for t, spec in enumerate(mix.tenants)
        ]
        pass_tracer = tracer if measured else None
        if pass_tracer is not None:
            for l1 in l1s:
                l1.set_tracer(pass_tracer, "L1")
            for l2 in l2s:
                l2.set_tracer(pass_tracer, "L2")
            for run in runs:
                pass_tracer.launch(run.kernel.name, config.name,
                                   run.plan.scheme, run.kernel.n_ctas)
        try:
            _dispatch(sim, config, runs, l1s, l2_of, tracer=pass_tracer)
        finally:
            if pass_tracer is not None:
                for l1 in l1s:
                    l1.set_tracer(None)
                for l2 in l2s:
                    l2.set_tracer(None)
        if pass_tracer is not None:
            for run in runs:
                pass_tracer.retire(run.kernel.name, run.metrics.cycles)
        if measured:
            final_runs = runs
    return [run.metrics for run in final_runs]
