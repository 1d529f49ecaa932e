"""Trace-driven, cycle-approximate whole-GPU simulator.

The simulator executes a :class:`~repro.kernels.kernel.KernelSpec`
under an :class:`~repro.gpu.plan.ExecutionPlan` on a
:class:`~repro.gpu.config.GpuConfig` and returns
:class:`~repro.gpu.metrics.KernelMetrics`.

Execution model
---------------
CTAs run on SMs in *waves* (the paper's "turnarounds"): each SM holds
up to its occupancy limit of concurrent CTAs, and the traces of
co-resident CTAs are interleaved chunk-round-robin through the SM's
private L1 — which is exactly what makes spatial inter-CTA reuse (and
contention/thrashing between co-resident CTAs) visible to the cache
model.  SMs advance on a shared event heap ordered by their local
clock, so the demand-driven scheduler and the shared L2 see requests
in approximately global time order.

Timing model
------------
Every warp access contributes wall time
``compute_cycles_per_access / issue_width + latency / hiding`` where
``hiding`` grows with resident warps up to a memory-level-parallelism
cap.  Latencies honour in-flight fills: a request to a line whose fill
is still pending waits for it (the "hit reserved" effect of
Section 3.1-(1)).  The absolute numbers are approximate by design;
the cache hit/miss/transaction counts that drive the paper's
conclusions are measured exactly.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from heapq import heapify, heappop, heappush

from repro.gpu import fastpath
from repro.gpu.cache import default_fast, make_l1, make_l2
from repro.gpu.config import GpuConfig
from repro.gpu.metrics import CtaRecord, KernelMetrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan, baseline_plan
from repro.gpu.scheduler import DEFAULT_SCHEDULER, CtaScheduler
from repro.kernels.access import coalesce
from repro.kernels.kernel import KernelSpec

#: Warp accesses taken from each co-resident CTA before rotating.
INTERLEAVE_CHUNK = 2

#: Fraction of a pending fill's remaining wait that a *reserved hit*
#: exposes to the wall clock.  The merged request occupies one MSHR
#: entry, not a new memory round trip: the original miss already paid
#: the fill's exposure, and most of the waiter's stall overlaps with
#: other warps' execution.  The Figure-2 microbenchmark, which measures
#: per-warp *observed* latency rather than throughput, models the full
#: wait explicitly on the cache models instead.
RESERVED_EXPOSURE = 0.2

#: Most cache geometries the process-wide pool keeps a pair for.
POOL_KEYS = 4


def cache_key(config: GpuConfig, fast: bool) -> tuple:
    """Everything :func:`make_l1`/:func:`make_l2` read: two simulators
    with equal keys build interchangeable cache pairs."""
    return (fast, config.num_sms, config.l1_size, config.l1_line,
            config.l1_sectors, config.l2_size, config.l2_line)


class _CachePairPool:
    """Reset cache pairs shared by every simulator in the process.

    One pair per :func:`cache_key`, at most :data:`POOL_KEYS` keys;
    parking a pair under a new key evicts the key parked longest ago.
    A taker pops its pair, so a nested or concurrent taker of the same
    key builds a fresh one instead of sharing a pair in use.
    """

    def __init__(self, keys: int = POOL_KEYS):
        self.keys = keys
        self._pairs = {}
        self._lock = threading.Lock()

    def _relock(self) -> None:
        # A fork can copy the lock mid-hold; the child gets a free one.
        self._lock = threading.Lock()

    def take(self, sim: "GpuSimulator"):
        with self._lock:
            pair = self._pairs.pop(cache_key(sim.config, sim.fast), None)
        return pair if pair is not None else sim.fresh_caches()

    def park(self, sim: "GpuSimulator", pair) -> None:
        # Resetting at release means a parked pair holds no lines, and
        # a recycled pair is indistinguishable from a fresh one.
        l1s, l2 = pair
        for l1 in l1s:
            l1.reset()
        l2.reset()
        key = cache_key(sim.config, sim.fast)
        with self._lock:
            if key in self._pairs:
                return
            self._pairs[key] = pair
            if len(self._pairs) > self.keys:
                del self._pairs[next(iter(self._pairs))]


_POOL = _CachePairPool()
os.register_at_fork(after_in_child=lambda: _POOL._relock())


class GpuSimulator:
    """Simulates kernel launches on one GPU platform.

    ``hiding_cap`` bounds how many outstanding memory latencies an SM
    can overlap (MSHR/LSU limit); it is the knob that keeps memory-
    bound kernels memory-bound even at full occupancy.

    ``tracer`` (a :class:`repro.obs.Tracer`-shaped object, or ``None``)
    observes wave dispatch/retire, per-CTA execution, scheduler
    turnaround boundaries and cache events.  Tracing is observation
    only: metrics are bit-identical with and without one attached, and
    the disabled path costs a single ``is not None`` test per event
    site.
    """

    def __init__(self, config: GpuConfig, scheduler: CtaScheduler = None,
                 hiding_cap: float = 14.0, l1_enabled: bool = True,
                 join_stagger: int = 6, tracer=None, fast: bool = None):
        self.config = config
        self.scheduler = scheduler if scheduler is not None else DEFAULT_SCHEDULER
        self.hiding_cap = hiding_cap
        self.l1_enabled = l1_enabled
        self.join_stagger = join_stagger
        self.tracer = tracer
        #: ``fast=None`` follows the process default (the fast path,
        #: unless ``REPRO_FAST_MODEL=0``); ``False`` pins the
        #: reference models — the differential oracle.
        self.fast = default_fast() if fast is None else bool(fast)
        self.interleave_chunk = INTERLEAVE_CHUNK
        self.reserved_exposure = RESERVED_EXPOSURE
        #: Active multi-chiplet topology for the current launch, or
        #: ``None`` on a flat die (a 1-chiplet topology normalizes to
        #: ``None``, which is what keeps it bit-identical to flat).
        self._topo = (config.topology
                      if config.topology is not None
                      and not config.topology.is_trivial else None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def fresh_caches(self):
        """New cold per-SM L1s and a cold shared L2."""
        config = self.config
        return ([make_l1(config, fast=self.fast)
                 for _ in range(config.num_sms)],
                make_l2(config, fast=self.fast))

    def take_caches(self):
        """A cold cache pair for this simulator's geometry: the one the
        process pool holds for it, or a fresh one (DESIGN.md, "One
        cache-pair pool per process").  Give it back with
        :meth:`park_caches`."""
        return _POOL.take(self)

    def park_caches(self, caches) -> None:
        """Reset a pair taken with :meth:`take_caches` and pool it."""
        _POOL.park(self, caches)

    def run(self, kernel: KernelSpec, plan: ExecutionPlan = None,
            record_per_cta: bool = False, seed: int = 0,
            caches=None, tracer=None) -> KernelMetrics:
        """Simulate one kernel launch and return its metrics.

        ``caches`` lets callers carry cache *contents* across launches
        (GPUs do not flush caches between kernel invocations); counters
        are reset so the returned metrics cover this launch only.
        Without it the launch starts cold on a pooled pair (see
        :func:`simulate`).
        ``tracer`` overrides the simulator's own tracer for this launch.
        """
        plan = plan if plan is not None else baseline_plan()
        config = self.config
        metrics = KernelMetrics(
            gpu_name=config.name,
            kernel_name=kernel.name,
            scheme=plan.scheme,
            warp_slots=config.warp_slots * config.num_sms,
            sm_cycles=[0.0] * config.num_sms,
            ctas_per_sm=[0] * config.num_sms,
        )
        recycle = caches is None
        if recycle:
            caches = self.take_caches()
        l1s, l2 = caches
        if plan.mode == "scheduled":
            source = _SchedulerSource(self, kernel, plan, metrics, l2,
                                      record_per_cta, seed)
        else:
            source = _AgentSource(self, kernel, plan, metrics, l2,
                                  record_per_cta)
        self.run_waves(source, l1s, (l2,),
                       tracer if tracer is not None else self.tracer)
        for l1 in l1s:
            metrics.l1.merge(l1.stats)
        metrics.l2.merge(l2.stats)
        if recycle:
            self.park_caches(caches)
        return metrics

    def run_waves(self, source, l1s, l2s, tracer=None) -> None:
        """Run one kernel launch: every wave ``source`` yields.

        The simulator's one SM event loop (DESIGN.md, "One SM event
        loop, three wave sources").  A source has ``launches`` (one
        ``(kernel, plan, metrics)`` per grid, ``metrics`` with a zeroed
        ``sm_cycles`` and ``ctas_per_sm`` entry per SM),
        ``record_per_cta``, ``starts()`` (the first heap entries),
        ``wave_done(sm)`` and ``next_wave(sm)``: ``None`` retires the
        SM silently, else ``(requested, ctas, kernel, plan, metrics,
        l2, lead, prefetch_targets)``.  Empty ``ctas`` still emit the
        dispatch event, then retire the SM; ``lead`` cycles of
        overhead delay the wave's start.
        """
        config = self.config
        # The fused loop needs the flat-array models; a caller handing
        # us reference caches gets the reference loop (still correct,
        # just slower).  Either loop drives either cache type through
        # the same arithmetic, so results never depend on this choice.
        fast = (self.fast
                and all(fastpath.is_fast_caches(l1s, l2) for l2 in l2s)
                and l1s[0].line_size == config.l1_line
                and all(l2.line_size == config.l2_line for l2 in l2s))
        # Kernel-launch boundary semantics: the non-coherent per-SM L1s
        # are invalidated between launches, while the L2s keep their
        # contents (with any in-flight fills long since completed).
        for l1 in l1s:
            l1.reset_stats()
            l1.flush()
        for l2 in l2s:
            l2.reset_stats()
            l2.settle()
        launches = source.launches
        if self._topo is not None:
            for _, _, metrics in launches:
                metrics.chiplets = self._topo.chiplets
        if tracer is not None:
            for l1 in l1s:
                l1.set_tracer(tracer, "L1")
            for l2 in l2s:
                l2.set_tracer(tracer, "L2")
            for kernel, plan, _ in launches:
                tracer.launch(kernel.name, config.name, plan.scheme,
                              kernel.n_ctas)
        try:
            execute = fastpath.execute_wave if fast \
                else type(self)._execute_wave
            record_per_cta = source.record_per_cta
            turnarounds = [0] * config.num_sms
            heap = source.starts()
            heapify(heap)
            while heap:
                now, sm = heappop(heap)
                wave = source.next_wave(sm)
                if wave is None:
                    continue
                (requested, ctas, kernel, plan, metrics, l2, lead,
                 prefetch) = wave
                turnaround = turnarounds[sm]
                n = len(ctas)
                if tracer is not None:
                    tracer.dispatch(sm, turnaround, requested, n, now)
                if not n:
                    continue
                duration = execute(self, kernel, ctas, now + lead, l1s[sm],
                                   l2, metrics, record_per_cta, sm,
                                   turnaround, prefetch, plan, tracer)
                source.wave_done(sm)
                overhead = lead + (plan.per_cta_overhead
                                   if plan.mode == "scheduled"
                                   else plan.per_task_overhead) * n
                duration += overhead
                metrics.overhead_cycles += overhead
                metrics.ctas_executed += n
                metrics.ctas_per_sm[sm] += n
                finish = metrics.sm_cycles[sm] = now + duration
                if tracer is not None:
                    tracer.wave(sm, turnaround, now, duration, n)
                turnarounds[sm] = turnaround + 1
                heappush(heap, (finish, sm))
        finally:
            if tracer is not None:
                for l1 in l1s:
                    l1.set_tracer(None)
                for l2 in l2s:
                    l2.set_tracer(None)
        for kernel, _, metrics in launches:
            metrics.cycles = max(metrics.sm_cycles) \
                if metrics.sm_cycles else 0.0
            if tracer is not None:
                tracer.retire(kernel.name, metrics.cycles)

    # ------------------------------------------------------------------
    # wave execution (hot path)
    # ------------------------------------------------------------------

    def _execute_wave(self, kernel, cta_ids, start, l1, l2, metrics,
                      record_per_cta, sm_id, turnaround,
                      prefetch_targets, plan, tracer=None):
        config = self.config
        n = len(cta_ids)
        warps = kernel.warps_per_cta
        resident_warps = n * warps
        hiding = max(1.0, min(resident_warps * config.mlp_per_warp,
                              self.hiding_cap))
        issue_width = config.issue_width
        alu_step = kernel.compute_cycles_per_access / issue_width
        bypass = plan.bypass_streams
        sectors = config.l1_sectors
        topo = self._topo
        chiplet = (topo.chiplet_of_sm(sm_id, config.num_sms)
                   if topo is not None else -1)

        # Traces are memoized on the kernel itself, so they survive
        # across warm-up launches, schemes and whole-sweep reruns.
        traces = [kernel.cta_trace(v) for v in cta_ids]

        cursor = start
        cta_cycles = [0.0] * n
        # Chunk-round-robin interleave of the co-resident traces, with a
        # pipelined start: hardware dispatches CTAs to an SM one after
        # another, so slot k begins a few accesses behind slot k-1.  The
        # stagger is what lets a later CTA take *clean* L1 hits on lines
        # its predecessor requested, instead of hit-reserved waits.
        indices = [0] * n
        remaining = sum(len(t) for t in traces)
        metrics.warp_accesses += remaining
        active = 1
        since_join = 0
        while remaining:
            progressed = False
            for slot in range(active):
                trace = traces[slot]
                i = indices[slot]
                if i >= len(trace):
                    continue
                progressed = True
                stop = min(i + INTERLEAVE_CHUNK, len(trace))
                # CTA-slot -> L1/Tex sector mapping: contiguous halves,
                # so neighbouring co-resident CTAs mostly share a sector
                sector = (slot * sectors) // n
                for j in range(i, stop):
                    access = trace[j]
                    use_l1 = self.l1_enabled and not (bypass and access.is_stream)
                    latency, service = self._do_access(access, l1, l2, cursor,
                                                       sector, use_l1, metrics,
                                                       chiplet)
                    step = alu_step + latency / hiding + service
                    cursor += step
                    cta_cycles[slot] += step
                taken = stop - i
                indices[slot] = stop
                remaining -= taken
                since_join += taken
            if active < n and (since_join >= self.join_stagger
                               or not progressed):
                # join the next CTA on schedule — or immediately, when
                # every already-active CTA has retired (short traces)
                active += 1
                since_join = 0

        # prefetch the head of each agent's next task (Section 4.3-III)
        if prefetch_targets:
            cursor += self._issue_prefetches(kernel, prefetch_targets, l1, l2,
                                             cursor, metrics, hiding, plan,
                                             chiplet)

        fixed = kernel.fixed_compute_cycles * n / issue_width
        duration = (cursor - start) + fixed
        metrics.occupancy_weighted_warps += resident_warps * duration
        if tracer is not None:
            for slot, v in enumerate(cta_ids):
                tracer.cta(sm_id, v, turnaround, cta_cycles[slot])
        if record_per_cta:
            for slot, v in enumerate(cta_ids):
                metrics.cta_records.append(CtaRecord(
                    original_id=v, sm_id=sm_id, turnaround=turnaround,
                    access_cycles=cta_cycles[slot]))
        return duration

    def _do_access(self, access, l1, l2, now, sector, use_l1, metrics,
                   chiplet=-1):
        """Route one warp access through the hierarchy.

        Returns ``(latency, service)``: the load-to-use latency the warp
        must hide, and the bandwidth service time its L2/DRAM traffic
        occupies (the SM's share of the shared interconnect/DRAM
        throughput, which cannot be hidden by multithreading).

        ``chiplet`` is the requesting SM's home chiplet when a
        multi-chiplet topology is active (``-1`` on a flat die): DRAM
        fills whose owning HBM slice is a *different* chiplet pay the
        interposer hop on top of the ordinary DRAM cost.
        """
        config = self.config
        topo = self._topo
        base_fill = config.dram_latency - config.l2_latency
        if access.is_write:
            service = 0.0
            # L1 is write-evict: invalidate locally, write through to L2.
            if use_l1:
                for seg in coalesce(access, config.l1_line):
                    l1.access(seg, now, 0.0, is_write=True, sector=sector)
            for seg in coalesce(access, config.l2_line):
                fill, remote = base_fill, False
                if topo is not None and \
                        (seg // topo.block_bytes) % topo.chiplets != chiplet:
                    fill, remote = base_fill + topo.hop_latency, True
                hit, _ = l2.access(seg, now, fill, is_write=True)
                metrics.l2_write_transactions += 1
                service += config.l2_service_cycles
                if not hit:
                    metrics.dram_transactions += 1
                    service += config.dram_service_cycles
                    if remote:
                        metrics.dram_remote_transactions += 1
                        service += topo.hop_service
            return 0.0, service  # stores do not stall the warp

        if not use_l1:
            worst = config.l2_latency
            service = 0.0
            for seg in coalesce(access, config.l2_line):
                fill, remote = base_fill, False
                if topo is not None and \
                        (seg // topo.block_bytes) % topo.chiplets != chiplet:
                    fill, remote = base_fill + topo.hop_latency, True
                hit, ready = l2.access(seg, now, fill)
                metrics.l2_read_transactions += 1
                service += config.l2_service_cycles
                if not hit:
                    metrics.dram_transactions += 1
                    service += config.dram_service_cycles
                    if remote:
                        metrics.dram_remote_transactions += 1
                        service += topo.hop_service
                        worst = max(worst,
                                    config.dram_latency + topo.hop_latency)
                    else:
                        worst = max(worst, config.dram_latency)
                else:
                    wait = max(0.0, ready - now) * RESERVED_EXPOSURE
                    worst = max(worst, config.l2_latency + wait)
            return worst, service

        worst = config.l1_latency
        service = 0.0
        sub_per_line = config.l2_transactions_per_l1_miss
        l2_line = config.l2_line
        for seg in coalesce(access, config.l1_line):
            hit, ready = l1.access(seg, now, 0.0, sector=sector)
            if hit:
                wait = max(0.0, ready - now) * RESERVED_EXPOSURE
                worst = max(worst, config.l1_latency + wait)
                continue
            # L1 miss: fetch the full L1 line as l2-line-sized transactions
            line_latency = config.l2_latency
            for k in range(sub_per_line):
                sub = seg + k * l2_line
                fill, remote = base_fill, False
                if topo is not None and \
                        (sub // topo.block_bytes) % topo.chiplets != chiplet:
                    fill, remote = base_fill + topo.hop_latency, True
                l2_hit, _ = l2.access(sub, now, fill)
                metrics.l2_read_transactions += 1
                service += config.l2_service_cycles
                if not l2_hit:
                    metrics.dram_transactions += 1
                    service += config.dram_service_cycles
                    if remote:
                        metrics.dram_remote_transactions += 1
                        service += topo.hop_service
                        line_latency = config.dram_latency + topo.hop_latency
                    elif line_latency < config.dram_latency:
                        line_latency = config.dram_latency
            l1.install(seg, now + line_latency, sector=sector)
            worst = max(worst, line_latency)
        return worst, service

    def _issue_prefetches(self, kernel, targets, l1, l2, cursor, metrics,
                          hiding, plan, chiplet=-1):
        """Preload the first accesses of upcoming tasks into L1."""
        config = self.config
        topo = self._topo
        base_fill = config.dram_latency - config.l2_latency
        cost = 0.0
        issue = config.costs.prefetch_issue_cycles / config.issue_width
        for slot, v in enumerate(targets):
            trace = kernel.cta_trace(v)
            sector = (slot * config.l1_sectors) // max(1, len(targets))
            for access in trace[:plan.prefetch_depth]:
                if access.is_write:
                    continue
                for seg in coalesce(access, config.l1_line):
                    if l1.contains(seg, sector=sector):
                        continue
                    line_latency = config.l2_latency
                    for k in range(config.l2_transactions_per_l1_miss):
                        sub = seg + k * config.l2_line
                        fill, remote = base_fill, False
                        if topo is not None and \
                                (sub // topo.block_bytes) % topo.chiplets \
                                != chiplet:
                            fill = base_fill + topo.hop_latency
                            remote = True
                        l2_hit, _ = l2.access(sub, cursor, fill)
                        metrics.l2_read_transactions += 1
                        cost += config.l2_service_cycles
                        if not l2_hit:
                            metrics.dram_transactions += 1
                            cost += config.dram_service_cycles
                            if remote:
                                metrics.dram_remote_transactions += 1
                                cost += topo.hop_service
                                line_latency = (config.dram_latency
                                                + topo.hop_latency)
                            elif line_latency < config.dram_latency:
                                line_latency = config.dram_latency
                    l1.install(seg, cursor + line_latency, sector=sector)
                    metrics.prefetch_issues += 1
                    cost += issue
        return cost


class _SoloSource:
    """One kernel on the whole GPU: what both solo sources share."""

    def __init__(self, sim, kernel, plan, metrics, l2, record_per_cta):
        self.num_sms = sim.config.num_sms
        self.launches = ((kernel, plan, metrics),)
        self.record_per_cta = record_per_cta
        self.kernel, self.plan, self.metrics, self.l2 = \
            kernel, plan, metrics, l2

    def wave_done(self, sm):
        pass


class _SchedulerSource(_SoloSource):
    """The hardware scheduler: every SM asks for a full wave per visit."""

    def __init__(self, sim, kernel, plan, metrics, l2, record_per_cta,
                 seed):
        super().__init__(sim, kernel, plan, metrics, l2, record_per_cta)
        self.capacity = max_ctas_per_sm(sim.config, kernel)
        self.state = sim.scheduler.start(kernel.n_ctas, self.num_sms,
                                         self.capacity, seed)
        self.tail_quota = None

    def starts(self):
        return [(0.0, sm) for sm in range(self.num_sms)]

    def next_wave(self, sm):
        capacity, num_sms = self.capacity, self.num_sms
        # Hardware dispatch trickles CTA by CTA, so the final turnaround
        # spreads the leftover CTAs evenly instead of letting the first
        # SMs grab whole waves; the quota is frozen once on entry to the
        # tail region to avoid progressive starvation.
        if self.tail_quota is None \
                and self.state.remaining() <= num_sms * capacity:
            # Fair share of the whole grid minus what each SM already
            # ran, so totals equalize.
            base, extra = divmod(self.kernel.n_ctas, num_sms)
            ran = self.metrics.ctas_per_sm
            self.tail_quota = [
                max(0, base + (1 if i < extra else 0) - ran[i])
                for i in range(num_sms)]
        quota = self.tail_quota
        # At least one CTA per visit: once an SM exhausts its quota it
        # keeps trickling at CTA granularity, exactly like per-retire
        # hardware dispatch.
        take = capacity if quota is None \
            else max(1, min(capacity, quota[sm]))
        positions = self.state.take(sm, take)
        if quota is not None:
            quota[sm] -= len(positions)
        resolve = self.plan.resolve
        return (take, [resolve(u) for u in positions], self.kernel,
                self.plan, self.metrics, self.l2, 0.0, None)


class _AgentSource(_SoloSource):
    """Persistent agents draining each SM's ordered task list."""

    def __init__(self, sim, kernel, plan, metrics, l2, record_per_cta):
        super().__init__(sim, kernel, plan, metrics, l2, record_per_cta)
        self.queues = [deque(tasks) for tasks in plan.sm_tasks]

    def starts(self):
        # Binding the agents delays each busy SM's first wave.
        bind = self.plan.agent_bind_overhead
        heap = []
        for sm in range(self.num_sms):
            if self.queues[sm]:
                self.metrics.overhead_cycles += bind
                heap.append((bind, sm))
        return heap

    def next_wave(self, sm):
        queue = self.queues[sm]
        if not queue:
            return None
        plan = self.plan
        agents = plan.active_agents
        wave = [queue.popleft() for _ in range(min(agents, len(queue)))]
        # prefetch the head of each agent's next task (Section 4.3-III)
        prefetch = (list(queue)[:len(wave)] if plan.prefetch_depth > 0
                    else None)
        return (agents, wave, self.kernel, plan, self.metrics, self.l2,
                0.0, prefetch)


def simulate(gpu, kernel: KernelSpec, plan: ExecutionPlan = None, *,
             seed: int = 0, warmups: int = 1,
             record_per_cta: bool = False, tracer=None,
             caches=None, fast: bool = None) -> KernelMetrics:
    """The single measurement entry point.

    Runs ``warmups`` warm-up launches with preserved cache contents,
    then measures — the paper's average-of-multiple-runs methodology
    (on real hardware the L2 survives between launches, so measured
    runs see a warm memory hierarchy).  ``warmups=0`` is a single cold
    launch.  Each warm-up uses a distinct scheduler seed
    (``seed + i``); the measurement uses ``seed + warmups``, so a given
    ``(seed, warmups)`` pair is fully deterministic.

    ``gpu`` may be a :class:`~repro.gpu.config.GpuConfig` or an
    already-constructed :class:`GpuSimulator` (to keep custom
    scheduler/timing knobs).  ``tracer`` observes the *measured*
    launch only — warm-ups stay untraced so profiles describe the run
    the returned metrics describe.

    Without ``caches``, a call (like :meth:`GpuSimulator.run`) starts
    cold on the process pool's pair for the platform's cache geometry
    (a fresh one the first time), and resets and parks the pair again
    when it finishes.  A simulator built here from a config draws from
    the same pool as a caller's, so a job that builds its own
    simulator still reuses the last job's pair.  A reset pair is
    indistinguishable from a fresh one, so this only saves
    allocations.

    ``fast`` selects the simulation core: ``True`` (the process
    default) runs the flat-array fast path of
    :mod:`repro.gpu.fastpath`, ``False`` the dict-based reference
    models of :mod:`repro.gpu.refmodel`.  The two are bit-identical —
    the differential harness proves it on every CI run — so the flag
    only ever changes wall-clock time, never a result.
    """
    if isinstance(gpu, GpuSimulator):
        simulator = gpu
        if fast is not None and bool(fast) != simulator.fast:
            simulator = GpuSimulator(
                simulator.config, scheduler=simulator.scheduler,
                hiding_cap=simulator.hiding_cap,
                l1_enabled=simulator.l1_enabled,
                join_stagger=simulator.join_stagger,
                tracer=simulator.tracer, fast=fast)
    else:
        simulator = GpuSimulator(gpu, fast=fast)
    if warmups < 0:
        raise ValueError(f"warmups must be >= 0, got {warmups}")
    recycle = caches is None
    if recycle:
        caches = simulator.take_caches()
    for i in range(warmups):
        simulator.run(kernel, plan, seed=seed + i, caches=caches)
    metrics = simulator.run(kernel, plan, record_per_cta=record_per_cta,
                            seed=seed + warmups, caches=caches,
                            tracer=tracer)
    if recycle:
        simulator.park_caches(caches)
    return metrics

