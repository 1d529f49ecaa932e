"""Closed-form analytical locality model — fidelity rung 0.

Predicts per-scheme L1/L2 hit rates and a calibrated cycle estimate
directly from the compiled access streams, using reuse-distance
histograms and inter-CTA footprint overlap computed over the cluster
map — no wave-by-wave simulation.  This is the chiplet-GPU papers'
move (get design-space answers from an analytical locality estimator,
keep the cycle simulator for final validation) applied to the paper's
clustering space.

How it works
------------
The model reconstructs the same *co-residency structure* the simulator
would create — which CTAs share an SM's L1 at the same time, under the
plan's cluster map ``f : N -> C`` and the platform's occupancy limit —
but replaces the per-access cache walk with three pieces of
closed-form math per co-resident group:

* **Self temporal reuse**: each CTA's read stream is profiled *once*
  (memoized per kernel) into an LRU stack-distance histogram over L1
  lines.  Chunk-round-robin interleaving with ``m`` co-resident CTAs
  inflates a reuse distance ``d`` to about ``d * m``, so a touch hits
  iff ``d * m <= C`` (the sector's line capacity).
* **Inter-CTA footprint overlap**: within a group, the first touches
  of lines already brought in by a co-resident CTA hit instead of
  missing — exactly ``sum(|D_v|) - |union(D_v)|`` touches, damped by
  the survival probability ``min(1, C / |union|)`` when the combined
  footprint exceeds the cache.  This term is where clustering shows
  up: a good cluster map makes the union small and the overlap large.
* **L2 / DRAM**: L1 misses (plus write-through and bypassed streams)
  become L2 transactions; the kernel-wide distinct-line footprint,
  estimated from the sampled CTAs' dedup ratio, splits them into cold
  misses and capacity misses against the shared L2.

Cycle estimates reuse the simulator's own timing identity —
``alu + latency / hiding + service`` per access, latency-hiding capped
by MLP — evaluated on the modeled hit/miss mix, then mapped through a
per-architecture power-law calibration (``analytic_calibration.json``,
refreshed by ``scripts/calibrate_analytic.py``) fitted against the
fast-path simulator across the workload registry.

When to trust it: rung-0 answers *rank* configurations of the same
kernel reliably (that is what the acceptance suite asserts); absolute
cycle counts are calibrated approximations and hit rates ignore
reserved-hit timing, scheduler noise and warm-up effects.  Anything
that feeds a leaderboard or a paper table should climb to the
simulated rungs.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.gpu.config import GpuConfig
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan, baseline_plan
from repro.gpu.scheduler import DEFAULT_SCHEDULER
from repro.kernels.kernel import KernelSpec

#: Sampled SMs per estimate (first / middle / last of the busy set).
SAMPLE_SMS = 3

#: Consecutive waves sampled per sampled SM (consecutive so prefetch
#: warming and cross-wave L1 survival stay visible to the model).
SAMPLE_WAVES = 2

#: Default latency-hiding cap, mirroring :class:`GpuSimulator`.
DEFAULT_HIDING_CAP = 14.0

#: Calibration coefficients live next to the code so estimates are
#: reproducible from a checkout alone.
CALIBRATION_FILE = os.path.join(os.path.dirname(__file__),
                                "analytic_calibration.json")


@dataclass(frozen=True)
class AnalyticEstimate:
    """Rung-0 prediction for one (kernel, platform, plan) triple.

    Field names deliberately mirror the ``KernelMetrics`` properties
    the tuner objectives and the observability layer read (``cycles``,
    ``l1_hit_rate``, ``l2_transactions``, ``dram_transactions``,
    ``sm_cycles``), so an estimate slots in wherever a metrics record
    is scored.  ``raw_cycles`` is the uncalibrated model output;
    ``cycles`` has the per-architecture calibration applied (they are
    equal when no calibration entry exists for the architecture).
    """

    gpu_name: str
    kernel_name: str
    scheme: str
    cycles: float
    raw_cycles: float
    l1_hit_rate: float
    l2_hit_rate: float
    l2_transactions: int
    dram_transactions: int
    warp_accesses: int
    ctas_total: int
    ctas_sampled: int
    sample_fraction: float
    calibrated: bool
    fidelity: str = "analytic"
    sm_cycles: tuple = ()
    #: Chiplet count of the modeled package (1 = flat die) and the
    #: modeled NUMA split; all defaulted so flat-die estimates (and
    #: any code unpacking them) are unchanged.
    chiplets: int = 1
    dram_remote_transactions: int = 0
    remote_traffic_fraction: float = 0.0


# ----------------------------------------------------------------------
# per-CTA locality profiles (memoized per kernel)
# ----------------------------------------------------------------------


@dataclass
class _CtaProfile:
    """Reuse-distance + footprint summary of one CTA's access stream.

    ``hist`` is the sorted list of finite LRU stack distances (in L1
    lines) of the CTA's cached-read touches; cold first touches are
    exactly ``len(lines)``.  The ``_ns`` variants exclude streaming
    reads — the view a bypassing plan sees.
    """

    ops: int = 0                      # warp accesses, all kinds
    read_ops: int = 0
    touches: int = 0                  # L1-granularity read touches
    lines: frozenset = frozenset()    # distinct L1 lines read
    hist: list = field(default_factory=list)
    touches_ns: int = 0
    lines_ns: frozenset = frozenset()
    hist_ns: list = field(default_factory=list)
    stream_ops: int = 0
    stream_l2: int = 0                # L2 transactions if streams bypass
    write_l2: int = 0                 # write-through L2 transactions
    l2_lines: frozenset = frozenset()  # distinct L2 lines, all traffic
    head_lines: dict = field(default_factory=dict)
    #: (block_bytes, chiplets) -> count of ``l2_lines`` per owning
    #: chiplet (see :func:`_owned_lines`).
    owned: dict = field(default_factory=dict)


_PROFILE_CACHE: dict = {}
_PROFILE_CACHE_CAP = 64


def _profiles_for(kernel: KernelSpec, l1_line: int, l2_line: int) -> dict:
    # KernelSpec is not hashable; keying on identity is safe because
    # workload factories memoize kernels per (scale, arch), so the same
    # object serves every scheme/point of a study.  The name/size salt
    # guards against id reuse after a kernel is garbage-collected.
    key = (id(kernel), kernel.name, kernel.n_ctas, l1_line, l2_line)
    table = _PROFILE_CACHE.get(key)
    if table is None:
        if len(_PROFILE_CACHE) >= _PROFILE_CACHE_CAP:
            _PROFILE_CACHE.clear()
        table = {}
        _PROFILE_CACHE[key] = table
    return table


def _stack_distances(sequence) -> "tuple[list, frozenset]":
    """LRU stack distances of a line-number sequence.

    Returns the sorted finite distances (one per reuse touch) and the
    distinct-line set (whose size is the cold-touch count).
    """
    stack: list = []
    distances: list = []
    for line in sequence:
        try:
            idx = stack.index(line)
        except ValueError:
            stack.append(line)
            continue
        distances.append(len(stack) - 1 - idx)
        del stack[idx]
        stack.append(line)
    distances.sort()
    return distances, frozenset(stack)


def _profile_cta(kernel: KernelSpec, cta_id: int, l1_line: int,
                 l2_line: int) -> _CtaProfile:
    table = _profiles_for(kernel, l1_line, l2_line)
    profile = table.get(cta_id)
    if profile is not None:
        return profile
    ops = kernel.compiled_trace(cta_id, l1_line, l2_line)
    profile = _CtaProfile(ops=len(ops))
    seq, seq_ns = [], []
    l2_touched = set()
    for is_write, is_stream, l1_ops, l2_lines in ops:
        if is_write:
            profile.write_l2 += len(l2_lines)
            l2_touched.update(l2_lines)
            continue
        profile.read_ops += 1
        if is_stream:
            profile.stream_ops += 1
            profile.stream_l2 += len(l2_lines)
        for line, subs in l1_ops:
            profile.touches += 1
            seq.append(line)
            l2_touched.update(subs)
            if not is_stream:
                profile.touches_ns += 1
                seq_ns.append(line)
    profile.hist, profile.lines = _stack_distances(seq)
    if profile.stream_ops:
        profile.hist_ns, profile.lines_ns = _stack_distances(seq_ns)
    else:
        profile.hist_ns, profile.lines_ns = profile.hist, profile.lines
    profile.l2_lines = frozenset(l2_touched)
    table[cta_id] = profile
    return profile


def _head_lines(kernel: KernelSpec, profile: _CtaProfile, cta_id: int,
                depth: int, l1_line: int, l2_line: int) -> frozenset:
    """Distinct L1 lines in a CTA's first ``depth`` read accesses."""
    lines = profile.head_lines.get(depth)
    if lines is None:
        ops = kernel.compiled_trace(cta_id, l1_line, l2_line)
        touched = set()
        for is_write, _is_stream, l1_ops, _l2 in ops[:depth]:
            if is_write:
                continue
            touched.update(line for line, _subs in l1_ops)
        lines = frozenset(touched)
        profile.head_lines[depth] = lines
    return lines


def _owned_lines(profile: _CtaProfile, topo, l2_line: int) -> tuple:
    """Per-chiplet counts of a CTA's distinct L2 lines, memoized on
    its profile (whose table is already per line geometry)."""
    key = (topo.block_bytes, topo.chiplets)
    owned = profile.owned.get(key)
    if owned is None:
        owned = tuple(map(len, topo.owner_split(profile.l2_lines, l2_line)))
        profile.owned[key] = owned
    return owned


# ----------------------------------------------------------------------
# wave / co-residency reconstruction
# ----------------------------------------------------------------------


def _scheduled_waves(kernel: KernelSpec, plan: ExecutionPlan,
                     config: GpuConfig, seed: int):
    """Per-SM wave lists of *original* CTA ids under the default
    GigaThread model, with the simulator's fair-tail dispatch."""
    capacity = max_ctas_per_sm(config, kernel)
    n, sms = kernel.n_ctas, config.num_sms
    state = DEFAULT_SCHEDULER.start(n, sms, capacity, seed)
    base, extra = divmod(n, sms)
    target = [base + (1 if i < extra else 0) for i in range(sms)]
    counts = [0] * sms
    waves = [[] for _ in range(sms)]
    tail = False
    while state.remaining():
        progressed = False
        for sm in range(sms):
            if not state.remaining():
                break
            if not tail and state.remaining() <= sms * capacity:
                tail = True
            take = capacity if not tail else max(
                1, min(capacity, target[sm] - counts[sm]))
            positions = state.take(sm, take)
            if not positions:
                continue
            progressed = True
            counts[sm] += len(positions)
            waves[sm].append([plan.resolve(u) for u in positions])
        if not progressed:  # defensive: never spin on a stuck state
            break
    return waves, counts


def _placed_waves(plan: ExecutionPlan, config: GpuConfig):
    agents = max(1, plan.active_agents)
    waves = [[] for _ in range(config.num_sms)]
    counts = [0] * config.num_sms
    for sm, tasks in enumerate(plan.sm_tasks or ()):
        if sm >= config.num_sms:
            break
        tasks = list(tasks)
        counts[sm] = len(tasks)
        for start in range(0, len(tasks), agents):
            waves[sm].append(tasks[start:start + agents])
    return waves, counts


def _sample(waves) -> "list[tuple[int, int, list]]":
    """(sm, wave_index, cta_ids) for the sampled co-residency groups."""
    busy = [sm for sm, w in enumerate(waves) if w]
    if not busy:
        return []
    picks = sorted({busy[0], busy[len(busy) // 2], busy[-1]})[:SAMPLE_SMS]
    sampled = []
    for sm in picks:
        for index, wave in enumerate(waves[sm][:SAMPLE_WAVES]):
            sampled.append((sm, index, wave))
    return sampled


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------


def _group_hits(profiles, capacity: int, carried: frozenset,
                prefetched: frozenset) -> "tuple[float, int, set]":
    """Closed-form hit count for one co-resident sector group.

    ``carried`` are lines plausibly still resident from the SM's
    previous wave (cross-wave L1 survival); ``prefetched`` are lines
    the agents preloaded.  Returns ``(hits, touches, union)``.
    """
    m = len(profiles)
    if m == 0:
        return 0.0, 0, set()
    touches = sum(p[0] for p in profiles)
    union: set = set()
    distinct_sum = 0
    hits = 0.0
    threshold = capacity / m
    for p_touches, lines, hist in profiles:
        # self temporal reuse under m-way interleave inflation
        hits += bisect_right(hist, threshold)
        distinct_sum += len(lines)
        union |= lines
    survive = min(1.0, capacity / len(union)) if union else 1.0
    # inter-CTA overlap: duplicate first touches become hits
    hits += (distinct_sum - len(union)) * survive
    # lines already resident (prefetch or previous-wave survivors)
    warmed = (prefetched | carried) & union
    if warmed:
        hits += len(warmed) * survive
    return min(float(touches), hits), touches, union


def estimate(gpu: GpuConfig, kernel: KernelSpec,
             plan: ExecutionPlan = None, *, seed: int = 0,
             warmups: int = 1, calibrated: bool = True,
             hiding_cap: float = DEFAULT_HIDING_CAP) -> AnalyticEstimate:
    """Predict metrics for one launch without simulating it.

    Mirrors :func:`repro.gpu.simulator.simulate`'s signature where it
    can: ``seed`` feeds the modeled dispatch order, and ``warmups``
    selects the memory-hierarchy temperature — any positive value
    models the simulator's warmed-up steady state (a preserved L2, no
    cold misses for data that fits), ``0`` models a single cold
    launch.  The exact warm-up count does not matter to a closed-form
    model; whether there was one does.
    """
    plan = plan if plan is not None else baseline_plan()
    config = gpu
    topo = config.topology
    if topo is not None and topo.is_trivial:
        topo = None
    l1_line, l2_line = config.l1_line, config.l2_line
    sub_per_line = config.l2_transactions_per_l1_miss
    sectors = max(1, config.l1_sectors)
    sector_capacity = max(1, (config.l1_size // l1_line) // sectors)
    bypass = plan.bypass_streams

    if plan.mode == "scheduled":
        waves, counts = _scheduled_waves(kernel, plan, config,
                                         seed + max(0, warmups))
    else:
        waves, counts = _placed_waves(plan, config)
    sampled = _sample(waves)
    busiest = max(counts) if counts else 0

    # ---- phase 1: locality over the sampled co-residency groups ----
    total_touches = 0
    total_hits = 0.0
    total_ops = 0
    read_ops = 0
    stream_ops = 0
    l2_reads = 0.0
    l2_writes = 0
    prefetch_lines_total = 0
    wave_shapes = []  # (n_ctas, ops, read_ops, stream_ops, hits,
    #                    touches, l2_reads, l2_writes, pf_lines)
    sampled_ids: set = set()
    l2_distinct_sum = 0
    l2_union: set = set()
    carried_by_sm: dict = {}
    # Distinct-L2-line NUMA affinity over the sampled waves: the share
    # of each CTA's footprint owned by a chiplet other than the one
    # running its SM.  This is what makes rung 0 placement-aware — the
    # same plan on a different SM changes ``home`` and hence the price.
    numa_lines = 0
    numa_remote = 0

    for sm, wave_index, cta_ids in sampled:
        n = len(cta_ids)
        if n == 0:
            continue
        profiles = [_profile_cta(kernel, v, l1_line, l2_line)
                    for v in cta_ids]
        if topo is not None:
            home = topo.chiplet_of_sm(sm, config.num_sms)
            for p in profiles:
                numa_lines += len(p.l2_lines)
                numa_remote += len(p.l2_lines) \
                    - _owned_lines(p, topo, l2_line)[home]
        for v, p in zip(cta_ids, profiles):
            if v not in sampled_ids:
                sampled_ids.add(v)
                l2_distinct_sum += len(p.l2_lines)
                l2_union |= p.l2_lines

        prefetched: frozenset = frozenset()
        pf_lines = 0
        if plan.mode == "placed" and plan.prefetch_depth > 0 and wave_index:
            # agents prefetched the head of *this* wave's tasks while
            # finishing the previous one
            warm = set()
            for v, p in zip(cta_ids, profiles):
                warm |= _head_lines(kernel, p, v, plan.prefetch_depth,
                                    l1_line, l2_line)
            prefetched = frozenset(warm)
            pf_lines = len(prefetched)

        carried = carried_by_sm.get(sm, frozenset())
        groups: dict = {}
        for slot, p in enumerate(profiles):
            sector = (slot * sectors) // n
            if bypass and p.stream_ops:
                groups.setdefault(sector, []).append(
                    (p.touches_ns, p.lines_ns, p.hist_ns))
            else:
                groups.setdefault(sector, []).append(
                    (p.touches, p.lines, p.hist))

        wave_hits = 0.0
        wave_touches = 0
        wave_union: set = set()
        for sector, members in groups.items():
            hits, touches, union = _group_hits(
                members, sector_capacity, carried, prefetched)
            wave_hits += hits
            wave_touches += touches
            wave_union |= union
        carried_by_sm[sm] = frozenset(wave_union) \
            if len(wave_union) <= sector_capacity * sectors else frozenset()

        misses = max(0.0, wave_touches - wave_hits)
        wave_l2_reads = (misses + pf_lines) * sub_per_line
        wave_stream_ops = 0
        if bypass:
            streamed = sum(p.stream_l2 for p in profiles)
            wave_l2_reads += streamed
            wave_stream_ops = sum(p.stream_ops for p in profiles)
        wave_l2_writes = sum(p.write_l2 for p in profiles)
        wave_ops = sum(p.ops for p in profiles)
        wave_read_ops = sum(p.read_ops for p in profiles)

        total_touches += wave_touches
        total_hits += wave_hits
        total_ops += wave_ops
        read_ops += wave_read_ops
        stream_ops += wave_stream_ops
        l2_reads += wave_l2_reads
        l2_writes += wave_l2_writes
        prefetch_lines_total += pf_lines
        wave_shapes.append((n, wave_ops, wave_read_ops, wave_stream_ops,
                            wave_hits, wave_touches, wave_l2_reads,
                            wave_l2_writes, pf_lines))

    n_total = kernel.n_ctas
    n_sampled = len(sampled_ids)
    if n_sampled == 0 or total_ops == 0:
        return AnalyticEstimate(
            gpu_name=config.name, kernel_name=kernel.name,
            scheme=plan.scheme, cycles=0.0, raw_cycles=0.0,
            l1_hit_rate=0.0, l2_hit_rate=0.0, l2_transactions=0,
            dram_transactions=0, warp_accesses=0, ctas_total=n_total,
            ctas_sampled=0, sample_fraction=0.0, calibrated=False)
    grid_scale = n_total / n_sampled

    # ---- phase 2: shared-L2 / DRAM split from footprint math ----
    l2_traffic = (l2_reads + l2_writes) * grid_scale
    dedup = len(l2_union) / l2_distinct_sum if l2_distinct_sum else 1.0
    mean_distinct = l2_distinct_sum / n_sampled
    footprint = max(float(len(l2_union)),
                    dedup * mean_distinct * n_total)
    capacity_l2 = max(1, config.l2_size // l2_line)
    survive_l2 = min(1.0, capacity_l2 / footprint) if footprint else 1.0
    if warmups > 0:
        # Warm memory hierarchy (the simulator's measured launch runs
        # after warm-ups with a preserved L2): lines that fit stay
        # resident across launches, so only the non-fitting fraction
        # keeps missing — there are no cold misses left to pay.
        dram = l2_traffic * (1.0 - survive_l2)
    else:
        cold = min(l2_traffic, footprint)
        dram = cold + max(0.0, l2_traffic - cold) * (1.0 - survive_l2)
    p_l2_hit = 1.0 - (dram / l2_traffic) if l2_traffic else 0.0

    # Interposer-hop pricing (rung-0 NUMA model): a DRAM fill crosses
    # the interposer with probability ``remote_frac``, stretching the
    # expected fill latency and adding hop arbitration per remote
    # transaction.  Flat dies take the historical expressions verbatim.
    remote_frac = 0.0
    if topo is not None and numa_lines:
        remote_frac = numa_remote / numa_lines
    dram_fill = config.dram_latency
    dram_service = config.dram_service_cycles
    if topo is not None:
        dram_fill += remote_frac * topo.hop_latency
        dram_service += remote_frac * topo.hop_service

    # expected fill latencies under the modeled L2 hit probability
    line_latency = (config.l2_latency
                    + (1.0 - p_l2_hit ** sub_per_line)
                    * (dram_fill - config.l2_latency))
    bypass_latency = (config.l2_latency
                      + (1.0 - p_l2_hit)
                      * (dram_fill - config.l2_latency))

    # ---- phase 3: cycle assembly per sampled wave ----
    alu_step = kernel.compute_cycles_per_access / config.issue_width
    issue = config.costs.prefetch_issue_cycles / config.issue_width
    total_cost = 0.0
    sampled_wave_ctas = 0
    for (n, ops, r_ops, s_ops, hits, touches, w_l2_reads, w_l2_writes,
         pf_lines) in wave_shapes:
        hiding = max(1.0, min(n * kernel.warps_per_cta
                              * config.mlp_per_warp, hiding_cap))
        misses = max(0.0, touches - hits)
        # The simulator charges each read *access* the worst latency
        # over its L1 segments, not one latency per segment — so model
        # a per-op miss probability from the touch-level miss rate and
        # the mean segments-per-op fan-out.
        cached_ops = max(0, r_ops - s_ops)
        latency = s_ops * bypass_latency
        if cached_ops and touches:
            p_touch_miss = min(1.0, misses / touches)
            fanout = touches / cached_ops
            p_op_miss = 1.0 - (1.0 - p_touch_miss) ** fanout
            latency += cached_ops * (
                config.l1_latency
                + p_op_miss * (line_latency - config.l1_latency))
        transactions = w_l2_reads + w_l2_writes
        service = (transactions * config.l2_service_cycles
                   + transactions * (1.0 - p_l2_hit)
                   * dram_service)
        fixed = kernel.fixed_compute_cycles * n / config.issue_width
        total_cost += (ops * alu_step + latency / hiding + service
                       + fixed + pf_lines * issue)
        sampled_wave_ctas += n

    mean_cta_cost = total_cost / sampled_wave_ctas
    raw = mean_cta_cost * busiest
    if plan.mode == "scheduled":
        raw += plan.per_cta_overhead * busiest
    else:
        raw += plan.agent_bind_overhead + plan.per_task_overhead * busiest
    raw = max(raw, 1.0)

    cycles, applied = raw, False
    if calibrated:
        coeffs = _calibration().get(config.architecture.value)
        if coeffs:
            # Workload-class fit when one exists, else the arch-wide
            # fit (class fits are refinements; a class the fitter had
            # too few points for falls back rather than degrading).
            fit = coeffs.get("classes", {}).get(
                kernel.category.value, coeffs)
            cycles = math.exp(fit["b"]) * raw ** fit["a"]
            applied = True

    return AnalyticEstimate(
        gpu_name=config.name,
        kernel_name=kernel.name,
        scheme=plan.scheme,
        cycles=cycles,
        raw_cycles=raw,
        l1_hit_rate=(total_hits / total_touches) if total_touches else 0.0,
        l2_hit_rate=p_l2_hit,
        l2_transactions=int(round(l2_traffic)),
        dram_transactions=int(round(dram)),
        warp_accesses=int(round(total_ops * grid_scale)),
        ctas_total=n_total,
        ctas_sampled=n_sampled,
        sample_fraction=n_sampled / n_total if n_total else 0.0,
        calibrated=applied,
        chiplets=topo.chiplets if topo is not None else 1,
        dram_remote_transactions=int(round(dram * remote_frac)),
        remote_traffic_fraction=remote_frac if dram else 0.0,
    )


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

_CALIBRATION_CACHE = None


def _calibration() -> dict:
    global _CALIBRATION_CACHE
    if _CALIBRATION_CACHE is None:
        _CALIBRATION_CACHE = load_calibration()
    return _CALIBRATION_CACHE


def _valid_fit(entry) -> bool:
    return isinstance(entry, dict) and "a" in entry and "b" in entry


def load_calibration(path: str = None) -> dict:
    """Per-architecture power-law coefficients, ``{arch: {a, b}}``.

    An architecture entry may carry a ``"classes"`` sub-mapping of
    per-workload-class refinement fits (keyed by
    :class:`~repro.kernels.LocalityCategory` values); malformed class
    entries are dropped individually, leaving the arch-wide fallback
    intact.  Missing or unreadable files yield ``{}`` — estimates then
    report ``calibrated=False`` and ``cycles == raw_cycles``.
    """
    path = path or CALIBRATION_FILE
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return {}
    coefficients = document.get("coefficients", {})
    loaded = {}
    for arch, entry in coefficients.items():
        if not _valid_fit(entry):
            continue
        entry = dict(entry)
        classes = entry.get("classes")
        if isinstance(classes, dict):
            entry["classes"] = {name: fit for name, fit in classes.items()
                                if _valid_fit(fit)}
        else:
            entry.pop("classes", None)
        loaded[arch] = entry
    return loaded


def reload_calibration(path: str = None) -> dict:
    """Drop the cached coefficients and reload (used after a refresh)."""
    global _CALIBRATION_CACHE
    _CALIBRATION_CACHE = load_calibration(path)
    return _CALIBRATION_CACHE


def fit_power_law(raw_values, simulated_values) -> "dict | None":
    """Least-squares fit of ``ln(sim) = a * ln(raw) + b``.

    The log-space straight line keeps calibration monotone (so it can
    never change a ranking) while correcting the model's absolute
    scale and its compression/expansion of dynamic range.  Returns
    ``None`` when the inputs cannot support a fit.
    """
    points = [(math.log(r), math.log(s))
              for r, s in zip(raw_values, simulated_values)
              if r > 0 and s > 0]
    if len(points) < 2:
        return None
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if abs(denom) < 1e-12:
        return None
    a = (n * sxy - sx * sy) / denom
    if a <= 0:  # a non-increasing fit would invert rankings; refuse
        return None
    b = (sy - a * sx) / n
    residuals = [y - (a * x + b) for x, y in points]
    rmse = math.sqrt(sum(r * r for r in residuals) / n)
    return {"a": round(a, 6), "b": round(b, 6),
            "points": n, "log_rmse": round(rmse, 4)}
