"""Fast-path cache models and the compiled-stream wave executor.

This module is the production hot path of the simulator.  It exists to
make sweeps fast while staying **bit-identical** to the reference
models in :mod:`repro.gpu.refmodel` — every counter exact, every float
produced by the same arithmetic in the same order.  The differential
harness in ``tests/differential/`` fuzzes that equivalence on every CI
run; if you change behaviour here, change the reference model too (or
you will find out within one pytest run).

Where the speed comes from:

* **Flat, integer-tag cache sets.**  Each set is a pair of parallel
  Python lists (``tags``/``ready``) kept in exactly the recency order
  the reference model's ordered dict maintains, so lookups are C-level
  ``list.index`` scans over at most ``assoc`` machine ints and LRU
  touches are C-level ``del``/``append`` — no per-access dict or deque
  churn, no hashing, no boxed keys surviving beyond the set.

* **Precompiled access streams.**  The reference path re-coalesces
  every warp access into L1 segments and L2 sub-transactions on every
  wave of every launch.  The fast path compiles a CTA's trace once per
  ``(l1_line, l2_line)`` geometry into flat op tuples (see
  :func:`repro.kernels.access.compile_trace`) that are memoized and
  interned on the :class:`~repro.kernels.kernel.KernelSpec`, so the
  coalescer runs once per CTA per cache geometry for a whole sweep —
  across warm-ups, schemes, plans and platforms that share it.

* **Memoized chunk schedules.**  The interleave order of a wave is a
  pure function of the co-resident trace lengths (plus the interleave
  chunk and join stagger), so the round-robin bookkeeping — who runs
  next, how many ops, when the next CTA joins — is computed once per
  distinct length tuple by :func:`_chunk_schedule` and replayed as a
  flat ``(slot, start, stop)`` chunk list.  Full waves of a kernel
  share one schedule across every launch of a sweep.

* **A fused wave loop.**  :func:`execute_wave` inlines the L1/L2
  access logic into the schedule replay: bound methods, config scalars
  and stats counters all live in locals, compiled ops are indexed
  directly (no per-chunk slicing), and counters are flushed to the
  metrics/stat objects once per wave.
"""

from __future__ import annotations

from repro.gpu.refmodel import CacheStats
from repro.gpu.config import WritePolicy

#: Same LCG as the reference model's pseudo-random replacement.
_LCG_MUL = 1103515245
_LCG_ADD = 12345
_LCG_MASK = 0xFFFFFFFF

#: Chunk-schedule memo: (lengths, interleave, join_stagger) -> chunks.
#: Bounded; cleared wholesale when full.
_SCHEDULES: dict = {}
_SCHEDULES_CAP = 1024


class FastSetAssociativeCache:
    """Flat-array twin of :class:`repro.gpu.refmodel.SetAssociativeCache`.

    Each set is a pair of parallel lists, ``tags`` and ``ready``,
    maintained in the reference model's dict-key order (insertion
    order, with LRU touches moving a line to the back).  That ordering
    is what makes the two models bit-identical: the LRU victim is
    ``tags[0]`` exactly when the reference evicts its first dict key,
    and the pseudo-random victim at position ``k`` names the same line
    in both.
    """

    __slots__ = ("line_size", "n_sets", "assoc", "write_policy",
                 "_tags", "_ready", "stats", "_random_replacement",
                 "_seed", "_rng_state", "_tracer", "_level")

    def __init__(self, size: int, line_size: int, assoc: int,
                 write_policy: WritePolicy = WritePolicy.WRITE_EVICT,
                 random_replacement: bool = False, seed: int = 0x5EED):
        if size % (line_size * assoc) != 0:
            raise ValueError(
                f"cache size {size} not divisible by line*assoc "
                f"({line_size}*{assoc})"
            )
        self.line_size = line_size
        self.n_sets = size // (line_size * assoc)
        self.assoc = assoc
        self.write_policy = write_policy
        self._tags = [[] for _ in range(self.n_sets)]
        self._ready = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self._random_replacement = random_replacement
        self._seed = seed
        self._rng_state = seed & _LCG_MASK
        self._tracer = None
        self._level = "cache"

    def reset(self) -> None:
        """Restore the freshly built state: no lines, zeroed counters,
        the replacement LCG re-seeded, no tracer.  The per-set lists
        are cleared in place, so a recycled cache allocates nothing."""
        self.flush()
        self.stats = CacheStats()
        self._rng_state = self._seed & _LCG_MASK
        self._tracer = None
        self._level = "cache"

    def set_tracer(self, tracer, level: str = None) -> None:
        """Attach (or with ``None`` detach) an event tracer."""
        self._tracer = tracer
        if level is not None:
            self._level = level

    def _victim_index(self, tags) -> int:
        """Index of the line to evict from a full set."""
        if not self._random_replacement:
            return 0  # LRU: front of the recency order
        self._rng_state = (self._rng_state * _LCG_MUL + _LCG_ADD) & _LCG_MASK
        return (self._rng_state >> 16) % len(tags)

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False) -> "tuple[bool, float]":
        """Access one line; same contract as the reference model."""
        stats = self.stats
        stats.accesses += 1
        line = addr // self.line_size
        index = line % self.n_sets
        tags = self._tags[index]
        ready_list = self._ready[index]
        try:
            i = tags.index(line)
        except ValueError:
            i = -1

        if is_write and self.write_policy is WritePolicy.WRITE_EVICT:
            if i >= 0:
                del tags[i]
                del ready_list[i]
                stats.write_evictions += 1
                if self._tracer is not None:
                    self._tracer.cache_event(self._level, "write_eviction",
                                             now)
            stats.misses += 1
            return False, now

        if i >= 0:
            ready = ready_list[i]
            stats.hits += 1
            if not self._random_replacement:
                del tags[i]
                del ready_list[i]
                tags.append(line)
                ready_list.append(ready)  # LRU touch
            if ready > now:
                stats.reserved_hits += 1
                if self._tracer is not None:
                    self._tracer.cache_event(self._level, "reserved_hit",
                                             now)
                return True, ready
            return True, now

        stats.misses += 1
        if self._tracer is not None:
            self._tracer.cache_event(self._level, "miss", now)
        if len(tags) >= self.assoc:
            v = self._victim_index(tags)
            del tags[v]
            del ready_list[v]
            if self._tracer is not None:
                self._tracer.cache_event(self._level, "eviction", now)
        tags.append(line)
        ready_list.append(now + miss_fill_latency)
        return False, now + miss_fill_latency

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident (no LRU touch)."""
        line = addr // self.line_size
        return line in self._tags[line % self.n_sets]

    def install(self, addr: int, ready_at: float) -> None:
        """Install a line without counting an access (prefetch fills)."""
        line = addr // self.line_size
        index = line % self.n_sets
        tags = self._tags[index]
        ready_list = self._ready[index]
        try:
            i = tags.index(line)
        except ValueError:
            i = -1
        if i >= 0:
            del tags[i]
            del ready_list[i]
        elif len(tags) >= self.assoc:
            v = self._victim_index(tags)
            del tags[v]
            del ready_list[v]
            if self._tracer is not None:
                self._tracer.cache_event(self._level, "eviction", ready_at)
        tags.append(line)
        ready_list.append(ready_at)

    def flush(self) -> None:
        """Drop all resident lines (counters are preserved)."""
        # ``filter`` skips the (usually many) empty sets in C.
        for tags in filter(None, self._tags):
            tags.clear()
        for ready_list in filter(None, self._ready):
            ready_list.clear()

    def reset_stats(self) -> None:
        """Zero the counters without disturbing resident lines."""
        self.stats = CacheStats()

    def settle(self) -> None:
        """Mark every pending fill as complete."""
        ready = self._ready
        for i, ready_list in enumerate(ready):
            if ready_list:
                ready[i] = [0.0] * len(ready_list)


class FastSectoredCache:
    """Flat-array twin of :class:`repro.gpu.refmodel.SectoredCache`."""

    def __init__(self, size: int, line_size: int, assoc: int, sectors: int,
                 write_policy: WritePolicy = WritePolicy.WRITE_EVICT):
        if sectors < 1:
            raise ValueError("sectors must be >= 1")
        if size % sectors != 0:
            raise ValueError(f"cache size {size} not divisible into {sectors} sectors")
        self.sectors = sectors
        self._parts = [
            FastSetAssociativeCache(size // sectors, line_size, assoc,
                                    write_policy)
            for _ in range(sectors)
        ]
        self.line_size = line_size

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False, sector: int = 0) -> "tuple[bool, float]":
        part = self._parts[sector % self.sectors]
        return part.access(addr, now, miss_fill_latency, is_write)

    def install(self, addr: int, ready_at: float, sector: int = 0) -> None:
        self._parts[sector % self.sectors].install(addr, ready_at)

    def contains(self, addr: int, sector: int = 0) -> bool:
        return self._parts[sector % self.sectors].contains(addr)

    def set_tracer(self, tracer, level: str = None) -> None:
        for part in self._parts:
            part.set_tracer(tracer, level)

    def reset(self) -> None:
        for part in self._parts:
            part.reset()

    def flush(self) -> None:
        for part in self._parts:
            part.flush()

    def reset_stats(self) -> None:
        for part in self._parts:
            part.reset_stats()

    def settle(self) -> None:
        for part in self._parts:
            part.settle()

    @property
    def stats(self) -> CacheStats:
        total = CacheStats()
        for part in self._parts:
            total.merge(part.stats)
        return total


def is_fast_caches(l1s, l2) -> bool:
    """Whether a ``(l1s, l2)`` cache pair can take the fused wave loop."""
    return (isinstance(l2, FastSetAssociativeCache)
            and all(isinstance(l1, FastSectoredCache) for l1 in l1s))


def _chunk_schedule(lengths: tuple, interleave: int,
                    join_stagger: int) -> "list[tuple[int, int, int]]":
    """Replay the interleave bookkeeping into a flat chunk list.

    Round-robin over the active slots, ``interleave`` ops per turn,
    with one more CTA joining once ``join_stagger`` ops have issued
    since the last join (or when every active slot is drained) — the
    reference executor's loop minus the cache work.  The resulting
    ``(slot, start, stop)`` chunks visit ops in the identical order,
    so replaying a memoized schedule is arithmetic-order-neutral.
    """
    n = len(lengths)
    indices = [0] * n
    remaining = sum(lengths)
    chunks = []
    active = 1
    since_join = 0
    while remaining:
        progressed = False
        for slot in range(active):
            i = indices[slot]
            length = lengths[slot]
            if i >= length:
                continue
            progressed = True
            stop = i + interleave
            if stop > length:
                stop = length
            chunks.append((slot, i, stop))
            indices[slot] = stop
            remaining -= stop - i
            since_join += stop - i
        if active < n and (since_join >= join_stagger or not progressed):
            active += 1
            since_join = 0
    return chunks


def execute_wave(sim, kernel, cta_ids, start, l1, l2, metrics,
                 record_per_cta, sm_id, turnaround, prefetch_targets,
                 plan, tracer=None):
    """Fused twin of ``GpuSimulator._execute_wave``.

    Consumes precompiled access ops (see
    :meth:`repro.kernels.kernel.KernelSpec.compiled_trace`) and inlines
    both cache levels into the replay of the wave's memoized chunk
    schedule (see :func:`_chunk_schedule`).  Arithmetic order is
    identical to the reference executor access by access, so cursors,
    per-CTA cycles and every counter match bit for bit.
    """
    from repro.gpu.metrics import CtaRecord

    config = sim.config
    n = len(cta_ids)
    warps = kernel.warps_per_cta
    resident_warps = n * warps
    hiding = max(1.0, min(resident_warps * config.mlp_per_warp,
                          sim.hiding_cap))
    issue_width = config.issue_width
    alu_step = kernel.compute_cycles_per_access / issue_width
    bypass = plan.bypass_streams
    sectors = config.l1_sectors
    l1_enabled = sim.l1_enabled
    interleave = sim.interleave_chunk
    join_stagger = sim.join_stagger
    reserved_exposure = sim.reserved_exposure

    # --- constants hoisted out of the access loop ---------------------
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    dram_latency = config.dram_latency
    l2_fill = dram_latency - l2_latency
    l2_service = config.l2_service_cycles
    dram_service = config.dram_service_cycles

    # --- raw L2 structure (random replacement, write-back-allocate) ---
    l2_line_size = l2.line_size
    l2_n_sets = l2.n_sets
    l2_assoc = l2.assoc
    l2_tags = l2._tags
    l2_readys = l2._ready
    l2_rng = l2._rng_state
    l2_acc = l2_misses = l2_reserved = 0
    l2_read_txn = l2_write_txn = dram_txn = 0

    # --- multi-chiplet NUMA constants (inert on a flat die) -----------
    # Ownership is pure address arithmetic over L2 line numbers; with
    # ``topo_on`` False every guard below short-circuits on one local
    # bool and the loop is bit-identical to the single-die fast path.
    topo = sim._topo
    topo_on = topo is not None
    if topo_on:
        home = topo.chiplet_of_sm(sm_id, config.num_sms)
        n_chiplets = topo.chiplets
        lines_per_block = topo.block_bytes // l2_line_size
        hop_service = topo.hop_service
        dram_latency_remote = dram_latency + topo.hop_latency
        l2_fill_remote = l2_fill + topo.hop_latency
    dram_remote = 0

    # --- raw L1 structure (LRU, write-evict), one part per sector ----
    parts = l1._parts
    l1_line_size = l1.line_size
    n_parts = len(parts)
    l1_counts = [[0, 0, 0, 0, 0] for _ in parts]  # acc/hit/miss/resv/wev

    traces = [kernel.compiled_trace(v, l1_line_size, l2_line_size)
              for v in cta_ids]
    lengths = tuple(len(t) for t in traces)

    # The sector (and hence L1 part) a CTA's accesses hit depends only
    # on its slot, so resolve tag/ready/geometry/counter references
    # once per slot instead of once per chunk.
    slot_states = []
    for slot in range(n):
        p = ((slot * sectors) // n) % n_parts
        part = parts[p]
        slot_states.append((part._tags, part._ready, part.n_sets,
                            part.assoc, l1_counts[p]))

    # The whole interleave order, computed once per length shape and
    # replayed for every wave that shares it.
    skey = (lengths, interleave, join_stagger)
    schedule = _SCHEDULES.get(skey)
    if schedule is None:
        if len(_SCHEDULES) >= _SCHEDULES_CAP:
            _SCHEDULES.clear()
        schedule = _SCHEDULES[skey] = _chunk_schedule(lengths, interleave,
                                                      join_stagger)

    trace_on = tracer is not None
    maybe_bypass = (not l1_enabled) or bypass
    need_cycles = record_per_cta or trace_on
    _len = len  # LOAD_FAST beats a builtin lookup on the hot path

    cursor = start
    cta_cycles = [0.0] * n
    metrics.warp_accesses += sum(lengths)
    for slot, a, b in schedule:
        p_tags, p_readys, p_n_sets, p_assoc, counts = slot_states[slot]
        ops = traces[slot]
        while a < b:
            is_write, is_stream, l1_ops, l2_lines = ops[a]
            a += 1
            # --------------------------------------------------------
            # inline _do_access
            # --------------------------------------------------------
            if is_write:
                service = 0.0
                if l1_enabled and not (bypass and is_stream):
                    nsegs = _len(l1_ops)
                    counts[0] += nsegs
                    counts[2] += nsegs
                    for line, _subs in l1_ops:
                        s_idx = line % p_n_sets
                        tags = p_tags[s_idx]
                        if line in tags:
                            k = tags.index(line)
                            del tags[k]
                            del p_readys[s_idx][k]
                            counts[4] += 1
                            if trace_on:
                                tracer.cache_event("L1", "write_eviction",
                                                   cursor)
                l2_acc += _len(l2_lines)
                l2_write_txn += _len(l2_lines)
                for line in l2_lines:
                    s_idx = line % l2_n_sets
                    tags = l2_tags[s_idx]
                    readys = l2_readys[s_idx]
                    if line in tags:
                        k = tags.index(line)
                        if readys[k] > cursor:
                            l2_reserved += 1
                            if trace_on:
                                tracer.cache_event("L2", "reserved_hit",
                                                   cursor)
                        hit = True
                    else:
                        l2_misses += 1
                        if trace_on:
                            tracer.cache_event("L2", "miss", cursor)
                        if _len(tags) >= l2_assoc:
                            l2_rng = (l2_rng * _LCG_MUL
                                      + _LCG_ADD) & _LCG_MASK
                            v = (l2_rng >> 16) % _len(tags)
                            del tags[v]
                            del readys[v]
                            if trace_on:
                                tracer.cache_event("L2", "eviction",
                                                   cursor)
                        tags.append(line)
                        remote = topo_on and (line // lines_per_block) \
                            % n_chiplets != home
                        if remote:
                            readys.append(cursor + l2_fill_remote)
                        else:
                            readys.append(cursor + l2_fill)
                        hit = False
                    service += l2_service
                    if not hit:
                        dram_txn += 1
                        service += dram_service
                        if remote:
                            dram_remote += 1
                            service += hop_service
                latency = 0.0
            elif maybe_bypass and (not l1_enabled
                                   or (bypass and is_stream)):
                worst = l2_latency
                service = 0.0
                l2_acc += _len(l2_lines)
                l2_read_txn += _len(l2_lines)
                for line in l2_lines:
                    s_idx = line % l2_n_sets
                    tags = l2_tags[s_idx]
                    readys = l2_readys[s_idx]
                    if line in tags:
                        k = tags.index(line)
                        ready = readys[k]
                        if ready > cursor:
                            l2_reserved += 1
                            if trace_on:
                                tracer.cache_event("L2", "reserved_hit",
                                                   cursor)
                            hit_ready = ready
                        else:
                            hit_ready = cursor
                        service += l2_service
                        wait = (hit_ready - cursor) * reserved_exposure \
                            if hit_ready > cursor else 0.0
                        candidate = l2_latency + wait
                        if candidate > worst:
                            worst = candidate
                    else:
                        l2_misses += 1
                        if trace_on:
                            tracer.cache_event("L2", "miss", cursor)
                        if _len(tags) >= l2_assoc:
                            l2_rng = (l2_rng * _LCG_MUL
                                      + _LCG_ADD) & _LCG_MASK
                            v = (l2_rng >> 16) % _len(tags)
                            del tags[v]
                            del readys[v]
                            if trace_on:
                                tracer.cache_event("L2", "eviction",
                                                   cursor)
                        tags.append(line)
                        remote = topo_on and (line // lines_per_block) \
                            % n_chiplets != home
                        if remote:
                            readys.append(cursor + l2_fill_remote)
                        else:
                            readys.append(cursor + l2_fill)
                        service += l2_service
                        dram_txn += 1
                        service += dram_service
                        if remote:
                            dram_remote += 1
                            service += hop_service
                            if dram_latency_remote > worst:
                                worst = dram_latency_remote
                        elif dram_latency > worst:
                            worst = dram_latency
                latency = worst
            else:
                worst = l1_latency
                service = 0.0
                counts[0] += _len(l1_ops)
                for line, subs in l1_ops:
                    s_idx = line % p_n_sets
                    tags = p_tags[s_idx]
                    # MRU shortcut: when the line is already at the
                    # back of the recency order the LRU touch is a
                    # no-op — the common case under clustering,
                    # where ganged CTAs re-read each other's lines.
                    if tags and tags[-1] == line:
                        ready = p_readys[s_idx][-1]
                        if ready > cursor:
                            counts[3] += 1
                            if trace_on:
                                tracer.cache_event("L1", "reserved_hit",
                                                   cursor)
                            wait = (ready - cursor) * reserved_exposure
                            candidate = l1_latency + wait
                            if candidate > worst:
                                worst = candidate
                        continue
                    readys = p_readys[s_idx]
                    if line in tags:
                        k = tags.index(line)
                        ready = readys[k]
                        # LRU touch: move to the back
                        del tags[k]
                        del readys[k]
                        tags.append(line)
                        readys.append(ready)
                        if ready > cursor:
                            counts[3] += 1
                            if trace_on:
                                tracer.cache_event("L1", "reserved_hit",
                                                   cursor)
                            wait = (ready - cursor) * reserved_exposure
                            candidate = l1_latency + wait
                            if candidate > worst:
                                worst = candidate
                        continue
                    counts[2] += 1
                    if trace_on:
                        tracer.cache_event("L1", "miss", cursor)
                    if _len(tags) >= p_assoc:
                        del tags[0]
                        del readys[0]
                        if trace_on:
                            tracer.cache_event("L1", "eviction", cursor)
                    tags.append(line)
                    # The reference inserts at fill-time ``cursor``
                    # then installs the real completion over it;
                    # the line is last in recency order either
                    # way, so write the final value directly.
                    line_latency = l2_latency
                    l2_acc += _len(subs)
                    l2_read_txn += _len(subs)
                    for sline in subs:
                        sub_idx = sline % l2_n_sets
                        stags = l2_tags[sub_idx]
                        sreadys = l2_readys[sub_idx]
                        if sline in stags:
                            k = stags.index(sline)
                            if sreadys[k] > cursor:
                                l2_reserved += 1
                                if trace_on:
                                    tracer.cache_event(
                                        "L2", "reserved_hit", cursor)
                            sub_hit = True
                        else:
                            l2_misses += 1
                            if trace_on:
                                tracer.cache_event("L2", "miss", cursor)
                            if _len(stags) >= l2_assoc:
                                l2_rng = (l2_rng * _LCG_MUL
                                          + _LCG_ADD) & _LCG_MASK
                                v = (l2_rng >> 16) % _len(stags)
                                del stags[v]
                                del sreadys[v]
                                if trace_on:
                                    tracer.cache_event("L2", "eviction",
                                                       cursor)
                            stags.append(sline)
                            sremote = topo_on \
                                and (sline // lines_per_block) \
                                % n_chiplets != home
                            if sremote:
                                sreadys.append(cursor + l2_fill_remote)
                            else:
                                sreadys.append(cursor + l2_fill)
                            sub_hit = False
                        service += l2_service
                        if not sub_hit:
                            dram_txn += 1
                            service += dram_service
                            if sremote:
                                dram_remote += 1
                                service += hop_service
                                line_latency = dram_latency_remote
                            elif line_latency < dram_latency:
                                line_latency = dram_latency
                    readys.append(cursor + line_latency)
                    if line_latency > worst:
                        worst = line_latency
                latency = worst
            # --------------------------------------------------------
            if need_cycles:
                step = alu_step + latency / hiding + service
                cursor += step
                cta_cycles[slot] += step
            else:
                cursor += alu_step + latency / hiding + service

    # flush local counters back to the stat objects
    l2._rng_state = l2_rng
    l2s = l2.stats
    l2s.accesses += l2_acc
    l2s.hits += l2_acc - l2_misses
    l2s.misses += l2_misses
    l2s.reserved_hits += l2_reserved
    for part, counts in zip(parts, l1_counts):
        ps = part.stats
        ps.accesses += counts[0]
        ps.hits += counts[0] - counts[2]
        ps.misses += counts[2]
        ps.reserved_hits += counts[3]
        ps.write_evictions += counts[4]
    metrics.l2_read_transactions += l2_read_txn
    metrics.l2_write_transactions += l2_write_txn
    metrics.dram_transactions += dram_txn
    metrics.dram_remote_transactions += dram_remote

    # prefetch the head of each agent's next task (Section 4.3-III):
    # cold code, shared with the reference executor
    if prefetch_targets:
        cursor += sim._issue_prefetches(kernel, prefetch_targets, l1, l2,
                                        cursor, metrics, hiding, plan,
                                        home if topo_on else -1)

    fixed = kernel.fixed_compute_cycles * n / issue_width
    duration = (cursor - start) + fixed
    metrics.occupancy_weighted_warps += resident_warps * duration
    if trace_on:
        for slot, v in enumerate(cta_ids):
            tracer.cta(sm_id, v, turnaround, cta_cycles[slot])
    if record_per_cta:
        for slot, v in enumerate(cta_ids):
            metrics.cta_records.append(CtaRecord(
                original_id=v, sm_id=sm_id, turnaround=turnaround,
                access_cycles=cta_cycles[slot]))
    return duration
