"""Reference set-associative cache models (the differential oracle).

These are the original, deliberately transparent dict-based models.
The production hot path runs the flat-array reimplementations in
:mod:`repro.gpu.fastpath`; this module is kept as the *golden model*
that the differential harness in ``tests/differential/`` fuzzes the
fast path against, bit for bit.  Keep it simple and obviously correct;
speed belongs in ``fastpath``.

Three behaviours from the paper's platforms are modeled beyond a
textbook LRU cache:

* **In-flight fills ("hit reserved")** — Section 3.1-(1) observes that
  CTAs in the first turnaround hit in L1 but still see near-miss
  latency because the requested line is *on the fly*.  Every resident
  line therefore records the cycle at which its fill completes; an
  access before that cycle is a hit that must wait.

* **Sectoring** — the Maxwell/Pascal L1/Tex unified cache is split
  into two sectors that the paper speculates are private to particular
  CTA slots.  :class:`SectoredCache` composes independent
  :class:`SetAssociativeCache` halves selected by a sector key
  (contiguous halves of the resident CTA slots), which prevents
  cross-sector inter-CTA reuse — the effect behind observation (6) in
  Section 5.2.

* **Replacement** — the per-SM L1 approximates LRU, but the shared L2
  uses seeded pseudo-random replacement like real GPU last-level
  caches; strict LRU would cliff on the cyclic sweeps that clustered
  task orders produce, a pathology the hardware does not have.

The GPU L1 is write-evict (writes invalidate the local copy and are
forwarded to L2); the L2 is write-back with write-allocate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import WritePolicy


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    reserved_hits: int = 0
    write_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when the cache is idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.reserved_hits += other.reserved_hits
        self.write_evictions += other.write_evictions


class SetAssociativeCache:
    """An LRU set-associative cache with fill-time tracking.

    Each set is a ``dict`` mapping line tag to the cycle its fill
    completes; Python dicts preserve insertion order, so LRU is the
    first key and a touch is a delete/re-insert.
    """

    __slots__ = ("line_size", "n_sets", "assoc", "write_policy", "_sets",
                 "stats", "_random_replacement", "_seed", "_rng_state",
                 "_tracer", "_level")

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
        self._sets = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self._random_replacement = random_replacement
        self._seed = seed
        self._rng_state = seed & 0xFFFFFFFF
        self._tracer = None
        self._level = "cache"

    def reset(self) -> None:
        """Restore the freshly built state: no lines, zeroed counters,
        the replacement LCG re-seeded from the constructor's seed and
        no tracer — indistinguishable from a new instance."""
        self.flush()
        self.stats = CacheStats()
        self._rng_state = self._seed & 0xFFFFFFFF
        self._tracer = None
        self._level = "cache"

    def set_tracer(self, tracer, level: str = None) -> None:
        """Attach (or with ``None`` detach) an event tracer.

        The tracer observes misses, reserved hits and capacity
        evictions; it never influences cache behaviour, so attaching
        one leaves all counters and timings bit-identical.
        """
        self._tracer = tracer
        if level is not None:
            self._level = level

    def _victim(self, cset) -> int:
        """Pick the line to evict from a full set."""
        if not self._random_replacement:
            return next(iter(cset))  # LRU: first key in insertion order
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0xFFFFFFFF
        index = (self._rng_state >> 16) % len(cset)
        for i, line in enumerate(cset):
            if i == index:
                return line
        raise AssertionError("unreachable")

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False) -> "tuple[bool, float]":
        """Access one line; return ``(hit, ready_at)``.

        ``ready_at`` is the cycle at which the data is available: for a
        clean hit it equals ``now``; for a reserved hit it is the
        pending fill's completion; for a miss it is
        ``now + miss_fill_latency``.  A write under write-evict
        invalidates the line and reports a miss (the data goes
        downstream); under write-back-allocate it behaves as a fill.
        """
        stats = self.stats
        stats.accesses += 1
        line = addr // self.line_size
        cset = self._sets[line % self.n_sets]
        ready = cset.get(line)

        if is_write and self.write_policy is WritePolicy.WRITE_EVICT:
            if ready is not None:
                del cset[line]
                stats.write_evictions += 1
                if self._tracer is not None:
                    self._tracer.cache_event(self._level, "write_eviction",
                                             now)
            stats.misses += 1
            return False, now

        if ready is not None:
            stats.hits += 1
            if not self._random_replacement:
                del cset[line]
                cset[line] = ready  # LRU touch
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
        if len(cset) >= self.assoc:
            del cset[self._victim(cset)]
            if self._tracer is not None:
                self._tracer.cache_event(self._level, "eviction", now)
        cset[line] = now + miss_fill_latency
        return False, now + miss_fill_latency

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident (no LRU touch)."""
        line = addr // self.line_size
        return line in self._sets[line % self.n_sets]

    def install(self, addr: int, ready_at: float) -> None:
        """Install a line without counting an access (prefetch fills)."""
        line = addr // self.line_size
        cset = self._sets[line % self.n_sets]
        if line in cset:
            del cset[line]
        elif len(cset) >= self.assoc:
            del cset[self._victim(cset)]
            if self._tracer is not None:
                self._tracer.cache_event(self._level, "eviction", ready_at)
        cset[line] = ready_at

    def flush(self) -> None:
        """Drop all resident lines (counters are preserved)."""
        for cset in self._sets:
            cset.clear()

    def reset_stats(self) -> None:
        """Zero the counters without disturbing resident lines."""
        self.stats = CacheStats()

    def settle(self) -> None:
        """Mark every pending fill as complete.

        Used between kernel launches: the next launch starts a fresh
        clock, and any fill issued during the previous one has long
        since arrived.
        """
        for cset in self._sets:
            for line in cset:
                cset[line] = 0.0


class SectoredCache:
    """A cache split into sectors private to disjoint requestor groups.

    Models the two-sector Maxwell/Pascal L1/Tex unified cache: a line
    fetched through one sector is invisible to accesses routed to the
    other, even for the same address.
    """

    def __init__(self, size: int, line_size: int, assoc: int, sectors: int,
                 write_policy: WritePolicy = WritePolicy.WRITE_EVICT):
        if sectors < 1:
            raise ValueError("sectors must be >= 1")
        if size % sectors != 0:
            raise ValueError(f"cache size {size} not divisible into {sectors} sectors")
        self.sectors = sectors
        self._parts = [
            SetAssociativeCache(size // sectors, line_size, assoc, write_policy)
            for _ in range(sectors)
        ]
        self.line_size = line_size

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False, sector: int = 0) -> "tuple[bool, float]":
        """Access through the given requestor sector."""
        part = self._parts[sector % self.sectors]
        return part.access(addr, now, miss_fill_latency, is_write)

    def install(self, addr: int, ready_at: float, sector: int = 0) -> None:
        self._parts[sector % self.sectors].install(addr, ready_at)

    def contains(self, addr: int, sector: int = 0) -> bool:
        return self._parts[sector % self.sectors].contains(addr)

    def set_tracer(self, tracer, level: str = None) -> None:
        """Attach/detach an event tracer on every sector."""
        for part in self._parts:
            part.set_tracer(tracer, level)

    def reset(self) -> None:
        """Restore every sector to its freshly built state."""
        for part in self._parts:
            part.reset()

    def flush(self) -> None:
        for part in self._parts:
            part.flush()

    def reset_stats(self) -> None:
        """Zero all sectors' counters without disturbing resident lines."""
        for part in self._parts:
            part.reset_stats()

    def settle(self) -> None:
        """Mark every sector's pending fills as complete."""
        for part in self._parts:
            part.settle()

    @property
    def stats(self) -> CacheStats:
        """Aggregate statistics over all sectors."""
        total = CacheStats()
        for part in self._parts:
            total.merge(part.stats)
        return total


