"""Workload framework: Table-2 metadata and shared trace patterns.

A :class:`Workload` couples a kernel *builder* (which produces the
per-CTA global-memory trace at a chosen problem scale) with the
benchmark characteristics the paper reports in Table 2: warps per CTA,
the per-architecture baseline CTAs per SM, register cost per thread,
shared memory per CTA, the partition direction used for clustering and
the optimal throttling degree.  Builders model the *address streams*
of the original CUDA kernels — which addresses each CTA touches, in
which order, with which coalescing — because that, plus the resource
footprint, is everything the paper's phenomenon depends on.

The module also provides the handful of reusable access-pattern
generators (streams, broadcasts, halos, misaligned object arrays,
seeded irregular walks) from which the 40 application models are
composed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from repro.gpu.config import Architecture, GpuConfig
from repro.kernels.access import WarpAccess, read, write
from repro.kernels.kernel import KernelSpec, LocalityCategory

#: Architecture order of the "a/b/c/d" quadruples in Table 2.
ARCH_ORDER = (Architecture.FERMI, Architecture.KEPLER,
              Architecture.MAXWELL, Architecture.PASCAL)

#: Largest problem scale a kernel is built at (1.0 = evaluation size).
MAX_SCALE = 4.0


@dataclass(frozen=True)
class Table2Row:
    """One application's row of the paper's Table 2.

    Quadruples follow :data:`ARCH_ORDER` (Fermi/Kepler/Maxwell/Pascal).
    """

    warps_per_cta: int
    ctas_per_sm: "tuple[int, int, int, int]"
    registers: "tuple[int, int, int, int]"
    smem_bytes: int
    partition: str
    opt_agents: "tuple[int, int, int, int]"
    suite: str

    def _index(self, architecture: Architecture) -> int:
        return ARCH_ORDER.index(architecture)

    def registers_for(self, architecture: Architecture) -> int:
        return self.registers[self._index(architecture)]

    def ctas_for(self, architecture: Architecture) -> int:
        return self.ctas_per_sm[self._index(architecture)]

    def opt_agents_for(self, architecture: Architecture) -> int:
        return self.opt_agents[self._index(architecture)]


@dataclass(frozen=True)
class Workload:
    """One GPU application of the evaluation."""

    abbr: str
    name: str
    description: str
    category: LocalityCategory
    builder: Callable[[float], KernelSpec]
    table2: Optional[Table2Row] = None
    secondary_category: Optional[LocalityCategory] = None
    in_figure3: bool = True

    def kernel(self, scale: float = 1.0,
               config: GpuConfig = None) -> KernelSpec:
        """Build the kernel at a problem scale, 1.0 = evaluation size.

        When ``config`` is given and Table-2 data exists, the kernel's
        register footprint is specialized to that architecture (the
        paper's per-generation nvcc allocation differences).
        """
        if not 0.0 < scale <= MAX_SCALE:
            raise ValueError(
                f"scale must be in (0, {MAX_SCALE:g}], got {scale}")
        # The built kernel is a pure function of (workload, scale,
        # architecture), so hand every caller the *same* KernelSpec
        # instance: its memoized traces and precompiled access streams
        # then survive across sweep jobs, schemes and warm-up launches
        # instead of being regenerated per job.  Per-instance cache on
        # this frozen dataclass (instances are registry singletons).
        arch = (config.architecture
                if config is not None and self.table2 is not None else None)
        cache = getattr(self, "_kernel_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_kernel_cache", cache)
        kernel = cache.get((scale, arch))
        if kernel is not None:
            return kernel
        kernel = self.builder(scale)
        updates = {
            "category": self.category,
            "secondary_category": self.secondary_category,
        }
        if arch is not None:
            updates["regs_per_thread"] = self.table2.registers_for(arch)
        kernel = dataclasses.replace(kernel, **updates)
        cache[(scale, arch)] = kernel
        return kernel

    def probe_kernel(self, config: GpuConfig = None) -> KernelSpec:
        """Reduced-size instance for the framework's classification probe."""
        return self.kernel(scale=0.25, config=config)


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an extent, never below ``minimum``."""
    return max(minimum, round(value * scale))


# ----------------------------------------------------------------------
# Reusable access-pattern generators
# ----------------------------------------------------------------------

def stream_rows(array, first_row: int, n_rows: int, row_words: int,
                is_write: bool = False,
                words_per_access: int = 32) -> "list[WarpAccess]":
    """Perfectly coalesced streaming over a row range (Fig. 4-E).

    The warps walk consecutive 128B chunks of the rows; the data is
    touched exactly once, so the accesses are tagged ``is_stream``.
    """
    accesses = []
    ctor = write if is_write else read
    for row in range(first_row, first_row + n_rows):
        for chunk in range(0, row_words, words_per_access):
            lanes = min(32, row_words - chunk)
            accesses.append(ctor(array.addr(row, chunk), 4, lanes, 4,
                                 stream=True))
    return accesses


def broadcast_reads(array, rows, repeat: int = 1) -> "list[WarpAccess]":
    """All lanes read the same element — shared-table lookups.

    The classic algorithm-related pattern (Fig. 4-A): every CTA walks
    the same small table (centroids, filter weights, price tables...).
    """
    accesses = []
    for _ in range(repeat):
        for row in rows:
            accesses.append(read(array.addr(row, 0), 0, 32, 4))
    return accesses


def tile_reads(array, row0: int, rows: int, col0_words: int, cols_words: int,
               stream: bool = False, is_write: bool = False) -> "list[WarpAccess]":
    """Coalesced 2D tile access: one warp access per 32-word row chunk."""
    accesses = []
    ctor = write if is_write else read
    for r in range(row0, row0 + rows):
        if r < 0 or r >= array.rows:
            continue
        for c in range(col0_words, col0_words + cols_words, 32):
            lanes = min(32, col0_words + cols_words - c)
            if c < 0:
                continue
            accesses.append(ctor(array.addr(r, c), 4, lanes, 4, stream=stream))
    return accesses


def object_array_reads(array, first_object: int, n_objects: int,
                       object_bytes: int) -> "list[WarpAccess]":
    """Warp-per-32-objects reads of a user-defined object array.

    Objects whose size is not a multiple of 128 straddle L1 cache
    lines, so the boundary lines of one CTA's object range are shared
    with the next CTA's — the cache-line-related source of inter-CTA
    locality (Fig. 4-B), which only exists on 128B-line architectures.
    """
    accesses = []
    words = max(1, object_bytes // 4)
    for obj in range(first_object, first_object + n_objects, 32):
        lanes = min(32, first_object + n_objects - obj)
        base = array.base + obj * object_bytes
        for word in range(words):
            accesses.append(WarpAccess(base + word * 4, object_bytes,
                                       lanes, 4, False, False))
    return accesses


def irregular_reads(array, seed: int, count: int,
                    hot_fraction: float = 0.3,
                    hot_rows: int = 32) -> "list[WarpAccess]":
    """Seeded pseudo-random pointer chasing (Fig. 4-C).

    A ``hot_fraction`` of the accesses fall into a small hot region
    (shared-by-accident inter-CTA locality); the rest scatter over the
    whole array.  Deterministic in ``seed`` so runs are repeatable.
    """
    accesses = []
    state = (seed * 2654435761 + 97) & 0xFFFFFFFF
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        if (state >> 16) % 1000 < hot_fraction * 1000:
            row = (state >> 8) % max(1, hot_rows)
        else:
            row = (state >> 8) % array.rows
        accesses.append(read(array.addr(row, (state >> 4) % max(1, array.cols)),
                             0, 1, 4))
    return accesses


def skewed_read_write(array, row: int, cols_words: int,
                      skew_words: int = 1) -> "list[WarpAccess]":
    """Read a row, then write it shifted by less than a cache line.

    The write-related pattern (Fig. 4-D): the written line overlaps
    data a neighbouring CTA would reuse, and the write-evict L1 throws
    that reuse away.
    """
    accesses = []
    for c in range(0, cols_words, 32):
        lanes = min(32, cols_words - c)
        accesses.append(read(array.addr(row, c), 4, lanes, 4))
    for c in range(0, cols_words, 32):
        lanes = min(32, cols_words - c)
        accesses.append(write(array.addr(row, c + skew_words), 4, lanes, 4))
    return accesses
