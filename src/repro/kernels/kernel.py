"""Kernel abstraction: grids, CTAs, symbolic array references, traces.

A :class:`KernelSpec` is the simulator-facing description of a CUDA
kernel: its launch geometry, per-thread/per-CTA resource usage (which
drives occupancy, Table 2), a *trace function* that emits the global
memory accesses of one CTA, and symbolic :class:`ArrayRef` records
used by the automatic framework's dependency analysis
(Section 4.2.1-(A)).
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

from repro.kernels.access import WarpAccess, compile_trace


class LocalityCategory(enum.Enum):
    """Sources of inter-CTA locality (Section 3.2, Figure 4)."""

    ALGORITHM = "algorithm"
    CACHE_LINE = "cache-line"
    DATA = "data"
    WRITE = "write"
    STREAMING = "streaming"

    @property
    def exploitable(self) -> bool:
        """Whether the category has exploitable inter-CTA locality.

        Per Section 4.1 only algorithm-related (program defined) and
        cache-line related (architecture defined) locality can be
        identified before runtime and is worth clustering for; the
        other categories get CTA-order reshaping + prefetching instead.
        """
        return self in (LocalityCategory.ALGORITHM, LocalityCategory.CACHE_LINE)


@dataclass(frozen=True)
class Dim3:
    """A CUDA dim3: kernel grid or block extents."""

    x: int
    y: int = 1
    z: int = 1

    def __post_init__(self):
        if self.x < 1 or self.y < 1 or self.z < 1:
            raise ValueError(f"dim3 extents must be positive, got {self}")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@dataclass(frozen=True)
class ArrayRef:
    """A symbolic array reference for dependency analysis.

    ``dims`` lists, outermost first, the index variables appearing in
    each subscript dimension — e.g. ``A[alpha(by) + bx + eps(tx,ty)]``
    flattened over a 2D array is ``ArrayRef("A", (("by",), ("bx", "tx")))``.
    The framework's partition chooser inspects only the *last* (or
    only) dimension, per the paper's rule: a trailing ``bx`` means
    inter-CTA locality across X (cluster rows together, Y-partition);
    a trailing ``by`` means locality across Y (X-partition).
    """

    name: str
    dims: "tuple[tuple[str, ...], ...]"
    is_write: bool = False
    weight: float = 1.0

    @property
    def last_dim(self) -> "tuple[str, ...]":
        return self.dims[-1]


@dataclass(frozen=True)
class ArraySpec:
    """Byte-addressed layout of one kernel argument array.

    Rows are padded so that distinct arrays never alias and row starts
    are cache-line friendly, mirroring ``cudaMallocPitch``-style
    allocation.  ``addr(i, j)`` returns the byte address of element
    ``[i][j]`` under row-major storage.
    """

    name: str
    base: int
    rows: int
    cols: int
    element_size: int = 4

    @property
    def row_pitch(self) -> int:
        return self.cols * self.element_size

    @property
    def size(self) -> int:
        return self.rows * self.row_pitch

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, i: int, j: int = 0) -> int:
        return self.base + i * self.row_pitch + j * self.element_size


class AddressSpace:
    """Sequential allocator of non-overlapping :class:`ArraySpec`.

    Keeps every array aligned to ``alignment`` bytes (default 256,
    like ``cudaMalloc``) so coalescing behaviour matches real layouts.
    """

    def __init__(self, base: int = 0x1000_0000, alignment: int = 256):
        self._next = base
        self._alignment = alignment
        self.arrays: "dict[str, ArraySpec]" = {}

    def alloc(self, name: str, rows: int, cols: int = 1,
              element_size: int = 4) -> ArraySpec:
        """Allocate a 2D (or 1D with ``cols=1`` semantics) array."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        spec = ArraySpec(name, self._next, rows, cols, element_size)
        self.arrays[name] = spec
        raw_end = spec.end
        self._next = (raw_end + self._alignment - 1) // self._alignment * self._alignment
        return spec

    def __getitem__(self, name: str) -> ArraySpec:
        return self.arrays[name]


TraceFn = Callable[[int, int, int], Sequence[WarpAccess]]

#: Per-kernel bound on memoized CTA traces.  Trace generation is pure
#: in (bx, by, bz), so warm-up launches, measured runs and the six
#: evaluation schemes of one workload all share the same traces; the
#: LRU bound keeps huge grids from pinning every trace at once.
TRACE_CACHE_CTAS = 4096


@dataclass
class KernelSpec:
    """Everything the simulator and the framework need about a kernel.

    ``trace(bx, by, bz)`` returns the CTA's warp-level global-memory
    accesses in program order.  ``compute_cycles_per_access`` is the
    ALU/issue work amortized per memory instruction and
    ``fixed_compute_cycles`` the per-CTA prologue/epilogue work; both
    feed the timing model only, never the cache behaviour.
    """

    name: str
    grid: Dim3
    block: Dim3
    trace: TraceFn
    regs_per_thread: int = 16
    smem_per_cta: int = 0
    compute_cycles_per_access: float = 8.0
    fixed_compute_cycles: float = 200.0
    category: LocalityCategory = LocalityCategory.STREAMING
    secondary_category: "LocalityCategory | None" = None
    array_refs: "tuple[ArrayRef, ...]" = ()
    description: str = ""
    #: Lazily built LRU of linear id -> trace; excluded from init so
    #: ``dataclasses.replace`` never shares a memo across variants.
    _trace_memo: "OrderedDict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: LRU of (linear id, l1_line, l2_line) -> compiled op stream, plus
    #: the intern table that dedups identical ops across CTAs.  Like
    #: ``_trace_memo``, private to each dataclass instance.
    _compiled_memo: "OrderedDict | None" = field(
        default=None, init=False, repr=False, compare=False)
    _op_intern: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: LRU of (linear id, l1_line, l2_line, block_bytes, chiplets) ->
    #: the CTA's L2 footprint split by owning chiplet; same bound and
    #: per-instance privacy as ``_compiled_memo``.
    _owner_memo: "OrderedDict | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_ctas(self) -> int:
        return self.grid.count

    @property
    def threads_per_cta(self) -> int:
        return self.block.count

    @property
    def warps_per_cta(self) -> int:
        return max(1, math.ceil(self.threads_per_cta / 32))

    def cta_coords(self, linear_id: int) -> "tuple[int, int, int]":
        """Row-major linear CTA id -> (bx, by, bz) grid coordinates."""
        if not 0 <= linear_id < self.n_ctas:
            raise IndexError(f"CTA id {linear_id} out of range [0, {self.n_ctas})")
        per_plane = self.grid.x * self.grid.y
        bz, rest = divmod(linear_id, per_plane)
        by, bx = divmod(rest, self.grid.x)
        return bx, by, bz

    def cta_trace(self, linear_id: int) -> Sequence[WarpAccess]:
        """Trace of the CTA with the given row-major linear id.

        Memoized (bounded LRU): callers must treat the returned
        sequence as immutable.
        """
        memo = self._trace_memo
        if memo is None:
            memo = self._trace_memo = OrderedDict()
        trace = memo.get(linear_id)
        if trace is not None:
            memo.move_to_end(linear_id)
            return trace
        bx, by, bz = self.cta_coords(linear_id)
        trace = self.trace(bx, by, bz)
        memo[linear_id] = trace
        if len(memo) > TRACE_CACHE_CTAS:
            memo.popitem(last=False)
        return trace

    def compiled_trace(self, linear_id: int, l1_line: int,
                       l2_line: int) -> tuple:
        """Precompiled fast-path op stream for one CTA.

        The compilation (coalescing into L1 segments, L2 sub-
        transactions and bypass segments) depends only on the cache
        line geometry, so one compiled stream serves every plan,
        scheme, warm-up and platform sharing ``(l1_line, l2_line)`` in
        a sweep.  Memoized under the same LRU bound as raw traces;
        identical ops are interned across CTAs.
        """
        memo = self._compiled_memo
        if memo is None:
            memo = self._compiled_memo = OrderedDict()
        key = (linear_id, l1_line, l2_line)
        compiled = memo.get(key)
        if compiled is not None:
            memo.move_to_end(key)
            return compiled
        intern = self._op_intern
        if intern is None:
            intern = {}
            self._op_intern = intern
        compiled = compile_trace(self.cta_trace(linear_id), l1_line,
                                 l2_line, intern)
        memo[key] = compiled
        if len(memo) > TRACE_CACHE_CTAS:
            memo.popitem(last=False)
        return compiled

    def footprint_by_owner(self, linear_id: int, l1_line: int, l2_line: int,
                           topo) -> "tuple[frozenset, ...]":
        """One CTA's distinct L2 lines grouped by owning chiplet.

        The footprint is the union of the compiled ops' L2 lines
        (``op[3]``), split by ``topo.owner_split``.  Ownership depends
        on the topology only through ``block_bytes`` and ``chiplets``,
        so that pair keys the memo (bounded like
        :meth:`compiled_trace`): every placement of this kernel on one
        package splits each CTA once.
        """
        memo = self._owner_memo
        if memo is None:
            memo = self._owner_memo = OrderedDict()
        key = (linear_id, l1_line, l2_line, topo.block_bytes, topo.chiplets)
        split = memo.get(key)
        if split is not None:
            memo.move_to_end(key)
            return split
        ops = self.compiled_trace(linear_id, l1_line, l2_line)
        split = topo.owner_split(chain.from_iterable(op[3] for op in ops),
                                 l2_line)
        memo[key] = split
        if len(memo) > TRACE_CACHE_CTAS:
            memo.popitem(last=False)
        return split

    def reads_and_writes_same_array(self) -> bool:
        """Whether some array is both read and written (write-related hint)."""
        reads = {ref.name for ref in self.array_refs if not ref.is_write}
        writes = {ref.name for ref in self.array_refs if ref.is_write}
        return bool(reads & writes)
