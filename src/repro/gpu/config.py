"""GPU platform configurations (paper Table 1).

Each :class:`GpuConfig` captures the architectural parameters the paper
reasons about: per-SM L1 (or L1/Tex unified) cache geometry and write
policy, the shared L2, occupancy limits (warp slots, CTA slots,
registers, shared memory) and the memory latencies the authors measured
with the Listing-3 microbenchmark (Figure 2).

The five concrete platforms are the paper's four evaluation GPUs
(Table 1) plus the GTX750Ti used in Section 3.1-(3) to observe the
randomized scheduling pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.gpu.topology import ChipletTopology, chiplet_variant


class Architecture(enum.Enum):
    """NVIDIA GPU generations covered by the paper."""

    FERMI = "Fermi"
    KEPLER = "Kepler"
    MAXWELL = "Maxwell"
    PASCAL = "Pascal"


class WritePolicy(enum.Enum):
    """Cache write policies found in the GPU memory hierarchy.

    GPU L1 data caches are write-evict (a write invalidates the local
    line and is forwarded downstream); the shared L2 is write-back with
    write-allocate (Section 2, [29]).
    """

    WRITE_EVICT = "write-evict"
    WRITE_BACK_ALLOCATE = "write-back-allocate"


#: Threads per warp on every architecture in this paper.
WARP_SIZE = 32


@dataclass(frozen=True)
class ClusteringCosts:
    """Per-architecture overhead model for the clustering runtimes.

    The costs are expressed in SM cycles and mirror Section 4.2.3 /
    5.2: redirection pays a little index arithmetic per CTA; SM-based
    binding pays an ``%%smid`` fetch everywhere, plus an ``atomicAdd``
    and a ``__syncthreads`` broadcast on Maxwell/Pascal where warps are
    dynamically bound to hardware warp slots.  Tile-wise indexing pays
    extra ALU work per task (Section 5.2-(6)).
    """

    redirection_index_cycles: float = 12.0
    smid_fetch_cycles: float = 6.0
    agent_bind_cycles: float = 8.0
    task_loop_cycles: float = 10.0
    tile_index_cycles: float = 60.0
    prefetch_issue_cycles: float = 18.0


@dataclass(frozen=True)
class GpuConfig:
    """Architectural description of one GPU platform (Table 1).

    Sizes are in bytes, latencies in SM cycles.  ``l1_sectors`` models
    the Maxwell/Pascal L1/Tex unified cache, which the paper observes
    to be split into two sectors private to particular CTA slots
    (Section 3.1-(1)); Fermi/Kepler use a single unsectored L1.
    """

    name: str
    architecture: Architecture
    compute_capability: float
    num_sms: int
    warp_slots: int
    cta_slots: int
    l1_size: int
    l1_line: int
    l1_sectors: int
    l2_size: int
    l2_line: int
    l2_banks: int
    registers_per_sm: int
    smem_per_sm: int
    l1_latency: float
    l2_latency: float
    dram_latency: float
    l2_service_cycles: float
    dram_service_cycles: float
    l1_configurable_sizes: tuple = ()
    mlp_per_warp: float = 1.5
    issue_width: int = 2
    costs: ClusteringCosts = field(default_factory=ClusteringCosts)
    #: Multi-chiplet package description, or ``None`` for a flat die.
    #: A trivial (1-chiplet) topology behaves exactly like ``None``.
    topology: "ChipletTopology | None" = None

    @property
    def max_threads_per_sm(self) -> int:
        """Maximum resident threads per SM (warp slots x warp size)."""
        return self.warp_slots * WARP_SIZE

    @property
    def l1_write_policy(self) -> WritePolicy:
        return WritePolicy.WRITE_EVICT

    @property
    def l2_write_policy(self) -> WritePolicy:
        return WritePolicy.WRITE_BACK_ALLOCATE

    @property
    def l2_transactions_per_l1_miss(self) -> int:
        """How many L2 transactions a single L1 miss generates.

        For Fermi/Kepler one 128B L1 miss equals four 32B L2 read
        transactions; for Maxwell/Pascal each 32B sector miss equals
        one L2 transaction (Section 3.1-(1)).
        """
        return self.l1_line // self.l2_line

    @property
    def has_unified_l1_tex(self) -> bool:
        """Whether L1 caching is provided by the L1/Tex unified cache."""
        return self.architecture in (Architecture.MAXWELL, Architecture.PASCAL)

    @property
    def static_warp_slot_binding(self) -> bool:
        """Whether CTAs map to warp slots statically (Fermi/Kepler).

        Static binding lets an agent derive its id from ``%%warpid``;
        dynamic binding (Maxwell/Pascal) requires the atomic+broadcast
        scheme of Listing 5 (Section 4.2.3-(B)).
        """
        return self.architecture in (Architecture.FERMI, Architecture.KEPLER)

    def with_scaled_l2(self, divisor: int = 8) -> "GpuConfig":
        """Return a copy with the L2 shrunk by ``divisor``.

        The evaluation workloads run at reduced problem sizes so the
        pure-Python simulation stays tractable; shrinking the L2 by the
        same factor preserves the working-set-to-L2 ratio that governs
        whether a baseline miss is served by L2 or DRAM.  Per-SM L1
        sizes are kept real because the per-CTA footprints are modeled
        at real scale.  The size rounds down to whole kilobytes, so a
        divisor that does not divide the L2 (three tenants' slices of a
        2 MB L2) still leaves whole cache sets.
        """
        if divisor < 1:
            raise ValueError("divisor must be >= 1")
        return replace(self, l2_size=max(32 * KB,
                                         self.l2_size // divisor // KB * KB))

    def with_l1_size(self, size: int) -> "GpuConfig":
        """Return a copy configured with a different L1 size.

        Only sizes offered by the architecture (Table 1's configurable
        L1 column) are accepted.
        """
        if self.l1_configurable_sizes and size not in self.l1_configurable_sizes:
            raise ValueError(
                f"{self.name} L1 is configurable to {self.l1_configurable_sizes}, "
                f"not {size}"
            )
        if not self.l1_configurable_sizes and size != self.l1_size:
            raise ValueError(f"{self.name} L1 size is fixed at {self.l1_size}")
        return replace(self, l1_size=size)


KB = 1024

GTX570 = GpuConfig(
    name="GTX570",
    architecture=Architecture.FERMI,
    compute_capability=2.0,
    num_sms=15,
    warp_slots=48,
    cta_slots=8,
    l1_size=16 * KB,
    l1_line=128,
    l1_sectors=1,
    l2_size=1536 * KB,
    l2_line=32,
    l2_banks=6,
    registers_per_sm=32 * 1024,
    smem_per_sm=48 * KB,
    l1_latency=125.0,
    l2_latency=374.0,
    dram_latency=700.0,
    l2_service_cycles=2.0,
    dram_service_cycles=4.5,
    l1_configurable_sizes=(16 * KB, 48 * KB),
)

TESLA_K40 = GpuConfig(
    name="Tesla K40",
    architecture=Architecture.KEPLER,
    compute_capability=3.5,
    num_sms=15,
    warp_slots=64,
    cta_slots=16,
    l1_size=16 * KB,
    l1_line=128,
    l1_sectors=1,
    l2_size=1536 * KB,
    l2_line=32,
    l2_banks=6,
    registers_per_sm=64 * 1024,
    smem_per_sm=48 * KB,
    l1_latency=91.0,
    l2_latency=260.0,
    dram_latency=600.0,
    l2_service_cycles=1.6,
    dram_service_cycles=3.6,
    l1_configurable_sizes=(16 * KB, 32 * KB, 48 * KB),
)

GTX980 = GpuConfig(
    name="GTX980",
    architecture=Architecture.MAXWELL,
    compute_capability=5.2,
    num_sms=16,
    warp_slots=64,
    cta_slots=32,
    l1_size=48 * KB,
    l1_line=32,
    l1_sectors=2,
    l2_size=2048 * KB,
    l2_line=32,
    l2_banks=8,
    registers_per_sm=64 * 1024,
    smem_per_sm=96 * KB,
    l1_latency=131.0,
    l2_latency=254.0,
    dram_latency=650.0,
    l2_service_cycles=1.2,
    dram_service_cycles=2.8,
)

GTX1080 = GpuConfig(
    name="GTX1080",
    architecture=Architecture.PASCAL,
    compute_capability=6.1,
    num_sms=20,
    warp_slots=64,
    cta_slots=32,
    l1_size=48 * KB,
    l1_line=32,
    l1_sectors=2,
    l2_size=2048 * KB,
    l2_line=32,
    l2_banks=8,
    registers_per_sm=64 * 1024,
    smem_per_sm=64 * KB,
    l1_latency=132.0,
    l2_latency=260.0,
    dram_latency=750.0,
    l2_service_cycles=1.0,
    dram_service_cycles=2.4,
)

GTX750TI = GpuConfig(
    name="GTX750Ti",
    architecture=Architecture.MAXWELL,
    compute_capability=5.0,
    num_sms=5,
    warp_slots=64,
    cta_slots=32,
    l1_size=24 * KB,
    l1_line=32,
    l1_sectors=2,
    l2_size=2048 * KB,
    l2_line=32,
    l2_banks=8,
    registers_per_sm=64 * 1024,
    smem_per_sm=64 * KB,
    l1_latency=131.0,
    l2_latency=254.0,
    dram_latency=650.0,
    l2_service_cycles=1.4,
    dram_service_cycles=3.2,
)

#: The paper's four evaluation platforms, in Table 1 order.
EVALUATION_PLATFORMS = (GTX570, TESLA_K40, GTX980, GTX1080)

#: Multi-chiplet variants of the modern architectures: the same total
#: SM count and cache geometry split across 2 or 4 chiplet dies, each
#: with a local HBM slice (see :mod:`repro.gpu.topology`).  These are
#: *additional* registry entries — the paper's evaluation set above is
#: untouched, and the flat platforms stay bit-identical.
GTX980X2 = chiplet_variant(GTX980, 2)
GTX980X4 = chiplet_variant(GTX980, 4)
GTX1080X2 = chiplet_variant(GTX1080, 2)
GTX1080X4 = chiplet_variant(GTX1080, 4)

CHIPLET_PLATFORMS = (GTX980X2, GTX980X4, GTX1080X2, GTX1080X4)

#: All modeled platforms, keyed by product name.
PLATFORMS = {
    gpu.name: gpu
    for gpu in EVALUATION_PLATFORMS + (GTX750TI,) + CHIPLET_PLATFORMS
}

#: Platforms keyed by architecture name for the evaluation set.
BY_ARCHITECTURE = {gpu.architecture: gpu for gpu in EVALUATION_PLATFORMS}


def platform(name: str) -> GpuConfig:
    """Look up a platform by product name (e.g. ``"GTX980"``).

    Raises ``KeyError`` with the list of known names on a miss.
    """
    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown GPU {name!r}; known platforms: {sorted(PLATFORMS)}"
        ) from None
