"""Multi-chiplet GPU topology: NUMA memory and placement policies.

The paper stops at one monolithic die, but its clustering problem —
co-locate CTAs that share data — extends verbatim to multi-chiplet
GPUs: SMs split into chiplet groups, each with a local HBM slice, and
DRAM traffic that leaves the requesting chiplet pays an interposer /
NVLink hop on top of the ordinary DRAM latency.

The model here has three deliberately small parts:

* :class:`ChipletTopology` — the frozen description: how many
  chiplets, the hop cost, and the *page-granularity ownership map*.
  Ownership is blocked-cyclic over physical pages: contiguous blocks
  of ``block_pages`` pages rotate across the chiplets' HBM slices, so
  an array is striped coarsely enough that one CTA cluster's slice of
  it usually lives on a single chiplet.  Ownership is pure address
  arithmetic — no per-page tables — which keeps the simulators' hot
  loops branch-cheap and both cores trivially consistent.

* ``chiplet_of_sm`` — SMs partition into contiguous groups (SM blocks
  map onto physical chiplet dies).  A placed plan's cluster index *is*
  an SM id, so binding a cluster to a chiplet means binding it to one
  of that chiplet's SM slots.

* Placement policies (:data:`PLACEMENTS`) — permutations of the
  per-SM task lists produced by the binding step ``g : N -> C``:

  - ``oblivious``   — the identity; exactly today's single-die binding.
  - ``local-first`` — greedily co-locate each cluster with the chiplet
    owning most of its footprint pages (falling back to the identity
    when the greedy assignment would not beat it on the static count).
  - ``balanced``    — the same greedy, discounted by how much footprint
    each chiplet has already been assigned, trading locality for an
    even chiplet load.

Every policy returns a *bijection*: the multiset of task lists is
preserved, only which SM runs which cluster changes — so cluster sizes
stay balanced by construction and a 1-chiplet (or topology-less)
platform is bit-identical to the flat binding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: 4 KiB pages — the placement granularity of the related chiplet work.
PAGE_SIZE = 4096

#: Pages per ownership block (blocked-cyclic striping unit).  64 pages
#: = 256 KiB: coarse enough that one cluster's array slice has a
#: dominant owner, fine enough that a few-MB footprint still touches
#: every chiplet's HBM slice.
BLOCK_PAGES = 64


@dataclass(frozen=True)
class ChipletTopology:
    """One multi-chiplet package: SM groups, HBM slices, hop cost.

    ``hop_latency`` is added to the DRAM fill latency of a remote
    access (the interposer crossing sits on the critical path twice —
    request and fill); ``hop_service`` is the extra serialized service
    occupancy per remote transaction.  Both are in SM cycles, matching
    the platform latencies in :mod:`repro.gpu.config`.
    """

    chiplets: int
    hop_latency: float = 180.0
    hop_service: float = 1.2
    page_size: int = PAGE_SIZE
    block_pages: int = BLOCK_PAGES

    def __post_init__(self):
        if self.chiplets < 1:
            raise ValueError(f"chiplets must be >= 1, got {self.chiplets}")
        if self.page_size < 1 or self.block_pages < 1:
            raise ValueError("page_size and block_pages must be >= 1")
        if self.hop_latency < 0.0 or self.hop_service < 0.0:
            raise ValueError("hop costs must be >= 0")

    @property
    def is_trivial(self) -> bool:
        """A 1-chiplet package is a flat die: no remote memory exists."""
        return self.chiplets <= 1

    @property
    def block_bytes(self) -> int:
        """Ownership striping unit in bytes (``page_size * block_pages``)."""
        return self.page_size * self.block_pages

    def chiplet_of_sm(self, sm: int, num_sms: int) -> int:
        """Home chiplet of one SM: contiguous SM blocks per die."""
        return sm * self.chiplets // num_sms

    def sms_of_chiplet(self, num_sms: int) -> "list[list[int]]":
        """SM ids grouped by home chiplet, ascending within each group."""
        groups = [[] for _ in range(self.chiplets)]
        for sm in range(num_sms):
            groups[self.chiplet_of_sm(sm, num_sms)].append(sm)
        return groups

    def owner_of_addr(self, addr: int) -> int:
        """Chiplet owning the page holding byte address ``addr``."""
        return (addr // self.block_bytes) % self.chiplets

    def owner_of_line(self, line: int, line_bytes: int) -> int:
        """Chiplet owning an L2 line, given the line *number*.

        Consistent with :meth:`owner_of_addr` because ``block_bytes``
        is a multiple of every modeled line size (:func:`chiplet_variant`
        rejects any other block size).
        """
        return (line * line_bytes // self.block_bytes) % self.chiplets

    def owner_split(self, lines, line_bytes: int) -> "tuple[frozenset, ...]":
        """Distinct L2 lines grouped by owning chiplet.

        ``lines`` is any iterable of line numbers (repeats allowed);
        entry ``k`` of the result is the set of those lines that
        :meth:`owner_of_line` assigns to chiplet ``k``.  Pure in
        ``(lines, line_bytes, block_bytes, chiplets)``, so callers
        memoize it per CTA footprint instead of pricing line by line.
        """
        block, chiplets = self.block_bytes, self.chiplets
        split = [set() for _ in range(chiplets)]
        for line in lines:
            split[line * line_bytes // block % chiplets].add(line)
        return tuple(map(frozenset, split))

    def describe(self) -> dict:
        """JSON-stable digest (engine extras, plan notes, reports)."""
        return {
            "chiplets": self.chiplets,
            "hop_latency": float(self.hop_latency),
            "hop_service": float(self.hop_service),
            "page_size": self.page_size,
            "block_pages": self.block_pages,
        }


def chiplet_variant(base, chiplets: int, *, hop_latency: float = None,
                    hop_service: float = None, page_size: int = PAGE_SIZE,
                    block_pages: int = BLOCK_PAGES):
    """Derive a multi-chiplet platform from a flat ``GpuConfig``.

    The variant keeps every architectural parameter (total SMs, cache
    geometry, latencies) and attaches a :class:`ChipletTopology`; its
    name gains an ``xN`` suffix so engine content hashes — which carry
    the platform *name* — capture the topology.  ``chiplets=1`` returns
    ``base`` itself: a 1-chiplet package *is* the flat die, and keeping
    the object (and name) identical is what makes the golden
    fingerprints provably unchanged.
    """
    if chiplets < 1:
        raise ValueError(f"chiplets must be >= 1, got {chiplets}")
    if chiplets == 1:
        return base
    block_bytes = page_size * block_pages
    if block_bytes < 1 or block_bytes % base.l1_line \
            or block_bytes % base.l2_line:
        raise ValueError(
            f"page_size * block_pages = {block_bytes} bytes must be a "
            f"positive multiple of {base.name}'s {base.l1_line}-byte L1 "
            f"and {base.l2_line}-byte L2 lines")
    topo = ChipletTopology(
        chiplets=chiplets,
        hop_latency=ChipletTopology.hop_latency if hop_latency is None
        else hop_latency,
        hop_service=ChipletTopology.hop_service if hop_service is None
        else hop_service,
        page_size=page_size, block_pages=block_pages)
    return replace(base, name=f"{base.name}x{chiplets}", topology=topo)


def _cluster_affinity(tasks, kernel, config, topo) -> "dict[int, int]":
    """Distinct-L2-line footprint of one cluster, per owning chiplet.

    Each CTA's footprint (the union of its compiled ops' L2 lines,
    ``op[3]``) is split by owner once per (line geometry, topology)
    and memoized on the kernel (:meth:`KernelSpec.footprint_by_owner`);
    a cluster's count for chiplet ``k`` is the size of the union of
    its CTAs' chiplet-``k`` sets, so a line two CTAs share counts
    once.  Chiplets owning none of the footprint are left out.
    """
    splits = [kernel.footprint_by_owner(cta, config.l1_line,
                                        config.l2_line, topo)
              for cta in tasks]
    affinity = {}
    for owner in range(topo.chiplets):
        count = len(frozenset().union(*[split[owner] for split in splits]))
        if count:
            affinity[owner] = count
    return affinity


def _static_remote(assignment, affinities) -> int:
    """Total footprint lines bound remotely under one assignment."""
    remote = 0
    for cluster, chiplet in enumerate(assignment):
        affinity = affinities[cluster]
        remote += sum(count for owner, count in affinity.items()
                      if owner != chiplet)
    return remote


def _greedy_assignment(affinities, slots, *, balance: bool) -> "list[int]":
    """Bind clusters to chiplets: most-decided clusters claim slots first.

    ``slots[k]`` is chiplet ``k``'s SM capacity.  Clusters are visited
    in descending order of how much they *care* (the gap between their
    best and second-best chiplet), so contended slots go to the
    clusters with the most locality at stake; ties break on cluster id,
    keeping the whole assignment deterministic.
    """
    chiplets = len(slots)
    total_lines = sum(sum(a.values()) for a in affinities) or 1
    order = []
    for cluster, affinity in enumerate(affinities):
        counts = sorted(affinity.values(), reverse=True)
        margin = (counts[0] - (counts[1] if len(counts) > 1 else 0)) \
            if counts else 0
        order.append((-margin, cluster))
    order.sort()
    free = list(slots)
    load = [0] * chiplets
    assignment = [0] * len(affinities)
    for _, cluster in order:
        affinity = affinities[cluster]
        best_k, best_score = None, None
        for k in range(chiplets):
            if free[k] <= 0:
                continue
            score = affinity.get(k, 0) / total_lines
            if balance:
                score -= load[k] / total_lines
            if best_score is None or score > best_score:
                best_k, best_score = k, score
        assignment[cluster] = best_k
        free[best_k] -= 1
        load[best_k] += sum(affinity.values())
    return assignment


def _permute(sm_tasks, assignment, groups) -> "list":
    """Materialize an assignment as a per-SM task-list permutation.

    Within each chiplet, clusters land on SM ids in ascending cluster
    order — the per-chiplet analogue of the flat binding's
    "cluster index = SM id" rule.
    """
    placed = list(sm_tasks)
    pending = [[] for _ in groups]
    for cluster, chiplet in enumerate(assignment):
        pending[chiplet].append(cluster)
    for chiplet, clusters in enumerate(pending):
        for sm, cluster in zip(groups[chiplet], clusters):
            placed[sm] = sm_tasks[cluster]
    return placed


def _place_oblivious(sm_tasks, topo, config, kernel):
    return list(sm_tasks)


def _place_local_first(sm_tasks, topo, config, kernel):
    groups = topo.sms_of_chiplet(len(sm_tasks))
    affinities = [_cluster_affinity(tasks, kernel, config, topo)
                  for tasks in sm_tasks]
    slots = [len(g) for g in groups]
    greedy = _greedy_assignment(affinities, slots, balance=False)
    identity = [topo.chiplet_of_sm(sm, len(sm_tasks))
                for sm in range(len(sm_tasks))]
    # The greedy bind optimizes the static page-ownership count; if
    # slot contention ever leaves it no better than the flat binding,
    # keep the flat binding — local-first must never lose locality.
    if _static_remote(greedy, affinities) >= \
            _static_remote(identity, affinities):
        return list(sm_tasks)
    return _permute(sm_tasks, greedy, groups)


def _place_balanced(sm_tasks, topo, config, kernel):
    groups = topo.sms_of_chiplet(len(sm_tasks))
    affinities = [_cluster_affinity(tasks, kernel, config, topo)
                  for tasks in sm_tasks]
    slots = [len(g) for g in groups]
    greedy = _greedy_assignment(affinities, slots, balance=True)
    return _permute(sm_tasks, greedy, groups)


#: Placement-policy registry: name -> binding permutation.
PLACEMENTS = {
    "oblivious": _place_oblivious,
    "local-first": _place_local_first,
    "balanced": _place_balanced,
}

#: One-line purpose per policy, for ``--list`` and reports.
PLACEMENT_DESCRIPTIONS = {
    "oblivious": "flat single-die binding; ignores chiplet ownership",
    "local-first": "co-locate each cluster with the chiplet owning "
                   "most of its pages",
    "balanced": "locality greedy discounted by per-chiplet footprint "
                "load",
}

#: Named topology presets, for ``--list`` and the experiment drivers.
TOPOLOGIES = {
    "single-die": None,
    "2-chiplet": ChipletTopology(chiplets=2),
    "4-chiplet": ChipletTopology(chiplets=4),
}


def resolve_placement(name: "str | None") -> str:
    """Normalize a placement-policy name (``None`` -> ``oblivious``)."""
    if name is None:
        return "oblivious"
    if name not in PLACEMENTS:
        raise ValueError(f"unknown placement policy {name!r}; "
                         f"known: {sorted(PLACEMENTS)}")
    return name


def place_tasks(sm_tasks, policy: "str | None", topo, config, kernel):
    """Apply one placement policy to a placed plan's task lists.

    A trivial topology (or ``None``) always returns the lists
    unchanged, whatever the policy — there is nothing to place on a
    single die.
    """
    policy = resolve_placement(policy)
    if topo is None or topo.is_trivial:
        return list(sm_tasks)
    return PLACEMENTS[policy](list(sm_tasks), topo, config, kernel)
