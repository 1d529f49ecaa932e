"""One scheme planner: every scheme name and plan knob becomes a plan here.

The Figure-12 schemes (:data:`SCHEMES`) and the *plan kinds* that
``measure``/``estimate`` jobs and the tuner name with explicit knobs
(:data:`PLAN_KINDS`) both become an ExecutionPlan through
:func:`build_plan`, so the facade, the Figure-12 driver, the engine
and the tuner cannot drift apart.  Callers supply only the partition
direction (Table 2 via :func:`partition_for`, or the dependency
analysis) and a throttled scheme's degree (the vote, or a value).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import agent_plan
from repro.core.dependence import analyze_direction
from repro.core.indexing import TileWiseIndexing
from repro.core.indexing import direction as lookup_direction
from repro.core.prefetch import prefetch_plan
from repro.core.redirection import redirection_plan
from repro.gpu.plan import ExecutionPlan, baseline_plan

#: Plan kinds, keyed by scheme family: the first ``+``-part of a
#: scheme name, which is also the tuner's ``ConfigPoint.kind``.
PLAN_KINDS = {"BSL": "baseline", "RD": "rd", "CLU": "clu", "PFH": "pfh"}


@dataclass(frozen=True)
class Scheme:
    """One named scheme: plan kind, throttled or not, stream bypass."""

    name: str
    kind: str
    throttled: bool = False
    bypass: bool = False


#: The paper's schemes, in Figure 12/13 bar order.
SCHEME_TABLE = {s.name: s for s in (
    Scheme("BSL", "baseline"),  # untouched kernel, hardware scheduler
    Scheme("RD", "rd"),  # redirection-based clustering (Listing 4)
    Scheme("CLU", "clu"),  # agent-based clustering (Listing 5)
    Scheme("CLU+TOT", "clu", throttled=True),  # + throttling (4.3-I)
    Scheme("CLU+TOT+BPS", "clu", throttled=True, bypass=True),
    Scheme("PFH+TOT", "pfh", throttled=True),  # + prefetch (4.3-III)
)}

#: The scheme names, as ``repro.cluster``/``repro.simulate`` accept them.
SCHEMES = tuple(SCHEME_TABLE)


def partition_for(workload, kernel):
    """Table-2 partition direction, or dependency analysis fallback."""
    if workload.table2 is not None:
        return lookup_direction(workload.table2.partition)
    return analyze_direction(kernel).direction


def check_label(scheme: "str | None", kind: str) -> None:
    """A plan kind's ``scheme`` label, if any, must name a scheme of it."""
    entry = SCHEME_TABLE.get(scheme)
    if scheme is not None and (entry is None or entry.kind != kind):
        raise ValueError(f"scheme {scheme!r} is not a {kind!r} plan; "
                         f"known: {SCHEMES}")


def build_plan(kernel, config, scheme: str, *, direction=None,
               active_agents: int = None, bypass: bool = False,
               tile: "tuple[int, int]" = None, placement: str = None,
               label: str = None) -> ExecutionPlan:
    """The plan a scheme name or a plan kind names.

    A scheme name fixes the kind, bypass and label, and drops
    ``active_agents`` unless throttled.  A plan kind takes the knobs as
    given; ``label`` (see :func:`check_label`) names a CLU plan, which
    otherwise labels itself.  ``direction`` is a partition direction or
    its name; ``active_agents`` of ``None`` is the maximum.  ``tile``,
    ``bypass`` and ``placement`` shape only CLU plans.
    """
    entry = SCHEME_TABLE.get(scheme)
    if entry is not None:
        kind, bypass, label = entry.kind, entry.bypass, entry.name
        if not entry.throttled:
            active_agents = None
    elif scheme in PLAN_KINDS.values():
        kind = scheme
        check_label(label, kind)
    else:
        raise KeyError(f"unknown scheme or plan kind {scheme!r}; known: "
                       f"{SCHEMES} and {tuple(PLAN_KINDS.values())}")
    if kind == "baseline":
        return baseline_plan()
    if isinstance(direction, str):
        direction = lookup_direction(direction)
    if kind == "rd":
        return redirection_plan(kernel, config, direction)
    if kind == "pfh":
        return prefetch_plan(kernel, config, direction,
                             active_agents=active_agents)
    indexing = None
    if tile is not None:
        width, height = (int(v) for v in tile)
        indexing = TileWiseIndexing(kernel.grid, tile_w=width,
                                    tile_h=height)
    return agent_plan(kernel, config, direction, indexing=indexing,
                      active_agents=active_agents, bypass_streams=bypass,
                      scheme=label, placement=placement)
