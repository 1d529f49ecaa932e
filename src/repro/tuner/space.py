"""The clustering configuration space the tuner searches.

A :class:`ConfigPoint` names one complete clustering configuration
with plain scalars — scheme kind, partition direction, throttling
degree, bypass, cluster tile — exactly the knobs the paper's
evaluation varies per kernel x architecture.  Points are frozen,
hashable and canonically ordered, so every strategy that walks the
space is deterministic and every point maps 1:1 onto a declarative
``measure`` :class:`~repro.engine.job.SimJob` (the tuner's unit of
evaluation, which is what makes candidate evaluations parallel,
cached and bit-reproducible).

:class:`SearchSpace` binds the abstract axes to one (workload, GPU)
pair: it knows the kernel's MAX_AGENTS (which bounds the throttling
axis), enumerates the valid points in one canonical order, produces
the coordinate-descent neighborhoods for hill climbing, and builds
the live :class:`~repro.gpu.plan.ExecutionPlan` for a winning point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.planner import PLAN_KINDS, SCHEME_TABLE
from repro.core.throttling import throttle_candidates
from repro.engine.executors import estimate_job as build_estimate_job
from repro.engine.executors import measure_job, measure_plan
from repro.engine.job import SimJob
from repro.gpu.config import GpuConfig, platform
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import ExecutionPlan

#: Scheme kinds, in canonical (enumeration) order.  Each is a scheme
#: family of :data:`repro.core.planner.PLAN_KINDS` and maps onto its
#: ``measure`` plan kind: BSL -> baseline, RD -> redirection, CLU ->
#: agent clustering (with throttle/bypass/tile sub-axes), PFH ->
#: reshaped order + prefetching.
KINDS = tuple(PLAN_KINDS)

#: Partition directions, canonical order (Table 2 spells Y-P first).
DIRECTIONS = ("Y-P", "X-P")

#: Cluster tile dimensions offered on the tile axis (``None`` =
#: direction-partitioned clusters, the common case).
DEFAULT_TILES = ((2, 2), (4, 4), (8, 8))


@dataclass(frozen=True)
class ConfigPoint:
    """One clustering configuration, named entirely with scalars.

    ``active_agents`` is the throttling degree (``None`` = MAX_AGENTS,
    i.e. unthrottled); ``tile`` switches CLU to tile-wise indexing (in
    which case ``direction`` is ``None`` — the tile partitions both
    dimensions at once).  Invalid combinations are normalized away by
    :meth:`SearchSpace.normalize` rather than rejected, so strategy
    moves always land on a meaningful point.
    """

    kind: str = "BSL"
    direction: "str | None" = None
    active_agents: "int | None" = None
    bypass: bool = False
    tile: "tuple[int, int] | None" = None
    #: Chiplet placement policy (``None`` = the canonical oblivious
    #: binding; only meaningful for CLU points on chiplet platforms).
    placement: "str | None" = None

    def sort_key(self) -> tuple:
        """Canonical total order (used for deterministic tie-breaks)."""
        return (KINDS.index(self.kind),
                self.direction or "",
                -1 if self.active_agents is None else self.active_agents,
                self.bypass,
                self.tile or (),
                self.placement or "")

    def label(self) -> str:
        """Figure-12-style human-readable scheme label."""
        if self.kind == "BSL":
            return "BSL"
        parts = []
        if self.kind == "RD":
            name = "RD"
        elif self.kind == "PFH":
            name = "PFH+TOT" if self.active_agents is not None else "PFH"
        else:
            name = "CLU" if self.active_agents is None else "CLU+TOT"
            if self.bypass:
                name += "+BPS"
        if self.tile is not None:
            parts.append(f"tile={self.tile[0]}x{self.tile[1]}")
        elif self.direction is not None:
            parts.append(self.direction)
        if self.active_agents is not None:
            parts.append(f"agents={self.active_agents}")
        if self.placement is not None:
            parts.append(self.placement)
        return name if not parts else f"{name}[{','.join(parts)}]"


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration: the point plus what it measured.

    Everything here is a plain scalar/tuple, so candidates pickle
    across pool workers, cache cleanly, and render to JSON through the
    service unchanged.  ``score`` is the objective value (lower is
    better); ``fidelity`` names the measurement rung the evaluation
    ran at (``"analytic"``/``"reduced"``/``"full"`` — see
    :mod:`repro.fidelity`); ``source`` is ``"framework"`` for the
    rule-based warm start and ``"search"`` for strategy-discovered
    points.
    """

    point: ConfigPoint
    score: float
    cycles: float
    l1_hit_rate: float
    l2_transactions: int
    dram_transactions: int
    fidelity: str = "full"
    source: str = "search"

    @property
    def scheme(self) -> str:
        return self.point.label()

    def rank_key(self) -> tuple:
        """Deterministic leaderboard order: score, then canonical point."""
        return (self.score, self.point.sort_key())


@dataclass(frozen=True)
class SearchSpace:
    """The valid configuration points of one (workload, GPU) pair."""

    workload: str
    gpu: str
    max_agents: int
    tiles: "tuple[tuple[int, int], ...]" = DEFAULT_TILES
    #: The placement axis: values CLU points may take (``None`` is the
    #: canonical oblivious spelling).  Flat platforms offer only
    #: ``(None,)``, so their enumeration is exactly the pre-chiplet
    #: space; ``tune(placement=...)`` pins the axis to a single value.
    placements: "tuple[str | None, ...]" = (None,)

    @classmethod
    def for_workload(cls, workload: str, gpu: str, *, scale: float = 1.0,
                     tiles=DEFAULT_TILES,
                     placement: str = None) -> "SearchSpace":
        """Bind the space to a registry workload on a named platform."""
        from repro.gpu.topology import PLACEMENTS, resolve_placement
        from repro.workloads.registry import workload as lookup
        config = platform(gpu) if not isinstance(gpu, GpuConfig) else gpu
        kernel = lookup(workload).kernel(scale=scale, config=config)
        chipleted = (config.topology is not None
                     and not config.topology.is_trivial)
        if placement is not None:
            pinned = resolve_placement(placement)
            placements = (None,) if pinned == "oblivious" \
                else (pinned if chipleted else None,)
        elif chipleted:
            placements = (None,) + tuple(
                sorted(p for p in PLACEMENTS if p != "oblivious"))
        else:
            placements = (None,)
        return cls(workload=workload, gpu=config.name,
                   max_agents=max_ctas_per_sm(config, kernel),
                   tiles=tuple(tuple(t) for t in tiles),
                   placements=placements)

    # ------------------------------------------------------------------
    # axes
    # ------------------------------------------------------------------

    def agent_degrees(self) -> "tuple[int, ...]":
        """The throttling axis: powers of two up to MAX_AGENTS."""
        return tuple(throttle_candidates(self.max_agents))

    def normalize(self, point: ConfigPoint) -> ConfigPoint:
        """Clamp a point onto the nearest valid configuration.

        Normalization is what lets strategies vary one axis at a time
        without tracking validity rules: BSL clears every sub-axis, RD
        keeps only the direction, PFH drops bypass/tile, tile-wise CLU
        drops the direction, and out-of-range throttle degrees snap to
        the nearest valid degree.
        """
        kind = point.kind
        if kind not in KINDS:
            raise KeyError(f"unknown scheme kind {kind!r}; known: {KINDS}")
        if kind == "BSL":
            return ConfigPoint(kind="BSL")
        direction = point.direction or DIRECTIONS[0]
        agents = point.active_agents
        if agents is not None:
            degrees = self.agent_degrees()
            agents = min(degrees, key=lambda d: (abs(d - agents), d))
            if agents == self.max_agents and kind == "CLU":
                agents = None  # unthrottled CLU is the canonical spelling
        if kind == "RD":
            return ConfigPoint(kind="RD", direction=direction)
        if kind == "PFH":
            return ConfigPoint(kind="PFH", direction=direction,
                               active_agents=agents)
        placement = point.placement
        if placement == "oblivious":
            placement = None
        if placement not in self.placements:
            placement = self.placements[0]
        if point.tile is not None:
            return ConfigPoint(kind="CLU", direction=None,
                               active_agents=agents, bypass=point.bypass,
                               tile=tuple(point.tile), placement=placement)
        return ConfigPoint(kind="CLU", direction=direction,
                           active_agents=agents, bypass=point.bypass,
                           placement=placement)

    def points(self) -> "list[ConfigPoint]":
        """Every valid point, in one canonical enumeration order."""
        out = [ConfigPoint(kind="BSL")]
        for d in DIRECTIONS:
            out.append(ConfigPoint(kind="RD", direction=d))
        degrees = (None,) + tuple(
            a for a in self.agent_degrees() if a != self.max_agents)
        for placement in self.placements:
            for bypass in (False, True):
                for d in DIRECTIONS:
                    for agents in degrees:
                        out.append(ConfigPoint(kind="CLU", direction=d,
                                               active_agents=agents,
                                               bypass=bypass,
                                               placement=placement))
                for tile in self.tiles:
                    for agents in degrees:
                        out.append(ConfigPoint(kind="CLU",
                                               active_agents=agents,
                                               bypass=bypass, tile=tile,
                                               placement=placement))
        for d in DIRECTIONS:
            for agents in degrees:
                out.append(ConfigPoint(kind="PFH", direction=d,
                                       active_agents=agents))
        return out

    #: Coordinate-descent axis order for the hill climber.
    AXES = ("kind", "direction", "active_agents", "bypass", "tile",
            "placement")

    def axis_variants(self, point: ConfigPoint,
                      axis: str) -> "list[ConfigPoint]":
        """All valid points that differ from ``point`` along one axis.

        The returned list includes the (normalized) current point —
        the evaluator has it cached, and keeping it in the pool makes
        "no move" the natural outcome of a tie.
        """
        point = self.normalize(point)
        if axis == "kind":
            raw = [replace(point, kind=k) for k in KINDS]
        elif axis == "direction":
            if point.kind == "BSL" or point.tile is not None:
                return [point]
            raw = [replace(point, direction=d) for d in DIRECTIONS]
        elif axis == "active_agents":
            if point.kind in ("BSL", "RD"):
                return [point]
            raw = [replace(point, active_agents=a)
                   for a in (None,) + self.agent_degrees()]
        elif axis == "bypass":
            if point.kind != "CLU":
                return [point]
            raw = [replace(point, bypass=b) for b in (False, True)]
        elif axis == "tile":
            if point.kind != "CLU":
                return [point]
            raw = [replace(point, tile=t, direction=point.direction
                           or DIRECTIONS[0])
                   for t in (None,) + self.tiles]
        elif axis == "placement":
            if point.kind != "CLU" or len(self.placements) < 2:
                return [point]
            raw = [replace(point, placement=p) for p in self.placements]
        else:
            raise KeyError(f"unknown axis {axis!r}; known: {self.AXES}")
        seen, out = set(), []
        for candidate in (self.normalize(p) for p in raw):
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out

    # ------------------------------------------------------------------
    # point -> engine job / live plan
    # ------------------------------------------------------------------

    def _knobs(self, point: ConfigPoint) -> dict:
        """The ``measure``/``estimate`` job knobs that name one point."""
        point = self.normalize(point)
        return {"plan": PLAN_KINDS[point.kind], "direction": point.direction,
                "active_agents": point.active_agents,
                "bypass_streams": point.bypass, "tile": point.tile,
                "placement": point.placement}

    def job(self, point: ConfigPoint, *, scale: float, seed: int = 0,
            warmups: int = 1) -> SimJob:
        """The declarative ``measure`` job that evaluates one point."""
        return measure_job(self.workload, self.gpu, scale=scale, seed=seed,
                           warmups=warmups, **self._knobs(point))

    def estimate_job(self, point: ConfigPoint, *, scale: float, seed: int = 0,
                     warmups: int = 1) -> SimJob:
        """The declarative rung-0 ``estimate`` job for one point.

        Same plan knobs as :meth:`job`, but the executor runs the
        closed-form model of :mod:`repro.gpu.analytic` instead of the
        simulator — which is what lets the tuner triage configurations
        without spending simulation budget.
        """
        return build_estimate_job(self.workload, self.gpu, scale=scale,
                                  seed=seed, warmups=warmups,
                                  **self._knobs(point))

    def plan(self, point: ConfigPoint, *, scale: float = 1.0) -> ExecutionPlan:
        """The live execution plan :meth:`job`'s simulation runs."""
        return measure_plan(self.job(point, scale=scale))[2]


def point_from_decision(summary, space: SearchSpace) -> ConfigPoint:
    """The framework's rule-based pick as a configuration point.

    ``summary`` is a :class:`~repro.core.framework.DecisionSummary`;
    the returned point is the hill climber's warm start and every
    strategy's guaranteed candidate, which is what makes the tuner
    regression-free against the Fig.-11 rules.
    """
    agents = summary.active_agents or None
    if agents is not None and summary.max_agents \
            and agents >= summary.max_agents:
        agents = None
    # Normalizing drops the knobs the scheme's family does not take.
    return space.normalize(ConfigPoint(
        kind=summary.scheme.split("+")[0],
        direction=summary.direction.name, active_agents=agents,
        bypass=SCHEME_TABLE[summary.scheme].bypass))
