"""Request canonicalization: JSON bodies become engine ``SimJob``s.

This module is the service's validation boundary.  Every request body
is checked against the registries *before* any work is admitted —
unknown workloads, platforms, schemes or job kinds answer 400 with the
known names, never a traceback from deep inside a worker — and the
resulting :class:`~repro.engine.job.SimJob` content hash is what the
single-flight table and the persistent cache key on, so two requests
that mean the same computation collapse no matter how their JSON was
spelled (key order, int-vs-float scale, defaulted fields).  The served
kinds and how each is answered are one table, :data:`KINDS`.

The reverse direction lives here too: :func:`jsonable` renders any
executor result into plain JSON, with ``KernelMetrics`` going through
:func:`~repro.gpu.metrics.canonical_metrics` so a served ``simulate``
response is *bit-comparable* to an in-process call.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable

from repro.core.planner import (PLAN_KINDS, SCHEME_TABLE, SCHEMES,
                                check_label)
from repro.engine.executors import (
    bound_job,
    cluster_job,
    cotenant_job,
    estimate_job,
    simulate_job,
    tune_job,
)
from repro.engine.job import SimJob
from repro.gpu.metrics import KernelMetrics, canonical_metrics
from repro.gpu.scheduler import SCHEDULERS
from repro.gpu.topology import PLACEMENTS, TOPOLOGIES
from repro.service.config import ServiceConfig
from repro.service.httpio import HttpError
from repro.workloads.base import MAX_SCALE


def _bad(field: str, message: str) -> HttpError:
    return HttpError(400, "bad_request",
                     f"invalid {field!r}: {message}")


def _string(payload: dict, field: str, *, required: bool = False,
            default: str = None) -> "str | None":
    value = payload.get(field, default)
    if value is None:
        if required:
            raise _bad(field, "field is required")
        return None
    if not isinstance(value, str):
        raise _bad(field, f"expected a string, got {type(value).__name__}")
    return value


def _number(payload: dict, field: str, default, *, cast=float,
            minimum=None, maximum=None):
    value = payload.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(field, f"expected a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise _bad(field, f"expected a finite number, got {value}")
    try:
        value = cast(value)
    except OverflowError:
        raise _bad(field, "number out of range") from None
    if minimum is not None and value < minimum:
        raise _bad(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _bad(field, f"must be <= {maximum}, got {value}")
    return value


def _check_workload(abbr: str) -> str:
    from repro.workloads.registry import REGISTRY
    if abbr not in REGISTRY:
        raise _bad("workload", f"unknown workload {abbr!r}; "
                               f"known: {sorted(REGISTRY)}")
    return abbr


def _check_gpu(name: str) -> str:
    from repro.gpu.config import PLATFORMS
    if name not in PLATFORMS:
        raise _bad("gpu", f"unknown platform {name!r}; "
                          f"known: {sorted(PLATFORMS)}")
    return name


def _check_scheme(name: "str | None", *, required: bool) -> "str | None":
    if name is None:
        if required:
            raise _bad("scheme", "field is required")
        return None
    if name not in SCHEMES:
        raise _bad("scheme", f"unknown scheme {name!r}; known: {SCHEMES}")
    return name


def _check_topology(name: "str | None") -> "str | None":
    from repro.gpu.topology import TOPOLOGIES
    if name is None:
        return None
    if name not in TOPOLOGIES:
        raise _bad("topology", f"unknown topology {name!r}; "
                               f"known: {sorted(TOPOLOGIES)}")
    return name


def _check_placement(name: "str | None") -> "str | None":
    from repro.gpu.topology import PLACEMENTS
    if name is None:
        return None
    if name not in PLACEMENTS:
        raise _bad("placement", f"unknown placement {name!r}; "
                                f"known: {sorted(PLACEMENTS)}")
    return name


def _scale(payload: dict) -> float:
    return _number(payload, "scale", 1.0, minimum=1e-6, maximum=MAX_SCALE)


def _seed(payload: dict) -> int:
    return _number(payload, "seed", 0, cast=int, minimum=0)


def _warmups(payload: dict) -> int:
    return _number(payload, "warmups", 1, cast=int, minimum=0, maximum=8)


def _scheme_request(payload: dict) -> dict:
    """The fields ``/v1/simulate`` and ``/v1/estimate`` share, read by
    one set of checks so both reject malformed input identically."""
    return {
        "workload": _check_workload(_string(payload, "workload",
                                            required=True)),
        "gpu": _check_gpu(_string(payload, "gpu", required=True)),
        "scheme": _check_scheme(_string(payload, "scheme"), required=False),
        "scale": _scale(payload),
        "seed": _seed(payload),
        "warmups": _warmups(payload),
        "topology": _check_topology(_string(payload, "topology")),
        "placement": _check_placement(_string(payload, "placement")),
    }


def build_simulate_job(payload: dict) -> SimJob:
    """``POST /v1/simulate`` body -> a canonical ``simulate`` job."""
    return simulate_job(**_scheme_request(payload))


def build_estimate_job(payload: dict) -> SimJob:
    """``POST /v1/estimate`` body -> a canonical ``estimate`` job
    (the ``/v1/simulate`` request shape, answered by the analytic
    model)."""
    return estimate_job(**_scheme_request(payload))


def build_bound_job(payload: dict) -> SimJob:
    """``POST /v1/bound`` body -> a canonical ``bound`` job.

    Deliberately the smallest request shape of the family: the
    reuse-graph bound is schedule-free, so there is no scheme, seed or
    warmup axis to validate — one (workload, gpu, scale, topology)
    quadruple is the whole configuration space.
    """
    workload = _check_workload(_string(payload, "workload", required=True))
    gpu = _check_gpu(_string(payload, "gpu", required=True))
    scale = _scale(payload)
    l2_divisor = _number(payload, "l2_divisor", 1, cast=int, minimum=1)
    topology = _check_topology(_string(payload, "topology"))
    return bound_job(workload, gpu, scale=scale, l2_divisor=l2_divisor,
                     topology=topology)


def build_cotenant_job(payload: dict) -> SimJob:
    """``POST /v1/cotenant`` body -> a canonical ``cotenant`` job."""
    from repro.tenancy import POLICIES, TENANT_SCHEMES
    gpu = _check_gpu(_string(payload, "gpu", required=True))
    policy = _string(payload, "policy", default="shared")
    if policy not in POLICIES:
        raise _bad("policy", f"unknown policy {policy!r}; "
                             f"known: {POLICIES}")
    seed = _seed(payload)
    warmups = _warmups(payload)
    entries = payload.get("tenants")
    if not isinstance(entries, list) or not entries:
        raise _bad("tenants", "expected a non-empty list of tenant "
                              "descriptors")
    tenants = []
    for index, entry in enumerate(entries):
        field = f"tenants[{index}]"
        if isinstance(entry, str):
            entry = {"workload": entry}
        if not isinstance(entry, dict):
            raise _bad(field, "expected an object or a workload "
                              "abbreviation")
        _check_workload(_string(entry, "workload", required=True))
        scheme = _string(entry, "scheme", default="BSL")
        if scheme not in TENANT_SCHEMES:
            raise _bad(field, f"unknown tenant scheme {scheme!r}; "
                              f"known: {TENANT_SCHEMES}")
        _scale(entry)
        _seed(entry)
        _number(entry, "active_agents", None, cast=int, minimum=1)
        bypass = entry.get("bypass", False)
        if not isinstance(bypass, bool):
            raise _bad(field, f"'bypass' must be a boolean, "
                              f"got {type(bypass).__name__}")
        tenants.append(entry)
    try:
        return cotenant_job(tenants, gpu, policy=policy, seed=seed,
                            warmups=warmups)
    except (ValueError, KeyError) as exc:
        raise _bad("tenants", str(exc)) from None


def _check_agents(workload: str, config, scale: float, agents: int) -> None:
    """``active_agents`` must fit the kernel's occupancy on ``config``;
    the plan builders raise past it, which would be a failed job."""
    from repro.gpu.occupancy import max_ctas_per_sm
    from repro.workloads.registry import workload as lookup
    kernel = lookup(workload).kernel(scale=scale, config=config)
    most = max_ctas_per_sm(config, kernel)
    if agents > most:
        raise _bad("active_agents", f"must be <= {most} for {workload} "
                                    f"on {config.name}, got {agents}")


def build_cluster_job(payload: dict) -> SimJob:
    """``POST /v1/cluster`` body -> a canonical ``cluster`` job."""
    workload = _check_workload(_string(payload, "workload", required=True))
    gpu = _check_gpu(_string(payload, "gpu", required=True))
    scheme = _check_scheme(_string(payload, "scheme", default="CLU"),
                           required=True)
    direction = _string(payload, "direction")
    if direction is not None and direction not in ("X-P", "Y-P"):
        raise _bad("direction", f"expected 'X-P' or 'Y-P', got {direction!r}")
    active_agents = _number(payload, "active_agents", None, cast=int,
                            minimum=1)
    seed = _seed(payload)
    topology = _check_topology(_string(payload, "topology"))
    placement = _check_placement(_string(payload, "placement"))
    if active_agents is not None and SCHEME_TABLE[scheme].throttled:
        from repro.api import apply_topology
        from repro.gpu.config import platform
        config = platform(gpu)
        if topology is not None:
            config = apply_topology(config, topology)
        # The facade plans a registry workload at scale 1.0.
        _check_agents(workload, config, 1.0, active_agents)
    return cluster_job(workload, gpu, scheme=scheme, direction=direction,
                       active_agents=active_agents, seed=seed,
                       topology=topology, placement=placement)


def build_tune_job(payload: dict, *, max_budget: int) -> SimJob:
    """``POST /v1/tune`` body -> a canonical ``tune`` job.

    The job content hash covers strategy, objective, budget and seed,
    so identical tuning requests collapse through the single-flight
    table and the persistent cache exactly like ``simulate`` requests
    do — and the candidate evaluations the search performs inside the
    worker persist in the engine's shared result cache, so overlapping
    tunes (same workload, different strategy) share simulations.
    """
    from repro.tuner import OBJECTIVES, STRATEGIES
    workload = _check_workload(_string(payload, "workload", required=True))
    gpu = _check_gpu(_string(payload, "gpu", required=True))
    objective = _string(payload, "objective", default="cycles")
    if objective not in OBJECTIVES:
        raise _bad("objective", f"unknown objective {objective!r}; "
                                f"known: {sorted(OBJECTIVES)}")
    strategy = _string(payload, "strategy", default="hillclimb")
    if strategy not in STRATEGIES:
        raise _bad("strategy", f"unknown strategy {strategy!r}; "
                               f"known: {sorted(STRATEGIES)}")
    budget = _number(payload, "budget", 24, cast=int, minimum=1,
                     maximum=max_budget)
    return tune_job(workload, gpu, objective=objective, strategy=strategy,
                    budget=budget, scale=_scale(payload),
                    seed=_seed(payload), warmups=_warmups(payload))


@dataclasses.dataclass(frozen=True)
class JobKind:
    """One served job kind, ``POST /v1/<name>``.

    ``lane`` says how a request is answered: ``"pool"`` kinds ride the
    full pipeline (single-flight dedup, cache, admission, micro-batch,
    worker pool); ``"inline"`` kinds are cheap enough to answer on a
    loop-adjacent thread (cache, then execute) and never touch the
    queue, so they keep answering while the pool is saturated, and
    each gets its own ``/metrics`` funnel.  ``field`` names the
    response envelope member carrying the value.
    """

    name: str
    builder: Callable[..., SimJob]
    lane: str = "pool"
    field: str = "result"
    capped: bool = False  # the builder takes the tune budget cap

    def build(self, payload: dict, *, max_tune_budget: int) -> SimJob:
        if self.capped:
            return self.builder(payload, max_budget=max_tune_budget)
        return self.builder(payload)


#: Every served job kind.  The service's and the router's ``/v1/<kind>``
#: routes, sweep-entry validation and the inline-lane ``/metrics``
#: sections are all derived from this table.
KINDS = {kind.name: kind for kind in (
    JobKind("simulate", build_simulate_job),
    JobKind("estimate", build_estimate_job, lane="inline"),
    JobKind("bound", build_bound_job, lane="inline"),
    JobKind("cotenant", build_cotenant_job),
    JobKind("cluster", build_cluster_job, field="plan"),
    JobKind("tune", build_tune_job, capped=True),
)}


def build_sweep_jobs(payload: dict, *, max_jobs: int,
                     max_tune_budget: int = ServiceConfig.max_tune_budget
                     ) -> "list[SimJob]":
    """``POST /v1/sweep`` body -> the canonical job list.

    An entry of a served kind (:data:`KINDS`) goes through that kind's
    own builder, under the same limits as its endpoint; its ``extras``,
    if any, are read as further request fields.  An engine kind of
    :data:`ENGINE_KINDS` takes the full descriptor shape (``kind`` plus
    the shared fields and ``extras``), checked against that kind's
    fields.
    """
    entries = payload.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise _bad("jobs", "expected a non-empty list of job descriptors")
    if len(entries) > max_jobs:
        raise HttpError(413, "too_many_jobs",
                        f"sweep of {len(entries)} jobs exceeds the "
                        f"{max_jobs}-job per-request limit")
    jobs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _bad(f"jobs[{index}]", "expected an object")
        try:
            jobs.append(_build_one(entry, max_tune_budget))
        except HttpError as exc:
            raise HttpError(exc.status, exc.code,
                            f"jobs[{index}]: {exc.message}",
                            detail=exc.detail) from None
    return jobs


def _flag(extras: dict, field: str) -> None:
    value = extras.get(field)
    if value is not None and not isinstance(value, bool):
        raise _bad(field, f"expected a boolean, got {type(value).__name__}")


def _at_least(minimum, cast=int):
    def check(extras: dict, field: str) -> None:
        _number(extras, field, None, cast=cast, minimum=minimum)
    return check


def _choice(names):
    def check(extras: dict, field: str) -> None:
        value = _string(extras, field)
        if value is not None and value not in names:
            raise _bad(field, f"unknown value {value!r}; "
                              f"known: {sorted(names)}")
    return check


def _tile(extras: dict, field: str) -> None:
    value = extras.get(field)
    if value is None:
        return
    if not isinstance(value, list) or len(value) != 2:
        raise _bad(field, "expected [width, height]")
    for index in range(2):
        _number({field: value[index]}, field, None, cast=int, minimum=1)


def _scheme_list(extras: dict, field: str) -> None:
    value = extras.get(field)
    if value is None:
        return
    if not isinstance(value, list) or not value:
        raise _bad(field, "expected a non-empty list of scheme names")
    for name in value:
        if not isinstance(name, str) or name not in SCHEMES:
            raise _bad(field, f"unknown scheme {name!r}; "
                              f"known: {list(SCHEMES)}")


def _measure_check(job: SimJob) -> None:
    """A ``measure`` job's scheme label must name a scheme of its plan
    kind, its platform knobs must build a platform and an L1, and its
    ``active_agents`` must fit the kernel — checked here, not in a
    worker."""
    from repro.engine.executors import _platform_for
    from repro.gpu.cache import make_l1
    kind = job.extra("plan", "baseline")
    try:
        check_label(job.scheme, kind)
    except ValueError as exc:
        raise _bad("scheme", str(exc)) from None
    try:
        gpu = _platform_for(job)
        make_l1(gpu)
    except ValueError as exc:
        raise _bad("extras", str(exc)) from None
    agents = job.extra("active_agents")
    if agents is not None and kind in {
            s.kind for s in SCHEME_TABLE.values() if s.throttled}:
        _check_agents(job.workload, gpu, job.scale, agents)


@dataclasses.dataclass(frozen=True)
class EngineKind:
    """A sweep-only engine kind: its required top-level fields, a
    check per accepted ``extras`` field, and an optional whole-job
    check."""

    required: "tuple[str, ...]"
    extras: "dict[str, Callable[[dict, str], None]]"
    check: "Callable[[SimJob], None] | None" = None


#: The engine kinds a sweep may name besides :data:`KINDS`.  An entry
#: naming a field these do not list, or missing a required one, is a
#: 400 here rather than a failed job in a worker.
ENGINE_KINDS = {
    "schemes": EngineKind(("workload", "gpu"), {
        "use_paper_agents": _flag, "l2_divisor": _at_least(1),
        "schemes": _scheme_list}),
    "measure": EngineKind(("workload", "gpu"), {
        "plan": _choice(tuple(PLAN_KINDS.values())),
        "direction": _choice(("X-P", "Y-P")),
        "active_agents": _at_least(1), "bypass_streams": _flag,
        "tile": _tile, "scheduler": _choice(SCHEDULERS),
        "hiding_cap": _at_least(0, cast=float), "join_stagger": _at_least(0),
        "l1_size": _at_least(1), "l1_sectors": _at_least(1),
        "l2_divisor": _at_least(1), "topology": _choice(TOPOLOGIES),
        "placement": _choice(PLACEMENTS)}, check=_measure_check),
    "microbench": EngineKind(("gpu",), {
        "staggered": _flag, "scheduler": _choice(SCHEDULERS)}),
    "reuse": EngineKind(("workload",), {"max_ctas": _at_least(1)}),
    "table2": EngineKind(("workload",), {}),
    "framework": EngineKind(("workload", "gpu"), {}),
}


def _build_one(entry: dict, max_tune_budget: int) -> SimJob:
    kind = _string(entry, "kind", default="simulate")
    if kind in KINDS:
        return KINDS[kind].build({**_extras(entry), **entry},
                                 max_tune_budget=max_tune_budget)
    spec = ENGINE_KINDS.get(kind)
    if spec is None:
        raise _bad("kind", f"unknown job kind {kind!r}; known: "
                           f"{sorted({*KINDS, *ENGINE_KINDS})}")
    workload = _string(entry, "workload",
                       required="workload" in spec.required)
    if workload is not None:
        _check_workload(workload)
    gpu = _string(entry, "gpu", required="gpu" in spec.required)
    if gpu is not None:
        _check_gpu(gpu)
    extras = _extras(entry)
    for field in extras:
        if field not in spec.extras:
            raise _bad("extras", f"{kind!r} takes no field {field!r}; "
                                 f"known: {sorted(spec.extras)}")
        spec.extras[field](extras, field)
    try:
        job = SimJob.make(
            kind, workload=workload, gpu=gpu,
            scheme=_string(entry, "scheme"), scale=_scale(entry),
            seed=_seed(entry), warmups=_warmups(entry), **extras)
    except TypeError as exc:
        raise _bad("extras", str(exc)) from None
    if spec.check is not None:
        spec.check(job)
    return job


def _extras(entry: dict) -> dict:
    extras = entry.get("extras", {})
    if not isinstance(extras, dict):
        raise _bad("extras", "expected an object")
    return extras


def jsonable(value):
    """Render one executor result as plain JSON.

    ``KernelMetrics`` canonicalize losslessly (floats via ``repr``, so
    equality of the JSON implies bit-identity of the metrics); nested
    dataclasses, sequences and mappings recurse; anything else falls
    back to ``repr`` rather than failing the response.
    """
    if isinstance(value, KernelMetrics):
        return canonical_metrics(value)
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    return repr(value)
