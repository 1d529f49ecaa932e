"""The one scheme planner against the four planners it replaced.

Before :mod:`repro.core.planner`, four functions each turned a scheme
name or a plan kind into an :class:`~repro.gpu.plan.ExecutionPlan`
with their own copy of the RD/CLU/TOT/BPS/PFH branches:
``repro.api._plan_scheme``, ``experiments.schemes.build_scheme_plans``,
``engine.executors._measure_plan`` and ``tuner.space.SearchSpace.plan``.
They are kept below, as they were, as oracles.  Every caller that now
plans through :func:`~repro.core.planner.build_plan` must hand back the
plan its oracle built — digest (scheme label included), per-SM task
lists and dispatch order — over registry workloads, a flat Kepler, a
flat Maxwell and a two-chiplet Maxwell, and every scheme, plan kind,
degree, bypass, tile and placement.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.agent import agent_plan
from repro.core.dependence import analyze_direction
from repro.core.indexing import TileWiseIndexing
from repro.core.indexing import direction as lookup_direction
from repro.core.planner import (PLAN_KINDS, SCHEME_TABLE, SCHEMES,
                                build_plan, partition_for)
from repro.core.prefetch import prefetch_plan
from repro.core.redirection import redirection_plan
from repro.core.throttling import ThrottleVote
from repro.engine import executors
from repro.engine.executors import measure_job, measure_plan
from repro.experiments.schemes import build_scheme_plans
from repro.gpu.config import platform
from repro.gpu.occupancy import max_ctas_per_sm
from repro.gpu.plan import baseline_plan
from repro.gpu.topology import PLACEMENTS
from repro.tuner.space import SearchSpace
from repro.workloads.registry import REGISTRY, workload as lookup_workload

SCALE = 0.05
GPUS = ("Tesla K40", "GTX980", "GTX980x2")
FUZZ = settings(max_examples=40, deadline=None)

abbrs = st.sampled_from(sorted(REGISTRY))
gpus = st.sampled_from(GPUS)
directions = st.sampled_from((None, "Y-P", "X-P"))
placements = st.sampled_from((None, *sorted(PLACEMENTS)))
tiles = st.sampled_from((None, (2, 2), (4, 4), (8, 8), (3, 1)))


# ----------------------------------------------------------------------
# the four replaced planners, as they were
# ----------------------------------------------------------------------

def oracle_api(kernel, scheme, config, *, direction=None,
               active_agents=None, placement=None):
    """``repro.api._plan_scheme``, with the vote's degree given."""
    if scheme == "BSL":
        return baseline_plan()
    part = direction if direction is not None \
        else analyze_direction(kernel).direction
    if scheme == "RD":
        return redirection_plan(kernel, config, part)
    if scheme == "CLU":
        return agent_plan(kernel, config, part, scheme="CLU",
                          placement=placement)
    if scheme == "CLU+TOT":
        return agent_plan(kernel, config, part, active_agents=active_agents,
                          scheme="CLU+TOT", placement=placement)
    if scheme == "CLU+TOT+BPS":
        return agent_plan(kernel, config, part, active_agents=active_agents,
                          bypass_streams=True, scheme="CLU+TOT+BPS",
                          placement=placement)
    return prefetch_plan(kernel, config, part, active_agents=active_agents)


def oracle_fig12(workload, kernel, config, vote):
    """``experiments.schemes.build_scheme_plans``."""
    part = partition_for(workload, kernel)
    opt = vote.active_agents
    return {
        "BSL": baseline_plan(),
        "RD": redirection_plan(kernel, config, part),
        "CLU": agent_plan(kernel, config, part, scheme="CLU"),
        "CLU+TOT": agent_plan(kernel, config, part, active_agents=opt,
                              scheme="CLU+TOT"),
        "CLU+TOT+BPS": agent_plan(kernel, config, part, active_agents=opt,
                                  bypass_streams=True, scheme="CLU+TOT+BPS"),
        "PFH+TOT": prefetch_plan(kernel, config, part, active_agents=opt),
    }


def oracle_measure(job, workload, gpu, kernel):
    """``engine.executors._measure_plan``."""
    kind = job.extra("plan", "baseline")
    scheme = job.scheme
    active_agents = job.extra("active_agents")
    if active_agents is not None:
        active_agents = int(active_agents)
    name = job.extra("direction")
    part = (lookup_direction(name) if name is not None
            else partition_for(workload, kernel))

    if kind == "baseline":
        return baseline_plan()
    if kind == "rd":
        return redirection_plan(kernel, gpu, part)
    if kind == "clu":
        tile = job.extra("tile")
        kwargs = {"active_agents": active_agents,
                  "bypass_streams": bool(job.extra("bypass_streams", False)),
                  "placement": job.extra("placement")}
        if scheme is not None:
            kwargs["scheme"] = scheme
        if tile is not None:
            width, height = (int(v) for v in tile)
            kwargs["indexing"] = TileWiseIndexing(kernel.grid, tile_w=width,
                                                  tile_h=height)
            return agent_plan(kernel, gpu, **kwargs)
        return agent_plan(kernel, gpu, part, **kwargs)
    return prefetch_plan(kernel, gpu, part, active_agents=active_agents)


def oracle_space(space, point, *, scale):
    """``tuner.space.SearchSpace.plan``."""
    point = space.normalize(point)
    config = platform(space.gpu)
    kernel = lookup_workload(space.workload).kernel(scale=scale,
                                                    config=config)
    if point.kind == "BSL":
        return baseline_plan()
    part = lookup_direction(point.direction) \
        if point.direction is not None else None
    if point.kind == "RD":
        return redirection_plan(kernel, config, part)
    if point.kind == "PFH":
        return prefetch_plan(kernel, config, part,
                             active_agents=point.active_agents)
    if point.tile is not None:
        width, height = point.tile
        return agent_plan(kernel, config,
                          indexing=TileWiseIndexing(
                              kernel.grid, tile_w=width, tile_h=height),
                          active_agents=point.active_agents,
                          bypass_streams=point.bypass,
                          placement=point.placement)
    return agent_plan(kernel, config, part,
                      active_agents=point.active_agents,
                      bypass_streams=point.bypass,
                      placement=point.placement)


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

def fingerprint(plan, n_ctas: int):
    """Digest, per-SM task lists and dispatch order of one plan."""
    tasks = None if plan.sm_tasks is None \
        else [list(t) for t in plan.sm_tasks]
    return (plan.describe(), tasks,
            [plan.resolve(i) for i in range(n_ctas)])


def cell(abbr: str, gpu: str):
    config = platform(gpu)
    workload = lookup_workload(abbr)
    kernel = workload.kernel(scale=SCALE, config=config)
    return config, workload, kernel, max_ctas_per_sm(config, kernel)


class TestSchemeNames:
    @FUZZ
    @given(data=st.data(), abbr=abbrs, gpu=gpus,
           scheme=st.sampled_from(SCHEMES), name=directions,
           placement=placements)
    def test_facade_matches_its_old_planner(self, data, abbr, gpu, scheme,
                                            name, placement):
        config, _, kernel, most = cell(abbr, gpu)
        agents = data.draw(st.integers(1, most), label="active_agents")
        part = lookup_direction(name) if name is not None else None
        # An explicit degree stands in for the vote, so nothing runs.
        new = api.cluster(kernel, scheme, gpu=config, direction=part,
                          active_agents=agents, placement=placement)
        old = oracle_api(kernel, scheme, config, direction=part,
                         active_agents=agents, placement=placement)
        assert fingerprint(new, kernel.n_ctas) \
            == fingerprint(old, kernel.n_ctas)

    @FUZZ
    @given(data=st.data(), abbr=abbrs, gpu=gpus)
    def test_figure12_cell_matches_its_old_planner(self, data, abbr, gpu):
        config, workload, kernel, most = cell(abbr, gpu)
        vote = ThrottleVote(
            active_agents=data.draw(st.integers(1, most),
                                    label="active_agents"),
            max_agents=most, cycles_by_candidate={})
        new = build_scheme_plans(workload, kernel, config, vote)
        old = oracle_fig12(workload, kernel, config, vote)
        assert list(new) == list(old) == list(SCHEMES)
        for scheme in SCHEMES:
            assert fingerprint(new[scheme], kernel.n_ctas) \
                == fingerprint(old[scheme], kernel.n_ctas), scheme


class TestPlanKinds:
    @FUZZ
    @given(data=st.data(), abbr=abbrs, gpu=gpus,
           kind=st.sampled_from(tuple(PLAN_KINDS.values())),
           name=directions, bypass=st.booleans(), tile=tiles,
           placement=placements)
    def test_measure_job_matches_its_old_planner(self, data, abbr, gpu,
                                                 kind, name, bypass, tile,
                                                 placement):
        _, workload, _, most = cell(abbr, gpu)
        label = data.draw(st.sampled_from(
            [None, *(s for s in SCHEMES if SCHEME_TABLE[s].kind == kind)]),
            label="scheme")
        agents = data.draw(st.none() | st.integers(1, most),
                           label="active_agents")
        job = measure_job(abbr, gpu, plan=kind, scheme=label, scale=SCALE,
                          direction=name, active_agents=agents,
                          bypass_streams=bypass, tile=tile,
                          placement=placement)
        config, kernel, new = measure_plan(job)
        old = oracle_measure(job, workload, config, kernel)
        assert fingerprint(new, kernel.n_ctas) \
            == fingerprint(old, kernel.n_ctas)

    @FUZZ
    @given(data=st.data(), abbr=abbrs, gpu=gpus)
    def test_search_space_matches_its_old_planner(self, data, abbr, gpu):
        space = SearchSpace.for_workload(abbr, gpu, scale=SCALE)
        point = data.draw(st.sampled_from(space.points()), label="point")
        new = space.plan(point, scale=SCALE)
        old = oracle_space(space, point, scale=SCALE)
        n_ctas = cell(abbr, gpu)[2].n_ctas
        assert fingerprint(new, n_ctas) == fingerprint(old, n_ctas)

    def test_unknown_scheme_or_kind_rejected(self):
        config, _, kernel, _ = cell("NN", "Tesla K40")
        with pytest.raises(KeyError):
            build_plan(kernel, config, "TOT")
        with pytest.raises(ValueError):
            build_plan(kernel, config, "clu", label="PFH+TOT")


@pytest.mark.parametrize("abbr, gpu", [("NN", "Tesla K40"),
                                       ("HST", "GTX980x2")])
def test_tuned_plan_is_the_plan_its_job_runs(monkeypatch, abbr, gpu):
    # The executor's simulate hands back the plan it was given, so the
    # job runs nothing and answers with the plan it would have run.
    monkeypatch.setattr(executors, "simulate",
                        lambda sim, kernel, plan, **_: plan)
    space = SearchSpace.for_workload(abbr, gpu, scale=SCALE)
    n_ctas = cell(abbr, gpu)[2].n_ctas
    for point in space.points():
        ran = executors.execute(space.job(point, scale=SCALE))
        assert fingerprint(space.plan(point, scale=SCALE), n_ctas) \
            == fingerprint(ran, n_ctas), point
