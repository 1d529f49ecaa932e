"""Fuzz the service's validation boundary.

Every request body a served kind accepts goes through its
:data:`~repro.service.jobs.KINDS` builder (and sweeps through
:func:`~repro.service.jobs.build_sweep_jobs`) before any work is
admitted.  Whatever JSON arrives — non-finite or overflowing numbers,
bools where numbers belong, nested junk, wrong-typed ``tenants``,
``jobs`` or ``extras`` — the builder must either return a job whose
content key can be computed, or raise a 4xx :class:`HttpError`.  Any
other exception would surface as a 500.  Builders only: nothing is
executed, so the whole module runs in a few seconds.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.job import SimJob
from repro.service.httpio import HttpError
from repro.service.jobs import ENGINE_KINDS, KINDS, build_sweep_jobs

#: One valid request per served kind: the fuzzer starts from these
#: and breaks a few fields, so most cases get past the first checks.
VALID = {
    "simulate": {"workload": "NN", "gpu": "GTX980", "scale": 0.1},
    "estimate": {"workload": "NN", "gpu": "GTX980", "scheme": "CLU"},
    "bound": {"workload": "NN", "gpu": "GTX980", "l2_divisor": 2},
    "cotenant": {"gpu": "GTX980", "tenants": ["NN", {"workload": "ATX"}]},
    "cluster": {"workload": "NN", "gpu": "GTX980", "direction": "Y-P"},
    "tune": {"workload": "NN", "gpu": "GTX980", "budget": 4},
}

#: Field names the builders read, plus one they must ignore.
FIELDS = ("workload", "gpu", "scheme", "scale", "seed", "warmups",
          "topology", "placement", "l2_divisor", "policy", "tenants",
          "direction", "active_agents", "objective", "strategy", "budget",
          "extras", "kind", "bypass", "deadline_s", "bogus")

#: Values a well-formed request might carry.
PLAUSIBLE = st.sampled_from([
    "NN", "ATX", "GTX980", "GTX980x2", "CLU", "BSL", "CLU+TOT",
    "2-chiplet", "local-first", "sm-split", "Y-P", "hillclimb", "cycles",
    "measure", 0, 1, 2, 0.1, 4.0, 8, -1, 64, 65])

#: What ``json.loads`` makes of NaN, Infinity and overflowing literals,
#: plus an integer beyond float range.
NON_FINITE = st.sampled_from(
    [json.loads(text) for text in ("NaN", "Infinity", "-Infinity",
                                   "1e400", "-1e400")] + [10 ** 400])

numbers = st.one_of(
    NON_FINITE,
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True))

scalars = st.one_of(st.none(), st.booleans(), numbers,
                    st.text(max_size=4), PLAUSIBLE)

junk = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(FIELDS), children, max_size=3)),
    max_leaves=6)


def broken(base: dict, values: dict):
    """``base`` with one to three fields replaced or added."""
    names = st.lists(st.sampled_from(sorted(values)), min_size=1,
                     max_size=3, unique=True)
    return names.flatmap(lambda chosen: st.fixed_dictionaries(
        {name: values[name] for name in chosen})).map(
            lambda overrides: {**base, **overrides})


#: A replacement field value: non-finite, a bool, plausible, or junk.
field_value = st.one_of(NON_FINITE, st.booleans(), PLAUSIBLE, junk)
tenant = st.one_of(junk, broken({"workload": "NN"},
                                {name: field_value for name in FIELDS}))
FIELD_VALUES = {name: field_value for name in FIELDS}
FIELD_VALUES["tenants"] = st.one_of(junk, st.lists(tenant, max_size=3))
FIELD_VALUES["kind"] = st.sampled_from(
    [*KINDS, "measure", "table2", "teleport"]) | junk


def requests(kind: str):
    """A fuzzed request body for one served kind."""
    return broken(VALID[kind], FIELD_VALUES)


sweep_entry = st.sampled_from(list(KINDS)).flatmap(
    lambda kind: requests(kind).map(lambda body: {"kind": kind, **body}))
sweeps = broken({"jobs": [{"kind": "bound", **VALID["bound"]}]},
                {"jobs": st.one_of(junk, st.lists(sweep_entry | junk,
                                                  max_size=3)),
                 "deadline_s": junk})


def check(call):
    """``call()`` returns keyable jobs or raises a 4xx ``HttpError``."""
    try:
        result = call()
    except HttpError as exc:
        assert 400 <= exc.status < 500, exc.payload()
        return
    for job in result if isinstance(result, list) else [result]:
        assert isinstance(job, SimJob)
        assert len(job.key) == 64


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data(), kind=st.sampled_from(list(KINDS)),
       cap=st.integers(min_value=1, max_value=128))
def test_every_kind_builder_answers_4xx_or_a_job(data, kind, cap):
    payload = data.draw(requests(kind))
    check(lambda: KINDS[kind].build(payload, max_tune_budget=cap))


@FUZZ
@given(payload=sweeps)
def test_sweep_builder_answers_4xx_or_jobs(payload):
    check(lambda: build_sweep_jobs(payload, max_jobs=4, max_tune_budget=8))


#: One valid sweep entry per engine-only kind, with every extra its
#: schema accepts, so breaking one reaches that extra's check.
ENGINE_VALID = {
    "schemes": {"workload": "NN", "gpu": "GTX980", "extras": {
        "use_paper_agents": True, "l2_divisor": 2, "schemes": ["CLU"]}},
    "measure": {"workload": "NN", "gpu": "GTX980", "extras": {
        "plan": "clu", "direction": "Y-P", "active_agents": 2,
        "bypass_streams": False, "tile": [2, 2], "scheduler": "observed",
        "hiding_cap": 8.0, "join_stagger": 6, "l1_size": 49152,
        "l1_sectors": 2, "l2_divisor": 2, "topology": "2-chiplet",
        "placement": "local-first"}},
    "microbench": {"gpu": "GTX980", "extras": {"staggered": True,
                                               "scheduler": "observed"}},
    "reuse": {"workload": "NN", "extras": {"max_ctas": 10}},
    "table2": {"workload": "NN", "extras": {}},
    "framework": {"workload": "NN", "gpu": "GTX980", "extras": {}},
}


def engine_entry(kind: str):
    """A fuzzed entry of one engine-only kind: top-level fields or
    extras broken."""
    base = ENGINE_VALID[kind]
    extras = base["extras"]
    names = sorted(set(extras) | set(ENGINE_KINDS[kind].extras)) or ["bogus"]
    broken_extras = broken(extras, {name: field_value
                                    for name in [*names, "bogus"]})
    return st.one_of(
        broken({"kind": kind, **base}, FIELD_VALUES),
        broken_extras.map(lambda fuzzed: {"kind": kind, **base,
                                          "extras": fuzzed}))


@FUZZ
@given(data=st.data(), kind=st.sampled_from(sorted(ENGINE_KINDS)))
def test_engine_kind_entries_answer_4xx_or_a_job(data, kind):
    entry = data.draw(engine_entry(kind))
    check(lambda: build_sweep_jobs({"jobs": [entry]}, max_jobs=4))
