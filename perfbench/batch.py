"""Orchestration shared by the two batch workloads.

A *zygote* is a fresh interpreter that does the workload's set-up
(its ``setup_s`` work), reports ready, then runs units on command.
Every unit runs in a forked copy of the zygote (:func:`common.forked`),
so each repeat starts from exactly the state set-up left: nothing one
unit builds or memoizes reaches another, whatever the order.

A run keeps ``HIGH_LOAD_CHILDREN`` (= the two cores of the reference
box) zygotes alive and alternates ``PHASES``: in a low phase the first
zygote runs every unit while the other waits; in a high phase both run
concurrently, each its fixed, cost-balanced share of the units (the
workload's ``HIGH_SPLIT``), the same for every seed.  Low phases get
``LOW_SHARE`` of ``--seconds`` and high phases the rest.  Every phase
runs at least one full pass over its units, then keeps going, unit by
unit, until its time is spent.  The seed only permutes unit order.

Each unit keeps the median of its repeats at a load.  On the reference
box a unit of 0.1-1 s is longer than most of the box's fast spells, and
over eleven runs the sum of per-unit medians spread 0.06 (interquartile
range over median) where the sum of per-unit minima spread 0.14: with
a handful of repeats the minimum hinges on whether a rare fast spell
was caught.  From the records:

* ``wall_s`` is the sum over units of each unit's low-load median;
* ``p50_ms_*`` is the median of the per-unit medians at low and at
  high load;
* ``p99_ms_*`` is the slowest unit's mean over its repeats at that
  load -- a batch workload has only as many latency samples as units,
  so the p99 slot carries the slowest unit, and a tail keeps every
  repeat's weight (over eight runs of each batch workload its mean
  spread 0.06-0.08 where its median spread 0.08-0.13);
* ``max_rps_in_slo`` is units completed per second at high load: the
  unit count over the slower share's summed per-unit medians;
* ``setup_s`` is the median of the zygotes' and one more probe's
  time from spawn to ready, each set up alone.

Unit times are then expressed in reference-box time: each unit's
forked copy times ``REFERENCE_CALLS`` calls of the fixed reference
workload just before and again just after the unit, and the unit times
of each load are multiplied by :func:`common.box_factor` of that load's
reference times (README.md, "Reference-box time").  ``setup_s`` stays
in host time.
"""

from __future__ import annotations

import json
import random
import sys
import time
from statistics import mean

import common
from common import emit, median

HIGH_LOAD_CHILDREN = 2
PHASES = ("low", "high") * 3
LOW_SHARE = 0.6
#: Set-up samples beyond the zygotes' own, from children that only set up.
SETUP_PROBES = 1
#: Reference calls timed before and again after each unit.
REFERENCE_CALLS = 3


def _referenced(measure, unit: str, check: bool) -> dict:
    """``measure(unit, check)`` with the reference workload timed
    just before and just after it, in the same process."""
    before = common.reference_samples(REFERENCE_CALLS)
    record = measure(unit, check)
    record["reference_ms"] = before + [common.reference_ms()
                                       for _ in range(REFERENCE_CALLS)]
    return record


def serve(measure) -> None:
    """Zygote side: answer commands until stdin closes.

    A command names units, a time and a seed; the zygote runs
    ``measure(unit, check)`` for each unit in a forked copy of itself,
    one full pass in the given order and then further passes in seeded
    orders until the time is spent.  ``check`` is true on the first
    pass of a command that asks for the full correctness checks.
    """
    for line in sys.stdin:
        command = json.loads(line)
        units = list(command["units"])
        order = random.Random(command["seed"])
        deadline = time.perf_counter() + command["seconds"]
        count, first = 0, True
        while first or time.perf_counter() < deadline:
            for unit in units:
                if not first and time.perf_counter() >= deadline:
                    break
                emit(common.forked(_referenced, measure, unit,
                                   first and command["check"]))
                count += 1
            first = False
            order.shuffle(units)
        emit({"done": count})


def _command(units, seconds: float, seed: int, check: bool) -> dict:
    return {"units": units, "seconds": seconds, "seed": seed,
            "check": check}


def one_pass(role: str, unit_list, seed: int, tmp) -> "list[dict]":
    """One checked pass over the units in a fresh zygote."""
    zygote = common.Zygote(role, {"tmp": str(tmp)}, tmp)
    try:
        zygote.send(_command(unit_list, 0, seed, True))
        records, _ = zygote.results()
        zygote.close()
    finally:
        zygote.kill()
    return records


def traced_pass(role: str, spec: dict, tmp) -> "tuple[list[dict], dict]":
    """Run a traced child, which runs ``spec["units"]`` once and ends
    with a done line; returns its records and that line."""
    zygote = common.Zygote(role, spec, tmp)
    try:
        result = zygote.results()
        zygote.close()
    finally:
        zygote.kill()
    return result


def run_phases(role: str, module, seed: int, seconds: float,
               tmp) -> "tuple[list[float], list[dict], list[dict]]":
    """Run the phases; returns the set-up times, the low-load records
    and the high-load records."""
    unit_list = module.units(seed)
    shares = [[u for u in unit_list if u in part]
              for part in module.HIGH_SPLIT]
    n_low = PHASES.count("low")
    seconds_of = {"low": seconds * LOW_SHARE / n_low,
                  "high": seconds * (1 - LOW_SHARE) / (len(PHASES) - n_low)}
    zygotes: "list[common.Zygote]" = []
    low: "list[dict]" = []
    high: "list[dict]" = []
    try:
        for _ in range(HIGH_LOAD_CHILDREN + SETUP_PROBES):
            zygotes.append(common.Zygote(role, {"tmp": str(tmp)}, tmp))
        setups = [z.setup_s for z in zygotes]
        for probe in zygotes[HIGH_LOAD_CHILDREN:]:
            probe.close()
        workers = zygotes[:HIGH_LOAD_CHILDREN]
        for index, kind in enumerate(PHASES):
            phase_seed = seed * 100 + index
            if kind == "low":
                workers[0].send(_command(unit_list, seconds_of[kind],
                                         phase_seed, not low))
                low += workers[0].results()[0]
                continue
            for k, (zygote, share) in enumerate(zip(workers, shares)):
                zygote.send(_command(share, seconds_of[kind],
                                     phase_seed + 10 * k, False))
            for zygote in workers:
                high += zygote.results()[0]
        for zygote in workers:
            zygote.close()
    finally:
        for zygote in zygotes:
            zygote.kill()
    return setups, low, high


def per_unit(records: "list[dict]", statistic,
             factor: float) -> "dict[str, float]":
    """``statistic`` of each unit's repeat times, scaled by ``factor``
    to reference-box time."""
    times: "dict[str, list[float]]" = {}
    for record in records:
        times.setdefault(record["unit"], []).append(record["t"] * factor)
    return {unit: statistic(values) for unit, values in times.items()}


def summarize(module, setups, low, high) -> "tuple[dict, dict]":
    """End-to-end host metrics plus the outcome counts of every phase.

    Returns ``(metrics, outcome)`` where ``outcome`` holds
    ``attempted``/``failed`` and ``deterministic`` (every execution of
    a unit produced the same simulated fingerprint).
    """
    factor = common.box_factor([x for r in low for x in r["reference_ms"]])
    factor_high = common.box_factor([x for r in high
                                     for x in r["reference_ms"]])
    best_low = per_unit(low, median, factor)
    best_high = per_unit(high, median, factor_high)
    wall = sum(best_low.values())
    accesses = sum({r["unit"]: r["accesses"] for r in low}.values())
    slowest_share = max(sum(best_high[u] for u in part)
                        for part in module.HIGH_SPLIT)

    every = low + high
    fingerprints: "dict[str, set]" = {}
    for r in every:
        fingerprints.setdefault(r["unit"], set()).add(r["sim"])
    failed = sum(1 for r in every if not r["ok"])
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "sim_accesses_per_s": accesses / wall,
        "peak_rss_mb": max(r["rss_mb"] for r in every),
        "success_frac": (len(every) - failed) / len(every),
        "p50_ms_low": median(best_low.values()) * 1e3,
        "p99_ms_low": max(per_unit(low, mean, factor).values()) * 1e3,
        "p50_ms_high": median(best_high.values()) * 1e3,
        "p99_ms_high": max(per_unit(high, mean, factor_high).values())
        * 1e3,
        "max_rps_in_slo": len(best_high) / slowest_share,
    }
    repeats = {}
    for load, records in (("low", low), ("high", high)):
        counts = {}
        for r in records:
            counts[r["unit"]] = counts.get(r["unit"], 0) + 1
        repeats[load] = (min(counts.values()), max(counts.values()))
    outcome = {"attempted": len(every), "failed": failed,
               "deterministic": all(len(v) == 1
                                    for v in fingerprints.values()),
               "repeats_per_unit": repeats,
               "box_factor": round(factor, 4),
               "box_factor_high": round(factor_high, 4),
               "host_wall_s": round(wall / factor, 4)}
    return metrics, outcome


def run(role: str, module, seed: int, seconds: float, tmp) -> "tuple[dict, dict]":
    """The untraced run of a batch workload: end-to-end metrics."""
    setups, low, high = run_phases(role, module, seed, seconds, tmp)
    metrics, outcome = summarize(module, setups, low, high)
    sims = module.sim_metrics(low)
    if module.sim_metrics(high) != sims:
        outcome["deterministic"] = False
    metrics.update(sims)
    return metrics, outcome
