"""The traced run of tune-session: per-layer numbers.

Two zygotes run the same tune list, each tune in a forked copy of the
warmed zygote as in the untraced run: an untraced reference round, and
a traced zygote whose warm-up is decomposed into the calls a user makes
into each layer (kernel build, ``cta_trace`` over every CTA,
``compiled_trace``, ``repro.cluster``, ``repro.simulate``,
``repro.estimate``, ``repro.bound``) and whose tune calls each run
inside a span.  The traced tunes' fingerprints must match the
reference's.  ``trace.overhead_s`` is the measured cost of one span
times the number of spans the run recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import batch
import common
from common import ALGORITHM_PAIRS, Spans, emit
from paper_sweep_trace import (_kernel_layers, engine_metrics, layer_metrics,
                               sim_totals)
from tune_session import CALLS, measure, units

ROLE = "tune-session"


def _warm_layers(spans: Spans) -> "tuple[dict, dict]":
    """The untraced warm-up, one layer call at a time; returns the
    counts and the modelled totals."""
    import repro
    counts = {"ctas": 0, "ops": 0, "violations": 0, "mixes": 0}
    simulated = []
    for workload, gpu, _ in CALLS:
        _, kernel, config, ctas, ops = _kernel_layers(spans, workload, gpu)
        counts["ctas"] += ctas
        counts["ops"] += ops
        schemes = ("BSL", "CLU+TOT") if (workload, gpu) in ALGORITHM_PAIRS \
            else ("BSL",)
        with spans.span("bound.bound"):
            bound = repro.bound(kernel, config)
        for scheme in schemes:
            with spans.span("core.plan"):
                plan = repro.cluster(kernel, scheme, gpu=config)
            with spans.span("gpu.simulate"):
                metrics = repro.simulate(kernel, config, plan=plan)
            with spans.span("analytic.estimate"):
                repro.estimate(kernel, config, plan=plan)
            counts["violations"] += metrics.l1_hit_rate \
                > bound.bound_hit_rate
            simulated.append(metrics)
    return counts, sim_totals(simulated)


def traced_child(spec: dict) -> None:
    spans = Spans()
    counts, totals = _warm_layers(spans)
    emit({"ready": time.perf_counter()})
    records = []
    for unit in spec["units"]:
        record = common.forked(measure, spec["tmp"], unit, True)
        spans.add("tuner.tune", record["start"],
                  record["start"] + record["t"], unit=unit)
        records.append(record)
        emit(record)
    layers = layer_metrics(spans, counts, totals, 0.0)
    layers.update(engine_metrics(records))
    layers.update({
        "tuner.tune_s": spans.total("tuner.tune"),
        "tuner.evaluations": sum(r["evaluations"] for r in records),
        "tuner.truncated": sum(r["truncated"] for r in records)})
    path = Path(spec["tmp"]) / f"trace-{os.getpid()}.json"
    spans.dump(path)
    emit({"done": True, "spans": str(path), "layers": layers})


def run_traced(seed: int, seconds: float, tmp) -> "tuple[dict, dict]":
    unit_list = units(seed)
    plain = batch.one_pass(ROLE, unit_list, seed, tmp)
    traced, done = batch.traced_pass(
        ROLE, {"units": unit_list, "tmp": str(tmp), "trace": True}, tmp)

    records = json.loads(Path(done["spans"]).read_text())
    print(common.format_self_times(common.self_times(records)),
          file=sys.stderr)
    metrics = common.zero_layers()
    metrics.update(done["layers"])
    metrics["trace.spans"] = len(records)
    metrics["trace.overhead_s"] = common.span_cost_s() * len(records)

    every = plain + traced
    failed = sum(not r["ok"] for r in every) \
        + done["layers"]["bound.violations"]
    same = {r["unit"]: r["sim"] for r in plain} \
        == {r["unit"]: r["sim"] for r in traced}
    return metrics, {"attempted": len(every), "failed": failed,
                     "deterministic": same}
