"""The traced run of paper-sweep: per-layer numbers.

Three zygotes run the same unit list, every unit in a forked copy of
the freshly set-up zygote, so each is cold as in the untraced run:

* ``plain`` -- one untraced round, the reference that the traced
  round's simulated fingerprints must match;
* ``engine`` -- the same round with a span around each engine call,
  read for the ``engine.*`` numbers of ``SweepRunner.stats``;
* ``layers`` -- each unit decomposed into the calls a user makes into
  each layer, cold and in order: ``Workload.kernel``, ``cta_trace``
  over every CTA, ``compiled_trace`` at the platform's line sizes,
  ``repro.cluster`` per scheme, ``repro.simulate`` per plan (memos now
  warm), ``repro.estimate`` per plan and ``repro.bound``.

``trace.overhead_s`` is the measured cost of one span times the number
of spans the run recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import batch
import common
from common import SCALE, Spans, emit
from paper_sweep import CHIPLET, COTENANT, DEMAND_SCHEMES, measure, units

ROLE = "paper-sweep"


def _kernel_layers(spans: Spans, workload: str, gpu: str):
    """Build, trace and compile one kernel cold; returns (workload,
    kernel, config, ctas, ops)."""
    import repro
    wl, config = repro.workload(workload), repro.platform(gpu)
    with spans.span("workloads.build"):
        kernel = wl.kernel(scale=SCALE, config=config)
    with spans.span("workloads.trace"):
        for cta in range(kernel.n_ctas):
            kernel.cta_trace(cta)
    ops = 0
    with spans.span("kernels.compile"):
        for cta in range(kernel.n_ctas):
            ops += len(kernel.compiled_trace(cta, config.l1_line,
                                             config.l2_line))
    return wl, kernel, config, kernel.n_ctas, ops


def sim_totals(simulated) -> dict:
    """Summed modelled numbers of a list of ``KernelMetrics``."""
    return {"launches": len(simulated),
            "warp_accesses": sum(m.warp_accesses for m in simulated),
            "cycles": sum(m.cycles for m in simulated),
            "l1_hits": sum(m.l1.hits for m in simulated),
            "l1_accesses": sum(m.l1.accesses for m in simulated),
            "l2_transactions": sum(m.l2_transactions for m in simulated)}


def add_counts(total: dict, part: dict) -> dict:
    return {k: total.get(k, 0) + v for k, v in part.items()}


def _layers_unit(unit: str, check: bool) -> dict:
    """One unit decomposed into layer calls; runs in a forked zygote."""
    import repro
    spans = Spans()
    counts = {"ctas": 0, "ops": 0, "violations": 0, "mixes": 0}
    remote = 0.0
    simulated = []
    with spans.span("bench.unit", unit=unit):
        if unit == COTENANT:
            with spans.span("tenancy.mix"):
                report = repro.cotenant(
                    [{"workload": "NN", "scheme": "CLU", "scale": SCALE},
                     {"workload": "ATX", "scheme": "CLU", "scale": SCALE}],
                    "GTX980", policy="shared")
            counts["mixes"] += 1
            counts["violations"] += len(report.violations())
        else:
            workload, gpu = (("HST", "GTX980x2") if unit == CHIPLET
                             else unit.split("@"))
            wl, kernel, config, ctas, ops = _kernel_layers(spans, workload,
                                                           gpu)
            counts["ctas"] += ctas
            counts["ops"] += ops
            if unit == CHIPLET:
                with spans.span("core.plan"):
                    plans = {"CLU": repro.cluster(kernel, "CLU", gpu=config,
                                                  placement="local-first")}
            else:
                direction = (repro.direction(wl.table2.partition)
                             if wl.table2 is not None else None)
                with spans.span("core.plan"):
                    tot = repro.cluster(kernel, "CLU+TOT", gpu=config,
                                        direction=direction)
                plans = {"CLU+TOT": tot}
                for scheme in ("BSL", "RD", "CLU", "CLU+TOT+BPS", "PFH+TOT"):
                    with spans.span("core.plan"):
                        plans[scheme] = repro.cluster(
                            kernel, scheme, gpu=config, direction=direction,
                            active_agents=tot.active_agents)
            results = {}
            for scheme, plan in plans.items():
                with spans.span("gpu.simulate"):
                    results[scheme] = repro.simulate(kernel, config,
                                                     plan=plan)
                with spans.span("analytic.estimate"):
                    repro.estimate(kernel, config, plan=plan)
            with spans.span("bound.bound"):
                bound = repro.bound(kernel, config)
            counts["violations"] += sum(
                results[s].l1_hit_rate > bound.bound_hit_rate
                for s in results if s in DEMAND_SCHEMES)
            simulated = list(results.values())
            if unit == CHIPLET:
                remote = results["CLU"].remote_traffic_fraction
    return {"spans": spans.records, "counts": counts, "remote": remote,
            "totals": sim_totals(simulated)}


def _layers_child(spec: dict) -> None:
    spans = Spans()
    counts, totals, remote = {}, {}, 0.0
    for unit in spec["units"]:
        part = common.forked(_layers_unit, unit, True)
        spans.extend(part["spans"])
        counts = add_counts(counts, part["counts"])
        totals = add_counts(totals, part["totals"])
        remote = max(remote, part["remote"])
    path = Path(spec["tmp"]) / "trace-layers.json"
    spans.dump(path)
    emit({"done": True, "spans": str(path),
          "layers": layer_metrics(spans, counts, totals, remote)})


def layer_metrics(spans: Spans, counts: dict, totals: dict,
                  remote: float) -> dict:
    """The per-layer metrics of the decomposed layer calls."""
    simulate_s = spans.total("gpu.simulate")
    return {
        "workloads.build_s": spans.total("workloads.build"),
        "workloads.trace_s": spans.total("workloads.trace"),
        "workloads.ctas": counts["ctas"],
        "kernels.compile_s": spans.total("kernels.compile"),
        "kernels.ops": counts["ops"],
        "kernels.ns_per_op": spans.total("kernels.compile")
        / counts["ops"] * 1e9,
        "core.plan_s": spans.total("core.plan"),
        "core.plans": spans.count("core.plan"),
        "gpu.simulate_s": simulate_s,
        "gpu.launches": totals["launches"],
        "gpu.warp_accesses": totals["warp_accesses"],
        "gpu.ns_per_access": simulate_s / totals["warp_accesses"] * 1e9,
        "gpu.sim_cycles": totals["cycles"],
        "gpu.l1_hit_rate": totals["l1_hits"] / totals["l1_accesses"],
        "gpu.l2_transactions": totals["l2_transactions"],
        "gpu.remote_frac": remote,
        "analytic.calls": spans.count("analytic.estimate"),
        "analytic.us_per_call": spans.total("analytic.estimate")
        / spans.count("analytic.estimate") * 1e6,
        "bound.calls": spans.count("bound.bound"),
        "bound.ms_per_call": spans.total("bound.bound")
        / spans.count("bound.bound") * 1e3,
        "bound.violations": counts["violations"],
        "tenancy.mix_s": spans.total("tenancy.mix"),
        "tenancy.mixes": counts["mixes"],
    }


def engine_metrics(records: "list[dict]") -> dict:
    """``engine.*`` from the units' ``SweepRunner.stats``."""
    phases: "dict[str, float]" = {}
    for r in records:
        for phase, seconds in r["engine"]["phases"].items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    unique = sum(r["engine"]["unique"] for r in records)
    hits = sum(r["engine"]["cache_hits"] for r in records)
    return {
        "engine.dedup_s": phases.get("dedup", 0.0),
        "engine.lookup_s": phases.get("lookup", 0.0),
        "engine.execute_s": phases.get("execute", 0.0),
        "engine.store_s": phases.get("store", 0.0),
        "engine.jobs_submitted": sum(r["engine"]["submitted"]
                                     for r in records),
        "engine.jobs_unique": unique,
        "engine.cache_hit_ratio": hits / unique if unique else 0.0}


def _engine_child(spec: dict) -> None:
    spans = Spans()
    for unit in spec["units"]:
        record = common.forked(measure, unit, True)
        spans.add("engine.run", record["start"],
                  record["start"] + record["t"], unit=unit)
        emit(record)
    path = Path(spec["tmp"]) / "trace-engine.json"
    spans.dump(path)
    emit({"done": True, "spans": str(path)})


def traced_child(spec: dict) -> None:
    if spec["trace"] == "engine":
        _engine_child(spec)
    else:
        _layers_child(spec)


def run_traced(seed: int, seconds: float, tmp) -> "tuple[dict, dict]":
    unit_list = units(seed)
    base = {"units": unit_list, "tmp": str(tmp)}
    plain = batch.one_pass(ROLE, unit_list, seed, tmp)
    engine, engine_done = batch.traced_pass(ROLE, dict(base, trace="engine"),
                                            tmp)
    _, layers = batch.traced_pass(ROLE, dict(base, trace="layers"), tmp)

    records = []
    for done in (engine_done, layers):
        records += json.loads(Path(done["spans"]).read_text())
    print(common.format_self_times(common.self_times(records)),
          file=sys.stderr)
    metrics = common.zero_layers()
    metrics.update(layers["layers"])
    metrics.update(engine_metrics(engine))
    metrics["trace.spans"] = len(records)
    metrics["trace.overhead_s"] = common.span_cost_s() * len(records)

    every = plain + engine
    failed = sum(not r["ok"] for r in every) \
        + layers["layers"]["bound.violations"]
    same = {r["unit"]: r["sim"] for r in plain} \
        == {r["unit"]: r["sim"] for r in engine}
    return metrics, {"attempted": len(every), "failed": failed,
                     "deterministic": same}
