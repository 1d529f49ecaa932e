#!/usr/bin/env python
"""Record the sweep engine's wall-clock trajectory into BENCH_sweep.json.

Each invocation runs the CI smoke sub-matrix (one Figure-12 workload
per evaluation group, BSL/RD/CLU, Tesla K40) twice — serial and with
worker processes — and appends one entry to ``BENCH_sweep.json`` at the
repo root: wall time, worker-clock seconds, jobs/sec, per-phase runner
breakdown, and the commit it measured.  Over the repo's history those
entries are the performance trajectory the ROADMAP's "as fast as the
hardware allows" goal is steered by.

Each entry also records the *warm* fast-vs-reference comparison: the
same matrix timed on the flat-array fast simulation core and on the
dict-based reference oracle (best of ``--passes`` warm passes each),
whose ratio is the fast path's speedup on real sweep work, plus a
cold-vs-warm-cache ``repro.tuner`` timing (the warm tune must perform
zero new simulations; its wall time is the search overhead alone), and
the rung-0 analytic-vs-simulated cost per tuning decision
(one closed-form estimate against one fast-path simulation over the
same matrix; ``--check`` re-times it with a 20x floor — the model
exists to be ~50x+ cheaper per decision), the reuse-graph oracle
bound's cost against a full simulation of the same kernels (the
tuner's admission filter and the tenancy oracle column both lean on
the bound being essentially free; expected >= 50x, ``--check`` floor
15x), and the same economics on a chiplet *placement* decision (the
chiplet study's HST/BKP x placement matrix on the 4-chiplet Maxwell
through both executors; ``--check`` floor 5x at the study's shrunken
scale).

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py            # append
    PYTHONPATH=src python scripts/bench_trajectory.py --dry-run  # print only
    PYTHONPATH=src python scripts/bench_trajectory.py --check    # CI guard

``--check`` is the CI bench guard: it times the warm serial matrix and
fails (exit 1) if it regressed more than ``--tolerance`` (default 20%)
against the last recorded entry, then re-times the analytic, bound and
chiplet ratios against their fixed floors (whether or not the last
entry recorded them), without appending anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import subprocess
import sys
import time
from datetime import datetime, timezone

from repro import __version__
from repro.engine import SweepRunner, schemes_job
from repro.gpu.cache import FAST_MODEL_ENV
from repro.gpu.config import TESLA_K40

WORKLOADS = ("NN", "ATX", "BS")
SCHEMES = ("BSL", "RD", "CLU")
SCALE = 0.3


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def _batch():
    return [schemes_job(abbr, TESLA_K40, scale=SCALE, seed=0,
                        use_paper_agents=True, schemes=SCHEMES)
            for abbr in WORKLOADS]


def _measure(jobs: int) -> dict:
    runner = SweepRunner(jobs=jobs)
    start = time.perf_counter()
    runner.run(_batch())
    wall = time.perf_counter() - start
    stats = runner.stats
    return {
        "jobs": jobs,
        "wall_seconds": round(wall, 3),
        "worker_seconds": round(stats.worker_seconds, 3),
        "jobs_per_second": round(stats.jobs_per_second, 3),
        "executed": stats.executed,
        "phase_seconds": {name: round(seconds, 4)
                          for name, seconds in stats.phase_seconds.items()},
    }


def _warm_seconds(passes: int) -> float:
    """Best warm wall time for the serial matrix (noise-resistant)."""
    SweepRunner(jobs=1).run(_batch())  # warm traces/compiled streams
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        SweepRunner(jobs=1).run(_batch())
        best = min(best, time.perf_counter() - start)
    return best


def _measure_fastpath(passes: int) -> dict:
    """Warm fast-core vs reference-oracle comparison on the matrix."""
    saved = os.environ.get(FAST_MODEL_ENV)
    seconds = {}
    try:
        for label, flag in (("reference", "0"), ("fast", "1")):
            os.environ[FAST_MODEL_ENV] = flag
            seconds[label] = _warm_seconds(passes)
    finally:
        if saved is None:
            os.environ.pop(FAST_MODEL_ENV, None)
        else:
            os.environ[FAST_MODEL_ENV] = saved
    return {
        "reference_seconds": round(seconds["reference"], 3),
        "fast_seconds": round(seconds["fast"], 3),
        "speedup": round(seconds["reference"] / seconds["fast"], 2),
        "passes": passes,
    }


def _measure_jobs(schemes, *, scale: float) -> list:
    """``measure`` jobs running each named scheme of the smoke matrix.

    Each job names its scheme's plan kind and bypass from the scheme
    table; a throttled scheme runs at the paper's Table-2 degree, as
    the smoke matrix's ``use_paper_agents`` cells do, since a
    ``measure`` job takes its degree explicitly.
    """
    from repro.core.planner import SCHEME_TABLE
    from repro.engine import measure_job
    from repro.experiments.schemes import throttle_vote
    from repro.workloads.registry import workload

    jobs = []
    for abbr in WORKLOADS:
        spec = workload(abbr)
        vote = throttle_vote(spec, spec.kernel(scale=scale, config=TESLA_K40),
                             TESLA_K40, use_paper_value=True)
        for scheme in schemes:
            entry = SCHEME_TABLE[scheme]
            jobs.append(measure_job(
                abbr, TESLA_K40.name, plan=entry.kind, scheme=scheme,
                scale=scale, seed=0, bypass_streams=entry.bypass,
                active_agents=vote.active_agents if entry.throttled
                else None))
    return jobs


def _measure_analytic(passes: int) -> dict:
    """Warm per-decision cost: rung-0 estimate vs fast-path simulation.

    Times the identical (workload, scheme) matrix through the engine's
    ``estimate`` and ``measure`` executors (no persistent cache in
    either path), so the ratio is what the halving strategy's rung-0
    triage saves per candidate it rules out without simulating.  Runs
    at scale 1.0 — the tuner's default operating point — because
    simulation cost grows with the CTA count while the analytic model
    samples a bounded set, so the shrunken smoke-matrix scale would
    understate the ratio tuning actually sees.
    """
    from repro.engine import estimate_job, execute

    seconds = {}
    for label, jobs in (
            ("simulated", _measure_jobs(SCHEMES, scale=1.0)),
            ("analytic", [estimate_job(abbr, TESLA_K40.name,
                                       scheme=None if s == "BSL" else s,
                                       scale=1.0, seed=0)
                          for abbr in WORKLOADS for s in SCHEMES])):
        for job in jobs:
            execute(job)  # warm traces / compiled streams
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for job in jobs:
                execute(job)
            best = min(best, time.perf_counter() - start)
        seconds[label] = best
    decisions = len(WORKLOADS) * len(SCHEMES)
    return {
        "decisions": decisions,
        "simulated_seconds": round(seconds["simulated"], 4),
        "analytic_seconds": round(seconds["analytic"], 4),
        "simulated_ms_per_decision": round(
            seconds["simulated"] / decisions * 1e3, 3),
        "analytic_ms_per_decision": round(
            seconds["analytic"] / decisions * 1e3, 3),
        "speedup": round(seconds["simulated"] / seconds["analytic"], 1),
        "passes": passes,
    }


def _measure_chiplet(passes: int) -> dict:
    """Warm per-decision cost of a chiplet *placement* decision.

    The chiplet study's question — which placement policy for this
    workload on this multi-die package — is answered either by a full
    NUMA-charged simulation or by the rung-0 analytic model pricing
    remote hops.  This times the study's own matrix (HST/BKP x three
    placement policies on the 4-chiplet Maxwell, in its shrunken-L2
    regime) through both executors; the ratio is what rung-0 triage
    saves per placement candidate it rules out without simulating.
    """
    from repro.engine import estimate_job, execute, measure_job
    from repro.experiments.chiplet_study import (STUDY_L2_DIVISOR,
                                                 STUDY_PLACEMENTS,
                                                 STUDY_SCALE,
                                                 STUDY_WORKLOADS)

    gpu = "GTX980x4"

    def matrix(builder, **spelling):
        return [builder(abbr, gpu, plan="clu", scale=STUDY_SCALE, seed=0,
                        l2_divisor=STUDY_L2_DIVISOR, placement=placement,
                        **spelling)
                for abbr in STUDY_WORKLOADS
                for placement in STUDY_PLACEMENTS]

    seconds = {}
    for label, builder, spelling in (
            ("simulated", measure_job, {"scheme": "CLU"}),
            ("analytic", estimate_job, {})):
        jobs = matrix(builder, **spelling)
        for job in jobs:
            execute(job)  # warm traces / compiled streams
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for job in jobs:
                execute(job)
            best = min(best, time.perf_counter() - start)
        seconds[label] = best
    decisions = len(STUDY_WORKLOADS) * len(STUDY_PLACEMENTS)
    return {
        "gpu": gpu,
        "decisions": decisions,
        "simulated_seconds": round(seconds["simulated"], 4),
        "analytic_seconds": round(seconds["analytic"], 4),
        "simulated_ms_per_decision": round(
            seconds["simulated"] / decisions * 1e3, 3),
        "analytic_ms_per_decision": round(
            seconds["analytic"] / decisions * 1e3, 3),
        "speedup": round(seconds["simulated"] / seconds["analytic"], 1),
        "passes": passes,
    }


def _measure_bound(passes: int) -> dict:
    """Warm per-decision cost: reuse-graph bound vs full simulation.

    The tuner's admission filter and the tenancy report's oracle
    column both price configurations with ``cache_hit_bound`` — one
    linear set-arithmetic pass over the compiled streams — instead of
    simulating them.  The bound is *schedule-free*: seed, scheme and
    plan never enter, so one evaluation per (workload, platform,
    scale) answers for **every** candidate of that cell, while a
    simulation pays per candidate.  This times the smoke matrix the
    way both consumers use it — one ``measure`` execution per
    (workload, scheme) decision against one ``bound`` execution per
    workload — at scale 1.0, the tuner's operating point.
    """
    from repro.engine import bound_job, execute

    # The calibration scheme spread — the candidate axis a real tuner
    # cell actually prices per workload.
    schemes = ("BSL", "RD", "CLU", "CLU+TOT")
    decisions = len(WORKLOADS) * len(schemes)
    seconds = {}
    for label, jobs in (
            ("simulated", _measure_jobs(schemes, scale=1.0)),
            ("bound", [bound_job(abbr, TESLA_K40.name, scale=1.0)
                       for abbr in WORKLOADS])):
        for job in jobs:
            execute(job)  # warm traces / compiled streams
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for job in jobs:
                execute(job)
            best = min(best, time.perf_counter() - start)
        seconds[label] = best
    return {
        "decisions": decisions,
        "simulated_seconds": round(seconds["simulated"], 4),
        "bound_seconds": round(seconds["bound"], 4),
        "simulated_ms_per_decision": round(
            seconds["simulated"] / decisions * 1e3, 3),
        "bound_ms_per_decision": round(
            seconds["bound"] / decisions * 1e3, 3),
        "speedup": round(seconds["simulated"] / seconds["bound"], 1),
        "passes": passes,
    }


def _measure_tuner(passes: int) -> dict:
    """Cold vs warm-cache tune timing on one small hillclimb search.

    The warm passes run against the cache the cold pass filled, so
    they perform zero new simulations — their best wall time is the
    tuner's pure search overhead, and ``warm_new_simulations`` being 0
    is re-asserted here so a caching regression shows up in the
    trajectory, not just in CI.
    """
    import tempfile

    from repro.engine import default_runner
    from repro.tuner import tune

    knobs = dict(strategy="hillclimb", budget=12, scale=SCALE, seed=0)
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-tune-") as root:
        os.environ["REPRO_CACHE_DIR"] = root
        try:
            start = time.perf_counter()
            result = tune("NN", TESLA_K40.name, **knobs)
            cold = time.perf_counter() - start
            warm_best, hits, misses = float("inf"), 0, 0
            for _ in range(passes):
                runner = default_runner(jobs=1, cached=True, memo=True)
                start = time.perf_counter()
                tune("NN", TESLA_K40.name, runner=runner, **knobs)
                warm_best = min(warm_best, time.perf_counter() - start)
                stats = runner.cache.stats()
                hits, misses = stats["hits"], stats["misses"]
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    return {
        "workload": "NN",
        "strategy": knobs["strategy"],
        "budget": knobs["budget"],
        "evaluations": result.evaluations,
        "cold_seconds": round(cold, 3),
        "warm_seconds": round(warm_best, 3),
        "speedup": round(cold / warm_best, 2),
        "warm_cache_hits": hits,
        "warm_new_simulations": misses,
        "passes": passes,
    }


def _check(output: str, passes: int, tolerance: float) -> int:
    """CI bench guard: warm serial time vs the last recorded entry."""
    if not os.path.exists(output):
        print(f"bench check: no {output}; nothing to compare, passing")
        return 0
    with open(output) as handle:
        trajectory = json.load(handle)
    if not trajectory:
        print("bench check: empty trajectory, passing")
        return 0
    last = trajectory[-1]
    baseline = last.get("fastpath", {}).get("fast_seconds")
    kind = "warm fast-path"
    if baseline is None:
        baseline = last["serial"]["wall_seconds"]
        kind = "serial (cold, pre-fastpath entry)"
    current = _warm_seconds(passes)
    limit = baseline * (1.0 + tolerance)
    verdict = "OK" if current <= limit else "REGRESSION"
    print(f"bench check: warm serial matrix {current:.3f}s vs "
          f"{kind} baseline {baseline:.3f}s from commit "
          f"{last.get('commit', '?')} (limit {limit:.3f}s) -> {verdict}")
    failed = current > limit
    # Fixed floors, far below the recorded ratios so noisy runners do
    # not flake.  Each ratio says a cheaper answer stays dramatically
    # cheaper than simulating:
    # * analytic — rung-0 only earns its place as triage at >= 20x
    #   (recorded ~50x+);
    # * bound — the tuner's admission pruning and the tenancy oracle
    #   column assume the bound is essentially free (recorded >= 50x);
    # * chiplet — placement triage on the NUMA-charged simulation; the
    #   matrix runs at the study's shrunken 0.3 scale, so its floor
    #   sits below the tuner-scale analytic floor.
    for key, floor, measure, what in (
            ("analytic", 20.0, _measure_analytic,
             "analytic rung {:.1f}x cheaper per decision than simulation"),
            ("bound", 15.0, _measure_bound,
             "oracle bound {:.1f}x cheaper per decision than simulation"),
            ("chiplet", 5.0, _measure_chiplet,
             "chiplet placement decision {:.1f}x cheaper analytically "
             "than simulated")):
        speedup = measure(passes)["speedup"]
        recorded = last.get(key, {}).get("speedup")
        recorded = f"{recorded:.1f}x" if recorded is not None else "n/a"
        verdict = "OK" if speedup >= floor else "REGRESSION"
        print(f"bench check: {what.format(speedup)} (recorded {recorded}, "
              f"floor {floor:.0f}x) -> {verdict}")
        failed = failed or speedup < floor
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel pass")
    parser.add_argument("--passes", type=int, default=3,
                        help="warm passes per timed configuration; the "
                             "minimum is reported (default 3)")
    parser.add_argument("--output", default=None,
                        help="trajectory file (default: BENCH_sweep.json "
                             "at the repo root)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the entry without appending it")
    parser.add_argument("--check", action="store_true",
                        help="compare against the last recorded entry and "
                             "exit 1 on a regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown for --check "
                             "(default 0.20)")
    args = parser.parse_args(argv)

    output = args.output
    if output is None:
        output = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_sweep.json")

    if args.check:
        return _check(output, args.passes, args.tolerance)

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "version": __version__,
        "python": _platform.python_version(),
        "matrix": {"workloads": list(WORKLOADS), "schemes": list(SCHEMES),
                   "platform": TESLA_K40.name, "scale": SCALE, "seed": 0},
        "serial": _measure(jobs=1),
        "parallel": _measure(jobs=args.jobs),
        "fastpath": _measure_fastpath(args.passes),
        "analytic": _measure_analytic(args.passes),
        "bound": _measure_bound(args.passes),
        "chiplet": _measure_chiplet(args.passes),
        "tuner": _measure_tuner(args.passes),
    }

    print(json.dumps(entry, indent=2))
    if args.dry_run:
        return 0

    trajectory = []
    if os.path.exists(output):
        with open(output) as handle:
            trajectory = json.load(handle)
    trajectory.append(entry)
    tmp = output + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, output)
    print(f"\nappended entry #{len(trajectory)} to {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
