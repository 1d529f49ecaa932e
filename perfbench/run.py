"""Benchmark entry point.

Run one workload and print its metrics (the last stdout line is the
JSON result)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` reports every end-to-end metric of BENCHMARK.json from
untraced runs; ``--trace 1`` runs the separate traced run and reports
every per-layer metric, printing the per-layer self-time table to
stderr.  ``--steadiness N`` is the self-check: it runs each workload N
times (seeds 1..N) in two independent sets and prints, per metric, the
median and interquartile spread of each set, the shift between the
sets' medians, the box's noise probe and ``cpu_count``.

The benchmark builds nothing: it imports the program from ``src/``
of the checkout it runs in, and keeps every file it writes under
``.perfbench_tmp/`` there, removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common

WORKLOADS = ("paper-sweep", "tune-session", "serve-mix")


def _module(workload: str):
    if workload == "paper-sweep":
        import paper_sweep
        return paper_sweep
    if workload == "tune-session":
        import tune_session
        return tune_session
    import serve_mix
    return serve_mix


def _contract() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload; returns the result object to print."""
    common.require_program()
    contract = _contract()
    section = contract["per_layer" if trace else "end_to_end"]
    module = _module(workload)
    with common.scratch_dir(workload) as tmp:
        if trace:
            metrics, outcome = module.run_traced(seed, seconds, tmp)
        else:
            metrics, outcome = module.run(seed, seconds, tmp)
    names = [m["name"] for m in section]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise common.BenchError(f"{workload} did not report {missing}")
    for key, value in sorted(outcome.items()):
        print(f"[{workload}] {key}: {value}", file=sys.stderr)
    correct = outcome["failed"] == 0 and outcome["deterministic"]
    return {"correct": correct, "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                    "unit": m["unit"]} for m in section}}


def steadiness(workloads, runs: int, seconds: int) -> int:
    """Run each workload ``runs`` times in two sets; print the spreads."""
    contract = _contract()
    print(f"cpu_count: {os.cpu_count()}")
    print(f"noise probe before: {common.noise_probe()}")
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    for workload in workloads:
        sets = []
        for set_index in range(2):
            values: "dict[str, list[float]]" = {}
            for seed in range(1, runs + 1):
                command = [sys.executable, __file__, "--workload", workload,
                           "--seed", str(seed + 100 * set_index),
                           "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(command, cwd=str(common.ROOT),
                                     capture_output=True, text=True,
                                     timeout=600)
                if out.returncode != 0:
                    print(out.stderr, file=sys.stderr)
                    return 1
                result = json.loads(out.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect result",
                          file=sys.stderr)
                    return 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"\n{workload} ({runs} runs per set, {seconds}s each)")
        print(f"{'metric':<20} {'median1':>12} {'iqr1':>7} "
              f"{'median2':>12} {'iqr2':>7} {'shift':>7} {'bound':>6}")
        for name in sets[0]:
            m1 = common.median(sets[0][name])
            m2 = common.median(sets[1][name])
            shift = (m2 - m1) / m1 if m1 else 0.0
            print(f"{name:<20} {m1:>12.5g} {common.spread(sets[0][name]):>7.3f} "
                  f"{m2:>12.5g} {common.spread(sets[1][name]):>7.3f} "
                  f"{shift:>+7.3f} {bounds.get(name) or 0:>6.2f}")
    print(f"\nnoise probe after: {common.noise_probe()}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        common.import_repro()
        _module(args.child).child(json.loads(args.spec))
        return 0
    try:
        if args.steadiness:
            chosen = [args.workload] if args.workload else list(WORKLOADS)
            return steadiness(chosen, args.steadiness, args.seconds)
        if not args.workload:
            parser.error("--workload is required")
        started = time.perf_counter()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (common.BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(f"[{args.workload}] run took {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
