#!/usr/bin/env python
"""Cache-pair pool probe: many small fresh simulate jobs in one process.

Runs the service's fresh-key lane in-process: ``simulate_job("NN",
gpu, scale=0.05)`` alternating GTX980 and Tesla K40, each job with its
own seed so every one really simulates.  One warm-up job per platform
comes first, the way a service worker has served a few requests before
the ones that count.  Prints the wall time, the median per job and the
gen-2 collections the measured jobs triggered, and counts cache-pair
constructions (``GpuSimulator.fresh_caches`` calls) per cache geometry
(``repro.gpu.simulator.cache_key``).

Exit status 1 if any geometry built more than one pair: with the
process-wide pool every later job of that geometry must reuse the
parked pair.  Wall time and gen-2 counts are printed, never gated.

    PYTHONPATH=src python scripts/cache_pool_probe.py [--jobs 100] [--freeze]

``--freeze`` calls ``gc.freeze()`` after the warm-up, as the service's
pool workers once did.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import Counter

from repro.engine.executors import execute, simulate_job
from repro.gpu.simulator import GpuSimulator, cache_key

PLATFORMS = ("GTX980", "Tesla K40")
SCALE = 0.05


def _gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=100,
                        help="measured jobs (default: 100)")
    parser.add_argument("--freeze", action="store_true",
                        help="gc.freeze() after the warm-up")
    args = parser.parse_args(argv)

    built = Counter()
    fresh = GpuSimulator.fresh_caches

    def counting_fresh(self):
        built[cache_key(self.config, self.fast)] += 1
        return fresh(self)

    GpuSimulator.fresh_caches = counting_fresh
    for gpu in PLATFORMS:
        execute(simulate_job("NN", gpu, scale=SCALE, seed=0))
    if args.freeze:
        gc.freeze()

    cycles, times = [], []
    gen2 = _gen2_collections()
    start = time.perf_counter()
    for i in range(args.jobs):
        job = simulate_job("NN", PLATFORMS[i % len(PLATFORMS)],
                           scale=SCALE, seed=i + 1)
        t0 = time.perf_counter()
        cycles.append(execute(job).cycles)
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    gen2 = _gen2_collections() - gen2

    print(f"jobs: {args.jobs}  wall: {wall:.3f} s  "
          f"median: {1e3 * statistics.median(times):.2f} ms  "
          f"max: {1e3 * max(times):.2f} ms  gen-2 collections: {gen2}")
    print(f"cycles digest: {hash(tuple(cycles)) & 0xFFFFFFFF:08x}")
    rebuilt = {key: n for key, n in built.items() if n > 1}
    for key, n in sorted(built.items(), key=str):
        print(f"pairs built for {key}: {n}")
    if rebuilt:
        print(f"FAIL: {len(rebuilt)} cache geometries built more than "
              f"one pair", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
