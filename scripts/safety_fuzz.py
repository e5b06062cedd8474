#!/usr/bin/env python3
"""Seeded safety fuzz: random drops, duplication, delay jitter, and up to f
crash faults per role, across f in {1, 2} and the four workload conflict
rates. Every history must pass the checker, and every run that completes
must, after settling for 2 s of simulated time, leave no chosen vertex
uncommitted at a live replica (tests/fuzz_helpers.commit_holes). Exits 1 on
the first violation.

The long tier (--long N) runs N seeds of the same faults at 10 000 commands
each, cycling through exact and compact deps at conflict rates 0.02 and 0.1
and compact deps at 1.0; it takes tens of seconds per seed.

Usage: python scripts/safety_fuzz.py [num_seeds]
       python scripts/safety_fuzz.py --long N
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fuzz_helpers import SETTLE_MS, commit_holes, long_fuzz_config, short_scenario
from graphsmr.harness import check_history
from graphsmr.harness.sim import Simulation


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("num_seeds", nargs="?", type=int, default=1000)
    parser.add_argument("--long", type=int, metavar="N",
                        help="run N seeds of the 10 000-command tier instead")
    args = parser.parse_args()
    long_tier = args.long is not None
    seeds = args.long if long_tier else args.num_seeds
    scenario = long_fuzz_config if long_tier else short_scenario
    t0 = time.time()
    completed = 0
    for seed in range(seeds):
        config, workload, faults = scenario(seed)
        t_sim = time.time()
        result = Simulation(config, workload, faults).run(settle_ms=SETTLE_MS)
        t_check = time.time()
        verdict = check_history(result.history)
        if not verdict.ok:
            print(f"seed {seed}: VIOLATION\n{verdict}")
            return 1
        holes = commit_holes(result, faults, SETTLE_MS) if result.completed else []
        if holes:
            print(f"seed {seed}: chosen but never committed at a live replica: {holes}")
            return 1
        completed += result.completed
        if long_tier:
            deps = "compact" if config.compact_deps else "exact"
            print(f"  seed {seed}: {deps} deps, f={config.f}, "
                  f"{len(result.history)} records, sim {t_check - t_sim:.1f}s, "
                  f"check {time.time() - t_check:.2f}s"
                  f"{'' if result.completed else ', not completed'}", flush=True)
        elif (seed + 1) % 200 == 0:
            print(f"  {seed + 1}/{seeds} seeds checked "
                  f"({time.time() - t0:.1f}s, {completed} completed)")
    print(f"ok: {seeds} seeded runs clean in {time.time() - t0:.1f}s "
          f"({completed} ran to completion)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
