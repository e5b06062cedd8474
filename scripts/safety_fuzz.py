#!/usr/bin/env python3
"""Seeded safety fuzz: random drops, duplication, delay jitter, and up to f
crash faults per role, across f in {1, 2} and the four workload conflict
rates. Every history must pass the checker. Exits 1 on the first violation.

Usage: python scripts/safety_fuzz.py [num_seeds]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fuzz_helpers import fuzz_config
from graphsmr.harness import check_history, run_simulation

CONFLICT_RATES = (0.0, 0.02, 0.1, 1.0)


def main():
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    t0 = time.time()
    completed = 0
    for seed in range(seeds):
        f = 1 if seed % 2 == 0 else 2
        rate = CONFLICT_RATES[seed % len(CONFLICT_RATES)]
        config, workload, faults = fuzz_config(seed, f, rate)
        result = run_simulation(config, workload, faults)
        verdict = check_history(result.history)
        if not verdict.ok:
            print(f"seed {seed}: VIOLATION\n{verdict}")
            return 1
        completed += result.completed
        if (seed + 1) % 200 == 0:
            print(f"  {seed + 1}/{seeds} seeds checked "
                  f"({time.time() - t0:.1f}s, {completed} completed)")
    print(f"ok: {seeds} seeded runs clean in {time.time() - t0:.1f}s "
          f"({completed} ran to completion)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
