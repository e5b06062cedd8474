#!/usr/bin/env python3
"""Cost growth with history length: wall-clock simulation ms per command and
check_history seconds at several run sizes, for exact and compact deps with
and without conflicts. This is the baseline table of ROADMAP.md.

Each run is BenchConfig(clients=10, seed=1) with thrifty off and service
cost 0, so a size of N commands is 10 clients x N/10 commands each. Every
history must pass the checker. A simulation time comes from one run, a
checker time from the best of CHECK_REPEATS checks of that run's history,
each after a full garbage collection, so a collection left over from the
previous run does not land in the next one.

Usage: python scripts/growth.py [--sizes 200 800 3200]
"""

import argparse
import gc
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphsmr.bench import BenchConfig, generate_workload, sim_config_for
from graphsmr.harness import check_history, run_simulation

CLIENTS = 10
# the checker is deterministic and cheap next to the simulation, so it is
# timed as the best of a few runs: a short check is otherwise dominated by
# whatever else the host is doing
CHECK_REPEATS = 3
ROWS = (("exact", 0.0), ("exact", 1.0), ("compact", 0.1), ("compact", 1.0))


def measure(deps: str, conflict: float, commands: int) -> tuple[float, float]:
    """(simulation wall ms per command, checker wall seconds) for one run."""
    config = BenchConfig(
        clients=CLIENTS,
        commands_per_client=commands // CLIENTS,
        conflict_rate=conflict,
        compact_deps=deps == "compact",
        seed=1,
    )
    workload = generate_workload(config, random.Random(f"{config.seed}/workload"))
    gc.collect()
    t0 = time.perf_counter()
    result = run_simulation(sim_config_for(config), workload)
    sim_s = time.perf_counter() - t0
    check_s = float("inf")
    for _ in range(CHECK_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        verdict = check_history(result.history)
        check_s = min(check_s, time.perf_counter() - t0)
    if not verdict.ok:
        raise SystemExit(f"{deps} deps, conflict {conflict}, {commands} commands:\n{verdict}")
    if not result.completed:
        raise SystemExit(f"{deps} deps, conflict {conflict}, {commands} commands: run did not complete")
    return sim_s * 1000.0 / commands, check_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 800, 3200],
                        metavar="N", help="commands per run, multiples of 10")
    args = parser.parse_args()
    if any(n < CLIENTS or n % CLIENTS for n in args.sizes):
        parser.error(f"sizes must be positive multiples of {CLIENTS}")
    at = " → ".join(f"@{n}" for n in args.sizes)
    print(f"| deps | conflict | sim ms/cmd {at} | checker s {at} |")
    print("|---|---|---|---|")
    for deps, conflict in ROWS:
        runs = [measure(deps, conflict, n) for n in args.sizes]
        sim = " → ".join(f"{ms:.2f}" for ms, _ in runs)
        check = " → ".join(f"{s:.4f}" for _, s in runs)
        print(f"| {deps} | {conflict} | {sim} | {check} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
