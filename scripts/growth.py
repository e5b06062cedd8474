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

A second table times the wire trace codec on the worst case for it, exact
deps at conflict rate 1.0, where every dependency set lists the whole
history before it: a separate run captures the trace, and once its sets
are freed (so the codec's memos start empty) decode_trace reads it back
and encode_trace_record writes every record again. Both are reported per
record, next to the bytes per record, so a codec cost that grows faster
than the data shows. The trace is about 370 MB at 3200 commands.

Usage: python scripts/growth.py [--sizes 200 800 3200]
"""

import argparse
import dataclasses
import gc
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphsmr import wire
from graphsmr.bench import BenchConfig, generate_workload, sim_config_for
from graphsmr.harness import check_history, run_simulation

CLIENTS = 10
# the checker is deterministic and cheap next to the simulation, so it is
# timed as the best of a few runs: a short check is otherwise dominated by
# whatever else the host is doing
CHECK_REPEATS = 3
ROWS = (("exact", 0.0), ("exact", 1.0), ("compact", 0.1), ("compact", 1.0))


def _config(deps: str, conflict: float, commands: int) -> BenchConfig:
    return BenchConfig(
        clients=CLIENTS,
        commands_per_client=commands // CLIENTS,
        conflict_rate=conflict,
        compact_deps=deps == "compact",
        seed=1,
    )


def measure(deps: str, conflict: float, commands: int) -> tuple[float, float]:
    """(simulation wall ms per command, checker wall seconds) for one run."""
    config = _config(deps, conflict, commands)
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


def measure_codec(commands: int) -> tuple[float, float, float]:
    """(trace bytes, encode us, decode us) per record of an exact-deps,
    all-conflict run's wire trace."""
    config = _config("exact", 1.0, commands)
    workload = generate_workload(config, random.Random(f"{config.seed}/workload"))
    sim_config = dataclasses.replace(sim_config_for(config), capture_wire_trace=True)
    trace = run_simulation(sim_config, workload).wire_trace
    gc.collect()
    t0 = time.perf_counter()
    records = wire.decode_trace(trace)
    t1 = time.perf_counter()
    for record in records:
        wire.encode_trace_record(*record)
    t2 = time.perf_counter()
    n = len(records)
    return len(trace) / n, (t2 - t1) * 1e6 / n, (t1 - t0) * 1e6 / n


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
    print()
    print(f"| trace codec | B/record {at} | encode us/record {at} | decode us/record {at} |")
    print("|---|---|---|---|")
    runs = [measure_codec(n) for n in args.sizes]
    cells = [" → ".join(f"{run[i]:.{digits}f}" for run in runs)
             for i, digits in ((0, 0), (1, 1), (2, 1))]
    print(f"| exact 1.0 | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
