#!/usr/bin/env python3
"""Measured per-role message loads against the analytic model.

Runs a failure-free, thrifty-off, batch-1 simulation and prints the
messages each role processes per command next to the closed-form values:
leader 2N+2, proposer 2N+R+1, dependency node 2, acceptor 2, replica
1 + 1/R, with N = 2f+1 nodes in each quorum-replicated role.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fractions import Fraction

from graphsmr.bench import BenchConfig, generate_workload
from graphsmr.harness import SimConfig, role_loads, run_simulation

import random


def measure(f, leaders, replicas):
    bench = BenchConfig(clients=4, commands_per_client=10, conflict_rate=0.0, seed=2)
    workload = generate_workload(bench, random.Random("loads"))
    result = run_simulation(
        SimConfig(seed=2, f=f, leaders=leaders, replicas=replicas), workload
    )
    assert result.completed
    return role_loads(result)


def main():
    for f, leaders, replicas in ((1, 2, 2), (1, 5, 2), (2, 3, 3)):
        n = 2 * f + 1
        model = {
            "leader": Fraction(2 * n + 2),
            "proposer": Fraction(2 * n + replicas + 1),
            "dep": Fraction(2),
            "acceptor": Fraction(2),
            "replica": 1 + Fraction(1, replicas),
        }
        measured = measure(f, leaders, replicas)
        print(f"f={f} leaders={leaders} replicas={replicas} (N={n}):")
        for role in ("leader", "proposer", "dep", "acceptor", "replica"):
            mark = "ok" if measured[role] == model[role] else "MISMATCH"
            print(f"  {role:9s} measured={measured[role]!s:6s} model={model[role]!s:6s} {mark}")


if __name__ == "__main__":
    main()
