#!/usr/bin/env python3
"""Coupled-vs-decoupled ablation under the service-time load model.

Saturates a closed-loop client population against four deployments and
prints one CSV row each: a coupled 3-super-node cluster, then decoupled
clusters with 3, 5, and 7 leaders. Expected shape: coupled is the slowest,
throughput rises with leaders until the 2-message roles (dependency nodes,
acceptors) become the bottleneck, then flattens.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphsmr.bench import CSV_HEADER, BenchConfig, run_bench


def config(name, coupled, leaders, clients=120):
    f = 1
    return BenchConfig(
        config_id=name,
        clients=clients,
        commands_per_client=8,
        conflict_rate=0.0,
        f=f,
        leaders=leaders,
        replicas=2 * f + 1 if coupled else f + 1,
        coupled=coupled,
        thrifty=False,
        seed=1,
        min_delay_ms=0.1,
        max_delay_ms=0.1,
        service_cost_ms=1.0,
        duration_ms=10_000_000.0,
    )


def main():
    rows = [
        config("coupled-3", coupled=True, leaders=3),
        config("decoupled-3", coupled=False, leaders=3),
        config("decoupled-5", coupled=False, leaders=5),
        config("decoupled-7", coupled=False, leaders=7),
    ]
    print(CSV_HEADER)
    for cfg in rows:
        report = run_bench(cfg)
        print(report.csv_row())


if __name__ == "__main__":
    main()
