"""Seeded workload definitions.

A sim workload is a list of scenarios run back to back as one round. Every
scenario is a closed loop (each client waits for its reply before issuing
the next command) with f=1, two leaders and two replicas. The per-scenario
sizes are the ones the benchmark was designed at; a workload with a wide
seed-to-seed spread runs several scenarios, each from its own sub-seed, so
one run measures more independent inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from graphsmr.bench import BenchConfig, generate_workload, sim_config_for
from graphsmr.core import Op
from graphsmr.harness import Crash, Fault, LinkFault, SimConfig
from graphsmr.modelcheck import ModelConfig, full_conflicts

SIM_WORKLOADS = ("commute", "hotspot", "faults")

# the state count of the model below; explore() must reproduce it exactly
MODELCHECK_STATES = 42_213


@dataclass(frozen=True)
class Scenario:
    bench: BenchConfig
    faults: tuple[Fault, ...] = ()
    capture_wire_trace: bool = False

    @property
    def commands(self) -> int:
        return self.bench.clients * self.bench.commands_per_client

    def sim_config(self) -> SimConfig:
        return replace(
            sim_config_for(self.bench), capture_wire_trace=self.capture_wire_trace
        )

    def generate(self) -> list[list[Op]]:
        return generate_workload(
            self.bench, random.Random(f"{self.bench.seed}/workload")
        )


def _commute(seed: int) -> Scenario:
    # no conflicts: empty dependency sets, a trivial checker; the time goes
    # to the simulator loop and to replica execution over the commit graph
    return Scenario(
        BenchConfig(
            clients=64,
            commands_per_client=50,
            conflict_rate=0.0,
            service_cost_ms=0.05,
            min_delay_ms=1.0,
            max_delay_ms=2.0,
            seed=seed,
        )
    )


def _hotspot(seed: int) -> Scenario:
    # half the commands write one hot key and watermark deps cover the whole
    # prefix, so check_history dominates; batching keeps the graph small.
    # Delays are U[1.4,1.6] ms, not U[1,2]: with the wider spread the 5 ms
    # flush timer splits batches differently per seed, the graph has 160 to
    # 244 vertices, and the checker's cost per command moves 2.5x. With the
    # narrow spread every batch fills at every seed tried (160 vertices).
    return Scenario(
        BenchConfig(
            clients=32,
            commands_per_client=40,
            conflict_rate=0.5,
            compact_deps=True,
            batch_size=8,
            thrifty=True,
            service_cost_ms=0.05,
            min_delay_ms=1.4,
            max_delay_ms=1.6,
            seed=seed,
        )
    )


def _faults(seed: int) -> Scenario:
    # lossy, duplicating links and a leader crash: retransmits, client
    # retry and rotation, noop recovery, dedup, exact O(n^2) dependency
    # state and wire encoding of every delivered message
    return Scenario(
        BenchConfig(
            clients=8,
            commands_per_client=150,
            conflict_rate=0.5,
            min_delay_ms=1.0,
            max_delay_ms=3.0,
            seed=seed,
        ),
        faults=(LinkFault("*", "*", drop=0.05, dup=0.05), Crash("leader-1", 500.0)),
        capture_wire_trace=True,
    )


_BUILDERS = {"commute": _commute, "hotspot": _hotspot, "faults": _faults}

# scenarios per round: with one scenario, the throughput of faults moves by
# 10 % from seed to seed
SCENARIOS_PER_ROUND = {"commute": 1, "hotspot": 1, "faults": 2}

_SUB_SEED_STRIDE = 1_000_003


def scenarios(workload: str, seed: int) -> list[Scenario]:
    """The scenarios of one round; scenario 0 uses the seed itself."""
    build = _BUILDERS[workload]
    return [
        build(seed + i * _SUB_SEED_STRIDE)
        for i in range(SCENARIOS_PER_ROUND[workload])
    ]


def model_config() -> ModelConfig:
    """The defaults of `graphsmr check`: two fully conflicting commands,
    three dependency nodes, quorum two. The model is explored exhaustively,
    so it takes nothing from the seed."""
    commands = ("a", "b")
    return ModelConfig(
        commands=commands,
        conflicts=full_conflicts(commands),
        dep_nodes=3,
        quorum_size=2,
    )
