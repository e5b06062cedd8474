"""Benchmark configuration, closed-loop workload generation, the analytic
bottleneck model, and CSV reporting.

Simulated-time throughput numbers validate trends and the message-count
model; they are not hardware performance claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from .core import Get, Op, Set
from .harness.cluster import check_delays
from .harness.history import check_history
from .harness.sim import SimConfig, Simulation, Timeouts, role_loads
from .sockets import SocketCluster

HOT_KEY = b"hotkey!!"  # eight bytes, like every key and value

CSV_HEADER = "config_id,f,leaders,clients,conflict_rate,batch,throughput,p50_ms,p99_ms"


@dataclass
class BenchConfig:
    clients: int = 10
    conflict_rate: float = 0.0
    batch_size: int = 1
    commands_per_client: int = 20
    duration_ms: float = 300_000.0  # simulated-time safety cap
    f: int = 1
    leaders: int = 2
    replicas: int = 2
    coupled: bool = False
    thrifty: bool = False
    compact_deps: bool = False
    seed: int = 0
    transport: str = "sim"  # sim | socket
    min_delay_ms: float = 1.0
    max_delay_ms: float = 1.0
    service_cost_ms: float = 0.0
    config_id: str = ""

    def validate(self) -> None:
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must lie in [0, 1]")
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.commands_per_client < 1:
            raise ValueError("commands_per_client must be >= 1")
        if not self.duration_ms > 0:
            raise ValueError(f"the run's time cap must be positive, got {self.duration_ms:g} ms")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.transport not in ("sim", "socket"):
            raise ValueError(f"unknown transport {self.transport!r}")
        check_delays(self.min_delay_ms, self.max_delay_ms, self.service_cost_ms)
        if self.transport == "socket" and self.service_cost_ms > 0:
            raise ValueError("sockets have no service-time model: "
                             "service_cost_ms must be 0 on transport socket")


class IncompleteRun(Exception):
    """The run stopped at its duration cap before every command was answered."""


@dataclass
class BenchReport:
    throughput: float  # commands per second of simulated (or wall) time
    p50_ms: float
    p99_ms: float
    role_loads: dict[str, Fraction]
    config: BenchConfig
    commands: int

    def csv_row(self) -> str:
        c = self.config
        return (
            f"{c.config_id or 'run'},{c.f},{c.leaders},{c.clients},"
            f"{c.conflict_rate},{c.batch_size},"
            f"{self.throughput:.2f},{self.p50_ms:.3f},{self.p99_ms:.3f}"
        )


def generate_workload(config: BenchConfig, rng: random.Random) -> list[list[Op]]:
    """Closed-loop command streams: with probability conflict_rate a write
    to the single hot key, otherwise a read of a key unique to the draw.
    Keys and values are eight bytes."""
    streams: list[list[Op]] = []
    draw = 0
    for _c in range(config.clients):
        ops: list[Op] = []
        for _i in range(config.commands_per_client):
            draw += 1
            if rng.random() < config.conflict_rate:
                ops.append(Set(HOT_KEY, rng.getrandbits(64).to_bytes(8, "big")))
            else:
                ops.append(Get(f"{draw:08d}".encode()))
        streams.append(ops)
    return streams


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = max(0, ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


@dataclass
class BottleneckModel:
    multileader: Fraction  # relative throughput of the scaled-leader protocol
    single_leader: Fraction
    saturation_leaders: int  # smallest L where 2-message roles bind


def bottleneck_model(L: int, N: int, R: int) -> BottleneckModel:
    """Relative-throughput model: the leader/proposer pair carries
    2N+R+1 messages per command, so throughput scales as L/(2N+R+1) until
    the 2-message roles (dependency nodes, acceptors) become the binding
    constraint; the single-leader baseline is 1/(2N+2)."""
    if min(L, N, R) < 1:
        raise ValueError("L, N, R must all be >= 1")
    heavy = max(2 * N + 2, 2 * N + R + 1)
    return BottleneckModel(
        multileader=Fraction(L, 2 * N + R + 1),
        single_leader=Fraction(1, 2 * N + 2),
        saturation_leaders=ceil(Fraction(heavy, 2)),
    )


def sim_config_for(config: BenchConfig) -> SimConfig:
    saturated = config.service_cost_ms > 0
    timeouts = Timeouts()
    if saturated:
        # queueing delay must not trip retransmits; the load model measures
        # steady-state work, not fault handling
        timeouts = Timeouts(
            client_retry_ms=1e9,
            leader_retransmit_ms=1e9,
            proposer_retransmit_ms=1e9,
            recovery_timeout_ms=1e9,
        )
    return SimConfig(
        seed=config.seed,
        f=config.f,
        leaders=config.leaders,
        replicas=config.replicas,
        coupled=config.coupled,
        min_delay_ms=config.min_delay_ms,
        max_delay_ms=config.max_delay_ms,
        service_cost_ms=config.service_cost_ms,
        compact_deps=config.compact_deps,
        thrifty=config.thrifty,
        batch_size=config.batch_size,
        timeouts=timeouts,
        max_sim_ms=config.duration_ms,
    )


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the configured workload on either transport, check its history,
    then summarise the run. Raises AssertionError on a safety violation and
    IncompleteRun if a command went unanswered. Socket runs report wall-clock
    times; both transports count the messages behind the role loads."""
    config.validate()
    workload = generate_workload(config, random.Random(f"{config.seed}/workload"))
    runner = SocketCluster if config.transport == "socket" else Simulation
    run = runner(sim_config_for(config), workload).run()
    verdict = check_history(run.history)
    if not verdict.ok:
        raise AssertionError(f"bench run violated safety:\n{verdict}")
    latencies = sorted(run.latencies_ms())
    commands = len(latencies)
    total = config.clients * config.commands_per_client
    if commands < total:
        raise IncompleteRun(f"{commands}/{total} commands answered "
                            f"within {config.duration_ms:g} ms")
    elapsed_ms = run.end_ms if run.end_ms > 0 else 1.0
    return BenchReport(
        throughput=commands / (elapsed_ms / 1000.0),
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        role_loads=role_loads(run),
        config=config,
        commands=commands,
    )
