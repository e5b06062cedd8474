"""Deterministic discrete-event network simulator.

Determinism contract: identical (config, workload, faults) produce a
byte-identical history. The event queue orders by (timestamp, insertion
sequence); all randomness flows from generators seeded off config.seed.

Load model: delivering a message occupies the destination machine for
service_cost_ms, so a busy machine queues work behind itself. Timers fire
instantly (they model local clocks, not network work). Messages between
roles fused onto one machine skip the network entirely but still cost
service time there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional, Union

from .. import wire
from ..leader import AssignEvent
from ..messages import Note, Send, SetTimer
from ..replica import ReplicaPanic
from .cluster import ConfigError, build_cluster
from .history import Record
from .mutations import Mutations, NO_MUTATIONS


@dataclass(frozen=True)
class Timeouts:
    client_retry_ms: float = 200.0
    leader_retransmit_ms: float = 50.0
    proposer_retransmit_ms: float = 50.0
    recovery_timeout_ms: float = 100.0


# timers that fire after any run's cap, so in effect never
NO_TIMEOUTS = Timeouts(1e9, 1e9, 1e9, 1e9)


def check_probabilities(drop: Optional[float], dup: Optional[float]) -> None:
    """None stands for a probability left unset."""
    if not all(p is None or 0.0 <= p <= 1.0 for p in (drop, dup)):
        raise ConfigError("probabilities must lie in [0, 1]")


@dataclass
class SimConfig:
    seed: int = 0
    f: int = 1
    leaders: int = 2
    replicas: int = 2
    coupled: bool = False
    min_delay_ms: float = 1.0
    max_delay_ms: float = 1.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    service_cost_ms: float = 0.0
    compact_deps: bool = False
    thrifty: bool = False
    batch_size: int = 1
    timeouts: Timeouts = field(default_factory=Timeouts)
    max_sim_ms: float = 60_000.0
    mutations: Mutations = field(default_factory=lambda: NO_MUTATIONS)
    capture_wire_trace: bool = False  # record delivered messages as frames

    def validate(self) -> None:
        """Raises ConfigError for a deployment no run can honour.
        build_cluster calls it, so each run checks its config once."""
        f = self.f
        if f < 0:
            raise ConfigError(f"f must be >= 0, got {f}")
        if self.leaders < f + 1:
            raise ConfigError(f"need at least f+1={f + 1} leaders, got {self.leaders}")
        if self.replicas < f + 1:
            raise ConfigError(f"need at least f+1={f + 1} replicas, got {self.replicas}")
        if self.coupled and not (self.leaders == self.replicas == 2 * f + 1):
            raise ConfigError("coupled mode fuses one node of each role: "
                              "leaders = replicas = 2f+1 required")
        check_probabilities(self.drop_prob, self.dup_prob)
        if not 0.0 <= self.min_delay_ms <= self.max_delay_ms:
            raise ConfigError("delays must satisfy 0 <= min_delay_ms <= max_delay_ms")
        if not self.service_cost_ms >= 0.0:
            raise ConfigError("service_cost_ms must be >= 0")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.max_sim_ms > 0:
            raise ConfigError(f"the run's time cap must be positive, got {self.max_sim_ms:g} ms")


@dataclass(frozen=True)
class Crash:
    node: str
    at_ms: float


@dataclass(frozen=True)
class LinkFault:
    """Overrides the drop and duplication probabilities it sets on src->dst
    ("*" wildcards). Each probability of a link comes from the first
    matching fault that sets it, else from the run's drop_prob or dup_prob."""

    src: str
    dst: str
    drop: Optional[float] = None
    dup: Optional[float] = None


@dataclass(frozen=True)
class Partition:
    nodes: frozenset[str]
    start_ms: float
    end_ms: float


Fault = Union[Crash, LinkFault, Partition]


@dataclass
class SimResult:
    history: list[Record]
    sent: dict[str, int]
    received: dict[str, int]
    config: SimConfig
    roles: dict[str, object]
    clients: list
    layout: object
    completed: bool
    end_ms: float
    panic: Optional[str] = None
    wire_trace: bytes = b""

    def latencies_ms(self) -> list[float]:
        out = []
        for c in self.clients:
            out.extend(done - sent for sent, done in c.reply_times)
        return out


_DELIVER = 0
_TIMER = 1


class Simulation:
    def __init__(self, config: SimConfig, workload, faults: list[Fault] = ()):
        self.config = config
        self.roles, self.machine_of, self.clients, self.layout = build_cluster(
            config, workload
        )
        self.net_rng = random.Random(f"{config.seed}/net")
        self.sent: dict[str, int] = {}
        self.received: dict[str, int] = {}
        self.history: list[Record] = []
        self.busy: dict[str, float] = {}
        # events are (time, insertion seq, kind, node, a, b): a delivery to
        # node carries (src, msg), a timer at node carries (key, None)
        self.heap: list = [
            (0.0, n, _TIMER, client.name, ("start",), None)
            for n, client in enumerate(self.clients)
        ]
        self.seq = len(self.heap)
        self.now = 0.0
        self.panic: Optional[str] = None
        self.wire_trace: list[bytes] = []

        self.crashes: dict[str, float] = {}
        self.partitions: list[Partition] = []
        self.link_faults: list[LinkFault] = []
        # a fault that can never fire is a typo, not a fault-free run
        for fault in faults:
            if isinstance(fault, Crash):
                named = {fault.node}
                self.crashes[fault.node] = min(
                    fault.at_ms, self.crashes.get(fault.node, fault.at_ms)
                )
            elif isinstance(fault, Partition):
                if fault.end_ms <= fault.start_ms:
                    raise ConfigError(f"partition does not end after it starts: {fault!r}")
                named = fault.nodes
                self.partitions.append(fault)
            elif isinstance(fault, LinkFault):
                check_probabilities(fault.drop, fault.dup)
                named = {fault.src, fault.dst} - {"*"}
                self.link_faults.append(fault)
            else:
                raise ConfigError(f"unknown fault {fault!r}")
            unknown = sorted(named - self.roles.keys())
            if unknown:
                raise ConfigError(f"{fault!r} names unknown nodes: {', '.join(unknown)}")

    def _partitioned(self, src: str, dst: str, t: float) -> bool:
        for p in self.partitions:
            if p.start_ms <= t < p.end_ms and (src in p.nodes) != (dst in p.nodes):
                return True
        return False

    def _link(self, src: str, dst: str) -> tuple[bool, float, float]:
        """(co-located, drop, dup) of the src -> dst link. Unlike a
        partition, none of it depends on the time of a send."""
        if self.machine_of.get(src) == self.machine_of.get(dst) and src != dst:
            return True, 0.0, 0.0
        drop = dup = None
        # the run's probabilities apply to every link no fault sets them on
        run = LinkFault("*", "*", self.config.drop_prob, self.config.dup_prob)
        for lf in (*self.link_faults, run):
            if lf.src in ("*", src) and lf.dst in ("*", dst):
                drop = lf.drop if drop is None else drop
                dup = lf.dup if dup is None else dup
        return False, drop, dup

    # -- main loop ---------------------------------------------------------

    def run(self, settle_ms: float = 0.0) -> SimResult:
        """Deliver events until every client is done, then for settle_ms
        more of simulated time, so repairs that no client waits for can
        finish. end_ms is the time the last client was done either way."""
        config = self.config
        heap, busy, history = self.heap, self.busy, self.history
        sent, received, crashes = self.sent, self.received, self.crashes
        machine_of = self.machine_of
        lo, hi = config.min_delay_ms, config.max_delay_ms
        # a link delay is lo + spread * chance(): Random.uniform(lo, hi) with
        # the same draw and arithmetic, less a method call per send
        jitter, spread = hi > lo, hi - lo
        chance = self.net_rng.random
        partitioned = self._partitioned if self.partitions else None
        links: dict[tuple[str, str], tuple[bool, float, float]] = {}  # filled lazily
        # handlers are resolved here, not at construction, so wrappers
        # installed on a role instance (or on the wire encoder) before run()
        # are the ones called
        on_message = {node: role.on_message for node, role in self.roles.items()}
        on_timer = {node: role.on_timer for node, role in self.roles.items()}
        cost = {
            node: 0.0 if node.startswith("client-") else config.service_cost_ms
            for node in self.roles
        }
        encode = wire.encode_trace_record if config.capture_wire_trace else None
        # clients with work left; only a delivery to a client can finish it
        pending = {c.name: c for c in self.clients if not c.done}
        max_ms = config.max_sim_ms
        seq, now, panic = self.seq, self.now, None
        end_ms = None  # when the last client was done

        while heap:
            t, _n, kind, node, a, b = heappop(heap)
            if t > max_ms:
                break
            now = t
            if crashes:
                crash_at = crashes.get(node)
                if crash_at is not None and t >= crash_at:
                    continue
            if kind == _DELIVER:
                if encode is not None:
                    self.wire_trace.append(encode(a, node, b))
                machine = machine_of[node]
                free = busy.get(machine, 0.0)
                # sends and timers happen when service completes; history
                # records carry the arrival time t, so timestamps stay
                # globally non-decreasing even when a busy machine is late
                done = (free if free > t else t) + cost[node]
                busy[machine] = done
                received[node] = received.get(node, 0) + 1
                try:
                    effects = on_message[node](a, b, done)
                except ReplicaPanic as exc:
                    effects, panic = exc.effects, str(exc)
            else:
                done = t
                effects = on_timer[node](a, t)

            for eff in effects:
                effect = type(eff)
                if effect is Send:
                    sent[node] = sent.get(node, 0) + 1
                    dst = eff.dst
                    link = links.get((node, dst))
                    if link is None:
                        link = links[node, dst] = self._link(node, dst)
                    co_located, drop, dup = link
                    if co_located:
                        # co-located roles exchange messages off the network
                        heappush(heap, (done, seq, _DELIVER, dst, node, eff.msg))
                        seq += 1
                        continue
                    if partitioned is not None and partitioned(node, dst, done):
                        continue
                    if drop > 0.0 and chance() < drop:
                        continue
                    delay = lo + spread * chance() if jitter else lo
                    heappush(heap, (done + delay, seq, _DELIVER, dst, node, eff.msg))
                    seq += 1
                    if dup > 0.0 and chance() < dup:
                        delay = lo + spread * chance() if jitter else lo
                        heappush(heap, (done + delay, seq, _DELIVER, dst, node, eff.msg))
                        seq += 1
                elif effect is SetTimer:
                    # a timer past the cap would only end the run when
                    # popped, which the empty heap does as well
                    deadline = done + eff.delay_ms
                    if deadline <= max_ms:
                        heappush(heap, (deadline, seq, _TIMER, node, eff.key, None))
                        seq += 1
                elif effect is Note:
                    history.append((t, len(history), eff.event))

            if panic is not None:
                break
            now = done
            if node in pending and pending[node].done:
                del pending[node]
            if not pending and end_ms is None:
                if settle_ms <= 0.0:
                    break
                end_ms = now
                max_ms = min(max_ms, now + settle_ms)
        self.seq, self.now, self.panic = seq, now, panic

        return SimResult(
            history=history,
            sent=sent,
            received=received,
            config=config,
            roles=self.roles,
            clients=self.clients,
            layout=self.layout,
            completed=all(c.done for c in self.clients),
            end_ms=now if end_ms is None else end_ms,
            panic=panic,
            wire_trace=b"".join(self.wire_trace),
        )


def run_simulation(
    config: SimConfig, workload, faults: list[Fault] = ()
) -> SimResult:
    """One deterministic run: same inputs, byte-identical history."""
    return Simulation(config, workload, faults).run()


def role_loads(result: SimResult) -> dict[str, Fraction]:
    """Messages processed (sent + received) per command, per node of each
    role class. Leaders and proposers are averaged over the commands they
    actually handled; the quorum-replicated roles and the replicas see every
    command, so they are averaged over all commands and nodes."""
    assigns_per_leader: dict[str, int] = {}
    total = 0
    for _t, _n, ev in result.history:
        if isinstance(ev, AssignEvent):
            assigns_per_leader[ev.leader] = assigns_per_leader.get(ev.leader, 0) + 1
            total += 1
    if total == 0:
        raise ValueError("no commands were assigned; nothing to measure")

    def msgs(node: str) -> int:
        return result.sent.get(node, 0) + result.received.get(node, 0)

    lay = result.layout
    loads: dict[str, Fraction] = {}
    loads["leader"] = Fraction(sum(msgs(n) for n in lay.leaders), total)
    loads["proposer"] = Fraction(sum(msgs(n) for n in lay.proposers), total)
    for key, nodes in (
        ("dep", lay.dep_nodes),
        ("acceptor", lay.acceptors),
        ("replica", lay.replicas),
    ):
        per_node = [Fraction(msgs(n), total) for n in nodes]
        loads[key] = sum(per_node, Fraction(0)) / len(per_node)
    return loads
