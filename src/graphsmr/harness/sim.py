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

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
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
    batch_flush_ms: float = 5.0
    backoff_base_ms: float = 10.0


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


@dataclass(frozen=True)
class Crash:
    node: str
    at_ms: float


@dataclass(frozen=True)
class LinkFault:
    """Overrides drop/duplication probability on src->dst ("*" wildcards)."""

    src: str
    dst: str
    drop: float = 0.0
    dup: float = 0.0


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
        self.heap: list = []
        self.seq = 0
        self.hist_seq = 0
        self.now = 0.0
        self.panic: Optional[str] = None
        self.wire_trace: list[bytes] = []

        self.crashes: dict[str, float] = {}
        self.partitions: list[Partition] = []
        self.link_faults: list[LinkFault] = []
        for fault in faults:
            if isinstance(fault, Crash):
                self.crashes[fault.node] = min(
                    fault.at_ms, self.crashes.get(fault.node, fault.at_ms)
                )
            elif isinstance(fault, Partition):
                self.partitions.append(fault)
            elif isinstance(fault, LinkFault):
                self.link_faults.append(fault)
            else:
                raise ConfigError(f"unknown fault {fault!r}")

        for client in self.clients:
            self._push(0.0, _TIMER, client.name, ("start",))

    # -- scheduling --------------------------------------------------------

    def _push(self, t: float, kind: int, *payload) -> None:
        heapq.heappush(self.heap, (t, self.seq, kind, payload))
        self.seq += 1

    def _crashed(self, node: str, t: float) -> bool:
        at = self.crashes.get(node)
        return at is not None and t >= at

    def _partitioned(self, src: str, dst: str, t: float) -> bool:
        for p in self.partitions:
            if p.start_ms <= t < p.end_ms and (src in p.nodes) != (dst in p.nodes):
                return True
        return False

    def _link_probs(self, src: str, dst: str) -> tuple[float, float]:
        for lf in self.link_faults:
            if lf.src in ("*", src) and lf.dst in ("*", dst):
                return lf.drop, lf.dup
        return self.config.drop_prob, self.config.dup_prob

    def _delay(self) -> float:
        lo, hi = self.config.min_delay_ms, self.config.max_delay_ms
        if hi > lo:
            return self.net_rng.uniform(lo, hi)
        return lo

    def _send(self, src: str, t: float, eff: Send) -> None:
        self.sent[src] = self.sent.get(src, 0) + 1
        dst = eff.dst
        if self.machine_of.get(src) == self.machine_of.get(dst) and src != dst:
            # co-located roles exchange messages off the network
            self._push(t, _DELIVER, dst, src, eff.msg)
            return
        if self._partitioned(src, dst, t):
            return
        drop, dup = self._link_probs(src, dst)
        if drop > 0.0 and self.net_rng.random() < drop:
            return
        self._push(t + self._delay(), _DELIVER, dst, src, eff.msg)
        if dup > 0.0 and self.net_rng.random() < dup:
            self._push(t + self._delay(), _DELIVER, dst, src, eff.msg)

    def _apply(self, node: str, t: float, effects, note_time: float = None) -> None:
        # sends and timers happen when service completes (t); history records
        # carry the event's arrival time so timestamps stay globally
        # non-decreasing even when a busy machine finishes work late
        if note_time is None:
            note_time = t
        for eff in effects:
            if isinstance(eff, Send):
                self._send(node, t, eff)
            elif isinstance(eff, SetTimer):
                self._push(t + eff.delay_ms, _TIMER, node, eff.key)
            elif isinstance(eff, Note):
                self.history.append((note_time, self.hist_seq, eff.event))
                self.hist_seq += 1

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        while self.heap:
            t, _n, kind, payload = heapq.heappop(self.heap)
            if t > self.config.max_sim_ms:
                break
            self.now = t
            if kind == _DELIVER:
                dst, src, msg = payload
                if self._crashed(dst, t):
                    continue
                if self.config.capture_wire_trace:
                    self.wire_trace.append(wire.encode_trace_record(src, dst, msg))
                machine = self.machine_of[dst]
                start = max(t, self.busy.get(machine, 0.0))
                done = start + self._service_cost(dst)
                self.busy[machine] = done
                self.received[dst] = self.received.get(dst, 0) + 1
                try:
                    effects = self.roles[dst].on_message(src, msg, done)
                except ReplicaPanic as exc:
                    self._apply(dst, done, exc.effects, note_time=t)
                    self.panic = str(exc)
                    break
                self._apply(dst, done, effects, note_time=t)
                self.now = done
            else:
                node, key = payload
                if self._crashed(node, t):
                    continue
                effects = self.roles[node].on_timer(key, t)
                self._apply(node, t, effects)
            if all(c.done for c in self.clients):
                break

        return SimResult(
            history=self.history,
            sent=self.sent,
            received=self.received,
            config=self.config,
            roles=self.roles,
            clients=self.clients,
            layout=self.layout,
            completed=all(c.done for c in self.clients),
            end_ms=self.now,
            panic=self.panic,
            wire_trace=b"".join(self.wire_trace),
        )

    def _service_cost(self, node: str) -> float:
        if node.startswith("client-"):
            return 0.0
        return self.config.service_cost_ms


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
