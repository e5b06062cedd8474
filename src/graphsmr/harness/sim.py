"""Deterministic discrete-event network simulator.

Determinism contract: identical (config, workload, faults) produce a
byte-identical history. The event queue orders by (timestamp, insertion
sequence); all randomness flows from generators seeded off config.seed.

Load model: delivering a message occupies the destination machine for
service_cost_ms, so a busy machine queues work behind itself. Timers fire
instantly (they model local clocks, not network work). Messages between
roles fused onto one machine skip the network entirely but still cost
service time there. The socket transport (sockets.py) runs this same loop
on the wall clock, with loopback TCP in place of the modelled links.

A run that captures its wire trace encodes the body of each message object
it sends once, when the first copy passes the loss and partition decision,
and every delivery of it appends a record around that body to one buffer,
which becomes SimResult.wire_trace without a copy.

A run pauses the cyclic garbage collector, which is safe because a run
builds no reference cycles (tests/test_harness.py checks it), so reference
counting frees all it drops and the collector would only re-walk the live
commit graphs, history and dependency sets.
"""

from __future__ import annotations

import io
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
from .history import Record, gc_paused
from .mutations import Mutations, NO_MUTATIONS


@dataclass(frozen=True)
class Timeouts:
    client_retry_ms: float = 200.0
    retransmit_ms: float = 50.0  # a leader's and a proposer's resend timer
    recovery_timeout_ms: float = 100.0


# timers that fire after any run's cap, so in effect never
NO_TIMEOUTS = Timeouts(1e9, 1e9, 1e9)


@dataclass
class SimConfig:
    seed: int = 0
    f: int = 1
    leaders: int = 2
    replicas: int = 2
    coupled: bool = False
    min_delay_ms: float = 1.0
    max_delay_ms: float = 1.0
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
    """Drop and duplication probabilities of src->dst ("*" wildcards). Each
    probability of a link comes from the first matching fault that sets it,
    else it is 0. Run-wide loss is LinkFault("*", "*", ...) placed last."""

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
        # events are (time, insertion seq, kind, node, a, b, body): a
        # delivery to node carries (src, msg, the message's encoded body, or
        # None when the run captures no trace), a timer at node carries
        # (key, None, None)
        self.heap: list = [
            (0.0, n, _TIMER, client.name, ("start",), None, None)
            for n, client in enumerate(self.clients)
        ]
        self.seq = len(self.heap)
        self.now = 0.0
        self.panic: Optional[str] = None
        self.trace = io.BytesIO()  # the delivered records, if captured

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
                if not fault.nodes or fault.nodes >= self.roles.keys():
                    raise ConfigError(f"partition cuts no link: {fault!r}")
                named = fault.nodes
                self.partitions.append(fault)
            elif isinstance(fault, LinkFault):
                if fault.drop is None and fault.dup is None:
                    raise ConfigError(f"link fault sets no probability: {fault!r}")
                # None stands for a probability left unset
                if not all(p is None or 0.0 <= p <= 1.0 for p in (fault.drop, fault.dup)):
                    raise ConfigError("probabilities must lie in [0, 1]")
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
        for lf in self.link_faults:
            if lf.src in ("*", src) and lf.dst in ("*", dst):
                drop = lf.drop if drop is None else drop
                dup = lf.dup if dup is None else dup
        return False, drop or 0.0, dup or 0.0

    # -- main loop ---------------------------------------------------------

    def run(self, settle_ms: float = 0.0) -> SimResult:
        """Deliver events until every client is done, then for settle_ms
        more of simulated time, so repairs that no client waits for can
        finish. end_ms is the time the last client was done either way."""
        return self._run(settle_ms, None)

    @gc_paused()
    def _run(self, settle_ms: float, net) -> SimResult:
        """The run loop of both transports. With net None, time is simulated
        and the loop models the links. Otherwise net is a network of real
        links (sockets._Loopback): the loop hands it every Send and, when no
        event is due on its wall clock, flushes it and waits on it for
        deliveries, and each handler runs at the wall time it is called."""
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
        # installed on a role instance (or on the wire codec) before run()
        # are the ones called
        on_message = {node: role.on_message for node, role in self.roles.items()}
        on_timer = {node: role.on_timer for node, role in self.roles.items()}
        cost = {
            node: 0.0 if node.startswith("client-") else config.service_cost_ms
            for node in self.roles
        }
        capture = config.capture_wire_trace
        encode, write_record = wire.encode_message, wire.write_trace_record
        trace_write = self.trace.write
        # the last message encoded, so that its other sends reuse its body;
        # last_body stays None in a run that captures nothing
        last_msg = last_body = None
        # clients with work left; only a delivery to a client can finish it
        pending = {c.name: c for c in self.clients if not c.done}
        max_ms = config.max_sim_ms
        seq, now, panic = self.seq, self.now, None
        end_ms = None  # when the last client was done

        while heap or net is not None:
            if net is None:
                t, _n, kind, node, a, b, encoded = heappop(heap)
            else:
                t = net.now_ms()
                if not heap or heap[0][0] > t:
                    # nothing is due: send what the handlers queued, then
                    # wait for frames until the next event or the cap
                    if t >= max_ms:
                        break
                    net.flush()
                    for src, dst, msg in net.poll((heap[0][0] if heap else max_ms) - t):
                        heappush(heap, (t, seq, _DELIVER, dst, src, msg, None))
                        seq += 1
                    continue
                _due, _n, kind, node, a, b, encoded = heappop(heap)
            if t > max_ms:
                break
            now = t
            if crashes:
                crash_at = crashes.get(node)
                if crash_at is not None and t >= crash_at:
                    continue
            if kind == _DELIVER:
                if encoded is not None:
                    write_record(trace_write, a, node, encoded)
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
                    if net is not None:
                        net.send(node, dst, eff.msg)
                        continue
                    link = links.get((node, dst))
                    if link is None:
                        link = links[node, dst] = self._link(node, dst)
                    co_located, drop, dup = link
                    # co-located roles exchange messages off the network
                    if not co_located:
                        if partitioned is not None and partitioned(node, dst, done):
                            continue
                        if drop > 0.0 and chance() < drop:
                            continue
                    msg = eff.msg
                    if capture and msg is not last_msg:
                        last_msg, last_body = msg, encode(msg)
                    if co_located:
                        heappush(heap, (done, seq, _DELIVER, dst, node, msg, last_body))
                        seq += 1
                        continue
                    delay = lo + spread * chance() if jitter else lo
                    heappush(heap, (done + delay, seq, _DELIVER, dst, node, msg, last_body))
                    seq += 1
                    if dup > 0.0 and chance() < dup:
                        delay = lo + spread * chance() if jitter else lo
                        heappush(heap, (done + delay, seq, _DELIVER, dst, node, msg, last_body))
                        seq += 1
                elif effect is SetTimer:
                    # a timer past the cap would only end the run when
                    # popped, which the empty heap does as well
                    deadline = done + eff.delay_ms
                    if deadline <= max_ms:
                        heappush(heap, (deadline, seq, _TIMER, node, eff.key, None, None))
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
            wire_trace=self.trace.getvalue(),
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
