"""Cluster construction: instantiates one role object per logical node and
maps logical nodes onto simulated machines (one each when decoupled, fused
super-nodes when coupled), plus the closed-loop client driver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..consensus import Acceptor, Proposer
from ..core import Command, Op
from ..depservice import DepServiceNode
from ..leader import Leader
from ..messages import (
    ClientRequest,
    ClientResponse,
    Effect,
    Message,
    Note,
    Send,
    SetTimer,
)
from ..replica import Replica
from .history import Invoke, Reply


class ConfigError(ValueError):
    """Deployment constraints violated; rejected before the run starts."""


@dataclass
class ClusterLayout:
    leaders: list[str]
    dep_nodes: list[str]
    proposers: list[str]
    acceptors: list[str]
    replicas: list[str]
    clients: list[str]

    def protocol_nodes(self) -> list[str]:
        return self.leaders + self.dep_nodes + self.proposers + self.acceptors + self.replicas


class ClosedLoopClient:
    """Issues one command at a time, waiting for the response before the
    next; retries the same (client, seq) with doubling timeouts, rotating
    to another leader each attempt."""

    def __init__(
        self,
        name: str,
        ops: list[Op],
        leaders: list[str],
        base_leader: int,
        retry_ms: float = 200.0,
    ) -> None:
        self.name = name
        self.ops = ops
        self.leaders = leaders
        self.base_leader = base_leader
        self.retry_ms = retry_ms
        self.idx = 0
        self.attempts = 0
        self.reply_times: list[tuple[float, float]] = []  # (sent, answered)
        self._sent_at = 0.0

    @property
    def done(self) -> bool:
        return self.idx >= len(self.ops)

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        if key[0] == "start":
            return self._issue(now, first=True)
        if key[0] == "retry":
            seq = key[1]
            if self.done or self.idx + 1 != seq:
                return []
            self.attempts += 1
            return self._issue(now, first=False)
        return []

    def _issue(self, now: float, first: bool) -> list[Effect]:
        if self.done:
            return []
        op = self.ops[self.idx]
        seq = self.idx + 1
        cmd = Command(self.name, seq, op)
        leader = self.leaders[(self.base_leader + self.attempts) % len(self.leaders)]
        out: list[Effect] = []
        if first:
            self._sent_at = now
            out.append(Note(Invoke(self.name, seq, op)))
        out.append(Send(leader, ClientRequest(cmd)))
        # low backoff ceiling: rotating away from a dead leader matters more
        # than politeness at simulation scale
        out.append(
            SetTimer(self.retry_ms * (2 ** min(self.attempts, 2)), ("retry", seq))
        )
        return out

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if not isinstance(msg, ClientResponse):
            return []
        if self.done or msg.client_seq != self.idx + 1:
            return []  # stale or duplicate answer
        self.reply_times.append((self._sent_at, now))
        self.idx += 1
        self.attempts = 0
        out: list[Effect] = [
            Note(Reply(self.name, msg.client_seq, msg.output_available, msg.output))
        ]
        out.extend(self._issue(now, first=True))
        return out


def layout(f: int, leaders: int, replicas: int, clients: int) -> ClusterLayout:
    n = 2 * f + 1
    return ClusterLayout(
        leaders=[f"leader-{i}" for i in range(leaders)],
        dep_nodes=[f"dep-{i}" for i in range(n)],
        proposers=[f"prop-{i}" for i in range(leaders)],
        acceptors=[f"acc-{i}" for i in range(n)],
        replicas=[f"rep-{i}" for i in range(replicas)],
        clients=[f"client-{i}" for i in range(clients)],
    )


def build_cluster(config, workload: list[list[Op]]):
    """Returns (roles, machine_of, clients, layout) for a SimConfig."""
    f = config.f
    if config.leaders < f + 1:
        raise ConfigError(f"need at least f+1={f + 1} leaders, got {config.leaders}")
    if config.replicas < f + 1:
        raise ConfigError(f"need at least f+1={f + 1} replicas, got {config.replicas}")
    if config.coupled and not (config.leaders == config.replicas == 2 * f + 1):
        raise ConfigError("coupled mode fuses one node of each role: "
                          "leaders = replicas = 2f+1 required")
    if not (0.0 <= config.drop_prob <= 1.0 and 0.0 <= config.dup_prob <= 1.0):
        raise ConfigError("probabilities must lie in [0, 1]")

    lay = layout(f, config.leaders, config.replicas, len(workload))
    muts = config.mutations
    t = config.timeouts

    roles: dict[str, object] = {}
    for i, name in enumerate(lay.leaders):
        roles[name] = Leader(
            name,
            i,
            f,
            dep_nodes=lay.dep_nodes,
            proposers=lay.proposers,
            batch_size=config.batch_size,
            flush_ms=t.batch_flush_ms,
            retransmit_ms=t.leader_retransmit_ms,
            thrifty=config.thrifty,
            dep_quorum_override=1 if muts.dep_quorum_one else None,
        )
    for name in lay.dep_nodes:
        roles[name] = DepServiceNode(name, config.leaders, compact=config.compact_deps)
    for name in lay.acceptors:
        roles[name] = Acceptor(name, ignore_promises=muts.acceptor_ignores_promises)
    num_total = config.leaders + config.replicas
    for i, name in enumerate(lay.proposers):
        roles[name] = Proposer(
            name,
            index=i,
            num_main_proposers=config.leaders,
            num_total_proposers=num_total,
            f=f,
            acceptors=lay.acceptors,
            replicas=lay.replicas,
            rng=random.Random(f"{config.seed}/{name}"),
            retransmit_ms=t.proposer_retransmit_ms,
            backoff_base_ms=t.backoff_base_ms,
        )
    for i, name in enumerate(lay.replicas):
        recovery = Proposer(
            name,
            index=config.leaders + i,
            num_main_proposers=config.leaders,
            num_total_proposers=num_total,
            f=f,
            acceptors=lay.acceptors,
            replicas=lay.replicas,
            rng=random.Random(f"{config.seed}/{name}/recovery"),
            retransmit_ms=t.proposer_retransmit_ms,
            backoff_base_ms=t.backoff_base_ms,
        )
        roles[name] = Replica(
            name,
            i,
            config.replicas,
            recovery_proposer=recovery,
            recovery_timeout_ms=t.recovery_timeout_ms,
            skip_scc_order=muts.replica_skip_scc,
            largest_seq_only=muts.client_table_largest_only,
        )

    clients = []
    for i, (name, ops) in enumerate(zip(lay.clients, workload)):
        client = ClosedLoopClient(
            name,
            list(ops),
            lay.leaders,
            base_leader=i % config.leaders,
            retry_ms=t.client_retry_ms,
        )
        roles[name] = client
        clients.append(client)

    machine_of: dict[str, str] = {}
    if config.coupled:
        # one fused machine per index serially processes all five roles
        n = 2 * f + 1
        for i in range(n):
            for name in (
                lay.leaders[i],
                lay.dep_nodes[i],
                lay.proposers[i],
                lay.acceptors[i],
                lay.replicas[i],
            ):
                machine_of[name] = f"node-{i}"
    else:
        for name in lay.protocol_nodes():
            machine_of[name] = name
    for name in lay.clients:
        machine_of[name] = name

    return roles, machine_of, clients, lay
