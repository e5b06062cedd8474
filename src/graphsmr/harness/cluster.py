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
    next; retries the same (client, seq) with doubling timeouts.

    Every attempt, first or retry, goes to the leader with the fewest
    `misses`: attempts that timed out since that leader last answered. Ties
    go to the first in rotation order from `base_leader`, so a client that
    never retries sends everything to `base_leader`. A response does not
    name the leader that sent it, so it clears the count of the latest
    attempt's leader."""

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
        self.misses = [0] * len(leaders)
        self._rotation = [(base_leader + k) % len(leaders) for k in range(len(leaders))]
        self._leader = base_leader  # index of the latest attempt's leader
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
            self.misses[self._leader] += 1
            return self._issue(now, first=False)
        return []

    def _issue(self, now: float, first: bool) -> list[Effect]:
        if self.done:
            return []
        op = self.ops[self.idx]
        seq = self.idx + 1
        cmd = Command(self.name, seq, op)
        self._leader = min(self._rotation, key=self.misses.__getitem__)
        out: list[Effect] = []
        if first:
            self._sent_at = now
            out.append(Note(Invoke(self.name, seq, op)))
        out.append(Send(self.leaders[self._leader], ClientRequest(cmd)))
        # low backoff ceiling: moving away from a dead leader matters more
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
        self.misses[self._leader] = 0
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
    """Returns (roles, machine_of, clients, layout) for a SimConfig, after
    config.validate() has accepted it."""
    config.validate()
    f = config.f
    lay = layout(f, config.leaders, config.replicas, len(workload))
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
            retransmit_ms=t.leader_retransmit_ms,
            thrifty=config.thrifty,
        )
    for name in lay.dep_nodes:
        roles[name] = DepServiceNode(name, config.leaders, compact=config.compact_deps)
    for name in lay.acceptors:
        roles[name] = Acceptor(name)

    def proposer(name: str, index: int, rng_seed: str) -> Proposer:
        return Proposer(
            name,
            index=index,
            num_main_proposers=config.leaders,
            num_total_proposers=config.leaders + config.replicas,
            f=f,
            acceptors=lay.acceptors,
            replicas=lay.replicas,
            rng=random.Random(rng_seed),
            retransmit_ms=t.proposer_retransmit_ms,
        )

    for i, name in enumerate(lay.proposers):
        roles[name] = proposer(name, i, f"{config.seed}/{name}")
    for i, name in enumerate(lay.replicas):
        roles[name] = Replica(
            name,
            i,
            config.replicas,
            recovery_proposer=proposer(
                name, config.leaders + i, f"{config.seed}/{name}/recovery"
            ),
            recovery_timeout_ms=t.recovery_timeout_ms,
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
    config.mutations.apply(roles)

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
