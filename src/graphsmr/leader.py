"""Leader: assigns globally unique vertex ids to incoming commands, gathers
f+1 dependency-service replies, unions them, and hands the result to the
proposer that owns the vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .core import Batch, Command, Deps, Proposal, VertexId
from .messages import (
    ClientRequest,
    DepReply,
    DepRequest,
    Effect,
    Message,
    Note,
    ProposeMissing,
    ProposeRequest,
    Send,
    SetTimer,
)

# a partial batch waits this long for more commands: a few 1 ms network
# delays, and short next to the client's 200 ms retry
FLUSH_MS = 5.0


@dataclass(slots=True)
class AssignEvent:
    leader: str
    v: VertexId
    cmd: Union[Command, Batch]


@dataclass(slots=True)
class _Pending:
    cmd: Union[Command, Batch]
    replies: dict[str, Deps] = field(default_factory=dict)


class Leader:
    """One of the L leaders; operates independently of its peers.

    Thrifty mode sends dependency requests to only f+1 nodes (rotating with
    the vertex sequence); the per-vertex retransmit timer widens to all 2f+1
    nodes if the quorum does not come back in time. Replies beyond the
    (f+1)-th are ignored, and the union of exactly f+1 replies is proposed.

    The leader keeps every ProposeRequest it sent and answers a proposer's
    ProposeMissing with the identical message. Its latest vertex has no
    later one to reveal a lost copy, so while no newer vertex is assigned,
    the vertex's retransmit timer resends that request after doubling
    delays; the proposer re-announces the Commit of a vertex already chosen.
    """

    def __init__(
        self,
        name: str,
        index: int,
        f: int,
        dep_nodes: list[str],
        proposers: list[str],
        batch_size: int = 1,
        retransmit_ms: float = 50.0,
        thrifty: bool = False,
    ) -> None:
        self.name = name
        self.index = index
        self.f = f
        self.dep_nodes = dep_nodes
        self.proposers = proposers
        self.batch_size = batch_size
        self.retransmit_ms = retransmit_ms
        self.thrifty = thrifty
        self.dep_quorum = f + 1
        self.next_seq = 0
        self.pending: dict[VertexId, _Pending] = {}
        self.proposed: dict[VertexId, ProposeRequest] = {}
        self.tail_resends = 0  # of the latest vertex's request
        self.batch_buffer: list[Command] = []

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if isinstance(msg, ClientRequest):
            if self.batch_size > 1:
                return self._buffer(msg.cmd)
            return self.assign_vertex_id(msg.cmd)
        if isinstance(msg, DepReply):
            return self.on_dep_reply(src, msg)
        if isinstance(msg, ProposeMissing):
            request = self.proposed.get(msg.v)
            return [] if request is None else [Send(src, request)]
        return []

    def _buffer(self, cmd: Command) -> list[Effect]:
        self.batch_buffer.append(cmd)
        if len(self.batch_buffer) >= self.batch_size:
            return self._flush()
        if len(self.batch_buffer) == 1:
            return [SetTimer(FLUSH_MS, ("flush", self.next_seq))]
        return []

    def _flush(self) -> list[Effect]:
        if not self.batch_buffer:
            return []
        batch = Batch(tuple(self.batch_buffer))
        self.batch_buffer = []
        return self.assign_vertex_id(batch)

    def assign_vertex_id(self, cmd: Union[Command, Batch]) -> list[Effect]:
        v = VertexId(self.index, self.next_seq)
        self.next_seq += 1
        self.tail_resends = 0
        targets = self._initial_targets(v)
        self.pending[v] = _Pending(cmd)
        request = DepRequest(v, cmd)
        out: list[Effect] = [Note(AssignEvent(self.name, v, cmd))]
        out.extend(Send(d, request) for d in targets)
        out.append(SetTimer(self.retransmit_ms, ("dep-retx", v)))
        return out

    def _initial_targets(self, v: VertexId) -> tuple[str, ...]:
        if not self.thrifty:
            return tuple(self.dep_nodes)
        n = len(self.dep_nodes)
        start = v.seq % n
        return tuple(self.dep_nodes[(start + i) % n] for i in range(self.f + 1))

    def on_dep_reply(self, node: str, reply: DepReply) -> list[Effect]:
        pending = self.pending.get(reply.v)
        if pending is None:
            return []  # stale retransmission for an already-proposed vertex
        if node in pending.replies:
            return []
        pending.replies[node] = reply.deps
        if len(pending.replies) < self.dep_quorum:
            return []
        deps = None
        for d in pending.replies.values():
            deps = d if deps is None else deps.union(d)
        del self.pending[reply.v]
        request = ProposeRequest(reply.v, Proposal(pending.cmd, deps))
        self.proposed[reply.v] = request
        return [Send(self._proposer_of(reply.v), request)]

    def _proposer_of(self, v: VertexId) -> str:
        return self.proposers[v.leader_index % len(self.proposers)]

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        if key[0] == "flush":
            # a timer armed for a batch that has since filled is stale
            return self._flush() if key[1] == self.next_seq else []
        if key[0] == "dep-retx":
            v = key[1]
            pending = self.pending.get(v)
            if pending is None:
                return self._resend_tail(v)
            # widen to every node; with thrifty off this is a plain resend
            request = DepRequest(v, pending.cmd)
            out: list[Effect] = [
                Send(d, request) for d in self.dep_nodes if d not in pending.replies
            ]
            out.append(SetTimer(self.retransmit_ms, ("dep-retx", v)))
            return out
        return []

    def _resend_tail(self, v: VertexId) -> list[Effect]:
        request = self.proposed.get(v)
        if request is None or v.seq != self.next_seq - 1:
            return []
        self.tail_resends += 1
        return [
            Send(self._proposer_of(v), request),
            SetTimer(self.retransmit_ms * 2 ** self.tail_resends, ("dep-retx", v)),
        ]
