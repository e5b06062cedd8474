"""One independent single-decree Paxos instance per vertex.

Round allocation: for a vertex whose designated (round-0) owner is proposer
index d, round k is owned by proposer (d + k) mod P_total, where P_total
counts every proposer identity in the deployment, including the recovery
proposers embedded in replicas. Round 0 skips phase 1; every other round
runs the full protocol. This gives each round exactly one owner, so two
proposers can never issue phase-2 messages for the same (vertex, round).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .core import DenseGaps, Proposal, VertexId
from .messages import (
    Commit,
    Effect,
    Message,
    Nack,
    Note,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    ProposeMissing,
    ProposeRequest,
    Send,
    SetTimer,
)

# a preempted proposer waits BACKOFF_BASE_MS * 2**attempts plus up to as
# much again at random, so duelling proposers drift apart
BACKOFF_BASE_MS = 10.0


def round_owner(number: int, designated: int, num_proposers: int) -> int:
    return (designated + number) % num_proposers


def lowest_owned_round(
    proposer: int, designated: int, num_proposers: int, minimum: int
) -> int:
    """Smallest round number >= minimum owned by `proposer`."""
    base = (proposer - designated) % num_proposers
    if base >= minimum:
        return base
    gap = minimum - base
    steps = (gap + num_proposers - 1) // num_proposers
    return base + steps * num_proposers


@dataclass(slots=True)
class AcceptorSlot:
    promised: int = -1  # highest round seen; -1 stands for "none yet"
    voted_round: Optional[int] = None
    voted_value: Optional[Proposal] = None


class Acceptor:
    """Paxos acceptor, keyed per vertex. No disk; crash-stop model."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.slots: dict[VertexId, AcceptorSlot] = {}

    def _slot(self, v: VertexId) -> AcceptorSlot:
        slot = self.slots.get(v)
        if slot is None:
            slot = self.slots[v] = AcceptorSlot()
        return slot

    def handle_phase1a(self, v: VertexId, r: int) -> Message:
        slot = self._slot(v)
        if r > slot.promised:
            slot.promised = r
            return Phase1b(v, r, slot.voted_round, slot.voted_value)
        return Nack(v, slot.promised)

    def handle_phase2a(self, v: VertexId, r: int, value: Proposal) -> Message:
        slot = self._slot(v)
        if r >= slot.promised:
            slot.promised = max(slot.promised, r)
            slot.voted_round = r
            slot.voted_value = value
            return Phase2b(v, r)
        return Nack(v, slot.promised)

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if isinstance(msg, Phase1a):
            return [Send(src, self.handle_phase1a(msg.v, msg.round))]
        if isinstance(msg, Phase2a):
            return [Send(src, self.handle_phase2a(msg.v, msg.round, msg.value))]
        return []

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        return []


def select_phase2_value(
    replies: dict[str, tuple[Optional[int], Optional[Proposal]]], own: Proposal
) -> Proposal:
    """Standard safe-value rule: adopt the vote of the highest voted round
    among the quorum's phase-1 replies, else propose our own value."""
    best_round = -1
    best_value = None
    for voted_round, voted_value in replies.values():
        if voted_round is not None and voted_round > best_round:
            best_round = voted_round
            best_value = voted_value
    return best_value if best_value is not None else own


@dataclass(slots=True)
class ChosenEvent:
    proposer: str
    v: VertexId
    proposal: Proposal


@dataclass(slots=True)
class _Instance:
    value: Proposal  # what this proposer wants chosen (may be superseded)
    round: int
    phase: str  # "p1" | "p2" | "done"
    p2_value: Optional[Proposal] = None
    p1_replies: dict = field(default_factory=dict)
    p2_acks: set = field(default_factory=set)
    chosen: Optional[Proposal] = None
    attempts: int = 0


class Proposer:
    """Drives Paxos instances for the vertices it is handed.

    The designated proposer of a vertex starts at round 0 and skips phase 1;
    any other proposer (recovery) starts at its lowest owned round >= 1. On a
    nack it jumps past the promised round to its next owned round, after an
    exponential backoff with seeded jitter to break dueling-proposer ties.

    A leader numbers its vertices densely, so a ProposeRequest for (L, s)
    shows that every (L, s') with s' < s was assigned. When one of those has
    not arrived a retransmit timeout after the gap opened, the proposer asks
    leader L for it with ProposeMissing, again after doubling delays, until
    it arrives.
    """

    def __init__(
        self,
        name: str,
        index: int,
        num_main_proposers: int,
        num_total_proposers: int,
        f: int,
        acceptors: list[str],
        replicas: list[str],
        rng: Optional[random.Random] = None,
        retransmit_ms: float = 50.0,
    ) -> None:
        self.name = name
        self.index = index
        self.num_main = num_main_proposers
        self.num_total = num_total_proposers
        self.f = f
        self.acceptors = acceptors
        self.replicas = replicas
        self.rng = rng or random.Random(0)
        self.retransmit_ms = retransmit_ms
        self.instances: dict[VertexId, _Instance] = {}
        self.proposed_gaps = DenseGaps()
        self.leader_names: dict[int, str] = {}  # who sent each leader's requests
        self.asking: dict[VertexId, int] = {}  # ProposeMissing sent per id

    def _designated(self, v: VertexId) -> int:
        return v.leader_index % self.num_main

    def _owns(self, v: VertexId, number: int) -> bool:
        return round_owner(number, self._designated(v), self.num_total) == self.index

    def _lowest_owned(self, v: VertexId, minimum: int) -> int:
        return lowest_owned_round(
            self.index, self._designated(v), self.num_total, minimum
        )

    def propose(self, v: VertexId, value: Proposal, now: float) -> list[Effect]:
        if v in self.instances:
            inst = self.instances[v]
            if inst.chosen is not None:
                # duplicate request after the fact: re-announce the decision
                commit = Commit(v, inst.chosen)
                return [Send(r, commit) for r in self.replicas]
            return []
        if self._owns(v, 0):
            inst = _Instance(value=value, round=0, phase="p2", p2_value=value)
            self.instances[v] = inst
            return self._send_phase2(v, inst)
        inst = _Instance(value=value, round=self._lowest_owned(v, 1), phase="p1")
        self.instances[v] = inst
        return self._start_phase1(v, inst)

    def _start_phase1(self, v: VertexId, inst: _Instance) -> list[Effect]:
        inst.phase = "p1"
        inst.p1_replies = {}
        request = Phase1a(v, inst.round)
        out: list[Effect] = [Send(a, request) for a in self.acceptors]
        out.append(SetTimer(self.retransmit_ms, ("paxos-retx", v)))
        return out

    def _send_phase2(self, v: VertexId, inst: _Instance) -> list[Effect]:
        # retransmits keep any acks already gathered; acceptors re-accept an
        # equal round, so duplicates are harmless
        assert inst.p2_value is not None
        request = Phase2a(v, inst.round, inst.p2_value)
        out: list[Effect] = [Send(a, request) for a in self.acceptors]
        out.append(SetTimer(self.retransmit_ms, ("paxos-retx", v)))
        return out

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if isinstance(msg, ProposeRequest):
            return self._on_propose_request(src, msg, now)
        if isinstance(msg, Phase1b):
            return self._on_phase1b(src, msg, now)
        if isinstance(msg, Phase2b):
            return self._on_phase2b(src, msg, now)
        if isinstance(msg, Nack):
            return self._on_nack(msg, now)
        return []

    def _on_propose_request(self, src: str, msg: ProposeRequest, now: float) -> list[Effect]:
        v = msg.v
        self.leader_names[v.leader_index] = src
        self.asking.pop(v, None)
        gap_key = self.proposed_gaps.add(v)
        out = self.propose(v, msg.proposal, now)
        if gap_key is not None:
            out.append(self._arm_propose_gap(v.leader_index, gap_key))
        return out

    def _arm_propose_gap(self, leader: int, key: int) -> SetTimer:
        return SetTimer(self.retransmit_ms, ("propose-gap", leader, key))

    def _on_propose_gap(self, leader: int, key: int) -> list[Effect]:
        missing, rearm = self.proposed_gaps.fire(leader, key)
        out: list[Effect] = []
        for v in missing:
            if v not in self.asking:
                self.asking[v] = 0
                out.extend(self._ask(v))
        if rearm is not None:
            out.append(self._arm_propose_gap(leader, rearm))
        return out

    def _ask(self, v: VertexId) -> list[Effect]:
        attempt = self.asking[v] = self.asking[v] + 1
        return [
            Send(self.leader_names[v.leader_index], ProposeMissing(v)),
            SetTimer(self.retransmit_ms * 2 ** attempt, ("propose-ask", v)),
        ]

    def _on_phase1b(self, src: str, msg: Phase1b, now: float) -> list[Effect]:
        inst = self.instances.get(msg.v)
        if inst is None or inst.phase != "p1" or msg.round != inst.round:
            return []
        inst.p1_replies[src] = (msg.voted_round, msg.voted_value)
        if len(inst.p1_replies) < self.f + 1:
            return []
        inst.p2_value = select_phase2_value(inst.p1_replies, inst.value)
        inst.phase = "p2"
        inst.p2_acks = set()
        return self._send_phase2(msg.v, inst)

    def _on_phase2b(self, src: str, msg: Phase2b, now: float) -> list[Effect]:
        inst = self.instances.get(msg.v)
        if inst is None or inst.phase != "p2" or msg.round != inst.round:
            return []
        inst.p2_acks.add(src)
        if len(inst.p2_acks) < self.f + 1 or inst.chosen is not None:
            return []
        assert inst.p2_value is not None
        inst.chosen = inst.p2_value
        inst.phase = "done"
        commit = Commit(msg.v, inst.chosen)
        out: list[Effect] = [Note(ChosenEvent(self.name, msg.v, inst.chosen))]
        out.extend(Send(r, commit) for r in self.replicas)
        return out

    def _on_nack(self, msg: Nack, now: float) -> list[Effect]:
        inst = self.instances.get(msg.v)
        if inst is None or inst.phase == "done":
            return []
        # promised == inst.round is just an acceptor re-acknowledging our own
        # duplicated phase-1 message; only a genuinely higher promise matters
        if msg.promised <= inst.round:
            return []
        inst.round = self._lowest_owned(msg.v, msg.promised + 1)
        inst.phase = "backoff"
        inst.attempts += 1
        delay = BACKOFF_BASE_MS * (2 ** min(inst.attempts, 10))
        delay += self.rng.uniform(0, delay)
        return [SetTimer(delay, ("paxos-backoff", msg.v))]

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        if key[0] == "propose-gap":
            return self._on_propose_gap(key[1], key[2])
        kind, v = key[0], key[1]
        if kind == "propose-ask":
            return self._ask(v) if v in self.asking else []
        inst = self.instances.get(v)
        if inst is None or inst.phase == "done":
            return []
        if kind == "paxos-backoff":
            if inst.phase != "backoff":
                return []
            return self._start_phase1(v, inst)
        if kind == "paxos-retx":
            if inst.phase == "p1":
                # acceptors nack a repeated phase-1 round, so a dropped
                # Phase1b cannot be recovered in place; restart one round up
                inst.round = self._lowest_owned(v, inst.round + 1)
                return self._start_phase1(v, inst)
            if inst.phase == "p2":
                return self._send_phase2(v, inst)
        return []
