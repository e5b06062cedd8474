"""Replica: maintains the graph of committed vertices, executes eligible
strongly connected components in reverse topological order, deduplicates
client commands, answers the clients it owns, and fills stuck dependencies
with recovery noops via an embedded consensus proposer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .consensus import Proposer
from .core import (
    AgreementViolation,
    Batch,
    Command,
    CommitGraph,
    Get,
    NOOP_PROPOSAL,
    Noop,
    Proposal,
    VertexId,
)
from .messages import (
    ClientResponse,
    Commit,
    Effect,
    Message,
    Nack,
    Note,
    Phase1b,
    Phase2b,
    Send,
    SetTimer,
)

SET_ACK = b"OK"


@dataclass
class CommitSeen:
    replica: str
    v: VertexId
    proposal: Proposal


@dataclass
class ExecEvent:
    replica: str
    v: VertexId
    client: Optional[str]  # None for noops
    client_seq: Optional[int]
    op: Optional[object]
    applied: bool  # False when skipped by the client table (or a noop)
    output: Optional[bytes]
    position: int  # per-replica execution index


@dataclass
class RespondEvent:
    replica: str
    v: VertexId
    client: str
    client_seq: int
    output_available: bool
    output: Optional[bytes]


class ReplicaPanic(Exception):
    """A duplicate Commit carried a different proposal: consensus safety is
    broken. Carries the effects recorded so far so the transport can log the
    evidence before halting."""

    def __init__(self, effects: list[Effect], cause: AgreementViolation) -> None:
        super().__init__(str(cause))
        self.effects = effects
        self.cause = cause


@dataclass
class _ClientRow:
    watermark: int = 0  # every seq <= watermark has been executed
    sparse: set[int] = field(default_factory=set)
    highest: int = 0
    cached_output: Optional[bytes] = None


class ClientTable:
    """Per-client record of every executed command id, plus the output of
    the largest one. Recording only the largest id is not enough for a
    generalized protocol: an older command can legitimately arrive for
    execution after a newer, non-conflicting one has already run."""

    def __init__(self) -> None:
        self.rows: dict[str, _ClientRow] = {}

    def _row(self, client: str) -> _ClientRow:
        row = self.rows.get(client)
        if row is None:
            row = self.rows[client] = _ClientRow()
        return row

    def contains(self, client: str, seq: int) -> bool:
        row = self.rows.get(client)
        if row is None:
            return False
        return seq <= row.watermark or seq in row.sparse

    def record(self, client: str, seq: int, output: Optional[bytes]) -> None:
        row = self._row(client)
        if seq == row.watermark + 1:
            row.watermark = seq
            while row.watermark + 1 in row.sparse:
                row.watermark += 1
                row.sparse.discard(row.watermark)
        elif seq > row.watermark:
            row.sparse.add(seq)
        if seq > row.highest:
            row.highest = seq
            row.cached_output = output

    def cached(self, client: str, seq: int) -> tuple[bool, Optional[bytes]]:
        """(available, output) for a duplicate of an executed command."""
        row = self.rows.get(client)
        if row is not None and seq == row.highest:
            return True, row.cached_output
        return False, None


class Replica:
    def __init__(
        self,
        name: str,
        index: int,
        num_replicas: int,
        recovery_proposer: Optional[Proposer] = None,
        recovery_timeout_ms: float = 100.0,
        skip_scc_order: bool = False,
        largest_seq_only: bool = False,
    ) -> None:
        self.name = name
        self.index = index
        self.num_replicas = num_replicas
        self.graph = CommitGraph()
        self.kv: dict[bytes, bytes] = {}
        self.table = ClientTable()
        self.recovery = recovery_proposer
        self.recovery_timeout_ms = recovery_timeout_ms
        self.recovery_attempts: dict[VertexId, int] = {}
        self.exec_position = 0
        # fault-injection switches for checker validation: execute commits
        # immediately in arrival order / use the naive largest-id-only
        # client table rule
        self.skip_scc_order = skip_scc_order
        self.largest_seq_only = largest_seq_only

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if isinstance(msg, Commit):
            return self.commit(msg.v, msg.proposal, now)
        if isinstance(msg, (Phase1b, Phase2b, Nack)) and self.recovery is not None:
            return self.recovery.on_message(src, msg, now)
        return []

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        if key[0] == "recover":
            return self.recovery_tick(key[1], now)
        if key[0] in ("paxos-retx", "paxos-backoff") and self.recovery is not None:
            return self.recovery.on_timer(key, now)
        return []

    # -- commit path -------------------------------------------------------

    def commit(self, v: VertexId, p: Proposal, now: float) -> list[Effect]:
        out: list[Effect] = [Note(CommitSeen(self.name, v, p))]
        try:
            fresh = self.graph.add(v, p)
        except AgreementViolation as exc:
            raise ReplicaPanic(out, exc) from exc
        if not fresh:
            return out  # duplicate delivery of the same proposal
        self.recovery_attempts.pop(v, None)
        for dep in self.graph.waiting[v]:
            if dep not in self.graph.committed and dep not in self.recovery_attempts:
                out.append(self._arm_recovery(dep))
        if self.skip_scc_order:
            out.extend(self._execute_vertex(v))
            return out
        out.extend(self.execute_eligible())
        return out

    def _arm_recovery(self, v: VertexId) -> SetTimer:
        self.recovery_attempts.setdefault(v, 0)
        return SetTimer(self.recovery_timeout_ms, ("recover", v))

    # -- execution ---------------------------------------------------------

    def execute_eligible(self) -> list[Effect]:
        """Run every currently eligible component, one SCC at a time.

        Tarjan emits components after everything they point at, so a single
        pass in emission order reaches the fixpoint: a component runs iff
        its members are all waiting and, once executed deps are pruned, wait
        only on each other. An uncommitted dep has no edges and never runs.
        """
        waiting = self.graph.waiting
        out: list[Effect] = []
        roots = sorted(waiting, key=VertexId.sort_key)  # deterministic traversal
        for comp in _tarjan_sccs(roots, self._waiting_on):
            members = set(comp)
            if all(v in waiting and members.issuperset(self._waiting_on(v)) for v in comp):
                for v in sorted(comp, key=VertexId.sort_key):
                    out.extend(self._execute_vertex(v))
        return out

    def _waiting_on(self, v: VertexId) -> list[VertexId]:
        """v's edges: its waiting list, pruned in place of executed deps."""
        deps = self.graph.waiting.get(v)
        if deps:
            deps[:] = [dep for dep in deps if dep not in self.graph.executed]
        return deps or []

    def _execute_vertex(self, v: VertexId) -> list[Effect]:
        proposal = self.graph.committed[v]
        self.graph.mark_executed(v)
        out: list[Effect] = []
        cmds: tuple[Union[Command, Noop], ...]
        if isinstance(proposal.cmd, Batch):
            cmds = proposal.cmd.commands
        else:
            cmds = (proposal.cmd,)
        for cmd in cmds:
            out.extend(self._apply_one(v, cmd))
        return out

    def _apply_one(self, v: VertexId, cmd: Union[Command, Noop]) -> list[Effect]:
        position = self.exec_position
        self.exec_position += 1
        if isinstance(cmd, Noop):
            return [Note(ExecEvent(self.name, v, None, None, None, False, None, position))]

        if self.largest_seq_only:
            row = self.table.rows.get(cmd.client_id)
            duplicate = row is not None and cmd.client_seq <= row.highest
        else:
            duplicate = self.table.contains(cmd.client_id, cmd.client_seq)

        out: list[Effect] = []
        if duplicate:
            available, output = self.table.cached(cmd.client_id, cmd.client_seq)
            out.append(
                Note(
                    ExecEvent(
                        self.name, v, cmd.client_id, cmd.client_seq, cmd.op,
                        False, output if available else None, position,
                    )
                )
            )
            out.extend(self._respond(v, cmd, available, output))
            return out

        output = self.apply_command(cmd)
        self.table.record(cmd.client_id, cmd.client_seq, output)
        out.append(
            Note(
                ExecEvent(
                    self.name, v, cmd.client_id, cmd.client_seq, cmd.op,
                    True, output, position,
                )
            )
        )
        out.extend(self._respond(v, cmd, True, output))
        return out

    def apply_command(self, cmd: Command) -> Optional[bytes]:
        if isinstance(cmd.op, Get):
            return self.kv.get(cmd.op.key)
        self.kv[cmd.op.key] = cmd.op.value
        return SET_ACK

    def _respond(
        self, v: VertexId, cmd: Command, available: bool, output: Optional[bytes]
    ) -> list[Effect]:
        if v.owner_replica(self.num_replicas) != self.index:
            return []
        return [
            Note(
                RespondEvent(
                    self.name, v, cmd.client_id, cmd.client_seq, available, output
                )
            ),
            Send(
                cmd.client_id,
                ClientResponse(cmd.client_id, cmd.client_seq, available, output),
            ),
        ]

    # -- recovery ----------------------------------------------------------

    def recovery_tick(self, v: VertexId, now: float) -> list[Effect]:
        if v in self.graph.committed or v not in self.recovery_attempts:
            return []
        attempt = self.recovery_attempts[v]
        self.recovery_attempts[v] = attempt + 1
        out: list[Effect] = []
        if self.recovery is not None:
            out.extend(self.recovery.propose(v, NOOP_PROPOSAL, now))
        out.append(
            SetTimer(self.recovery_timeout_ms * (2 ** (attempt + 1)), ("recover", v))
        )
        return out


def _tarjan_sccs(vertices, edges_of):
    """Iterative Tarjan; yields SCCs in reverse topological order (each
    component only after every component it points at)."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    work: list = []

    def visit(v):
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(edges_of(v))))

    for root in vertices:
        if root in index:
            continue
        visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    yield comp
