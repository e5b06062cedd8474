"""Replica: maintains the graph of committed vertices, executes eligible
strongly connected components in reverse topological order, deduplicates
client commands, answers the clients it owns, and recovers stuck dependencies
and lost Commits (holes below a leader's highest committed seq) via an
embedded consensus proposer, which learns the chosen value or fills a noop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .consensus import Proposer
from .core import (
    AgreementViolation,
    Batch,
    Command,
    CommitGraph,
    DenseGaps,
    Get,
    NOOP_PROPOSAL,
    Noop,
    Proposal,
    VertexId,
    WatermarkSet,
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


@dataclass(slots=True)
class CommitSeen:
    replica: str
    v: VertexId
    proposal: Proposal


@dataclass(slots=True)
class ExecEvent:
    replica: str
    v: VertexId
    client: Optional[str]  # None for noops
    client_seq: Optional[int]
    op: Optional[object]
    applied: bool  # False when skipped by the client table (or a noop)
    output: Optional[bytes]
    position: int  # per-replica execution index


@dataclass(slots=True)
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


class ClientTable:
    """Per-client record of every executed command id, plus the output of
    the largest one. Recording only the largest id is not enough for a
    generalized protocol: an older command can legitimately arrive for
    execution after a newer, non-conflicting one has already run."""

    def __init__(self) -> None:
        self.executed = WatermarkSet(1)  # (client, seq): client seqs start at 1
        self.highest: dict[str, tuple[int, Optional[bytes]]] = {}

    def contains(self, client: str, seq: int) -> bool:
        return (client, seq) in self.executed

    def record(self, client: str, seq: int, output: Optional[bytes]) -> None:
        self.executed.add((client, seq))
        if seq > self.highest.get(client, (0, None))[0]:
            self.highest[client] = (seq, output)

    def cached(self, client: str, seq: int) -> tuple[bool, Optional[bytes]]:
        """(available, output) for a duplicate of an executed command."""
        highest = self.highest.get(client)
        if highest is not None and seq == highest[0]:
            return True, highest[1]
        return False, None


class Replica:
    def __init__(
        self,
        name: str,
        index: int,
        num_replicas: int,
        recovery_proposer: Optional[Proposer] = None,
        recovery_timeout_ms: float = 100.0,
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
        self.commit_gaps = DenseGaps()
        self.exec_position = 0
        # the waiter index: the uncommitted vertices that some waiting
        # vertex's list names; and the vertex commit() just added, when no
        # waiting list names it
        self.awaited: set[VertexId] = set()
        self.unawaited: Optional[VertexId] = None

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        if isinstance(msg, Commit):
            return self.commit(msg.v, msg.proposal, now)
        if isinstance(msg, (Phase1b, Phase2b, Nack)) and self.recovery is not None:
            return self.recovery.on_message(src, msg, now)
        return []

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        if key[0] == "recover":
            return self.recovery_tick(key[1], now)
        if key[0] == "commit-gap":
            return self._on_commit_gap(key[1], key[2], now)
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
        committed, awaited = self.graph.committed, self.awaited
        self.unawaited = None if v in awaited else v
        awaited.discard(v)
        for dep in self.graph.waiting[v]:
            if dep not in committed:
                awaited.add(dep)
                if dep not in self.recovery_attempts:
                    out.append(self._arm_recovery(dep))
        gap_key = self.commit_gaps.add(v)
        if gap_key is not None:
            out.append(self._arm_commit_gap(v.leader_index, gap_key))
        out.extend(self.execute_eligible())
        return out

    def _arm_recovery(self, v: VertexId) -> SetTimer:
        self.recovery_attempts.setdefault(v, 0)
        return SetTimer(self.recovery_timeout_ms, ("recover", v))

    def _arm_commit_gap(self, leader: int, key: int) -> SetTimer:
        return SetTimer(self.recovery_timeout_ms, ("commit-gap", leader, key))

    def _on_commit_gap(self, leader: int, key: int, now: float) -> list[Effect]:
        """A Commit below the leader's highest committed seq at arming time
        is still missing after a recovery timeout, so it was probably lost:
        recover it as a stuck dependency would be."""
        missing, rearm = self.commit_gaps.fire(leader, key)
        out: list[Effect] = []
        for v in missing:
            if v not in self.recovery_attempts:
                self.recovery_attempts[v] = 0
                out.extend(self.recovery_tick(v, now))
        if rearm is not None:
            out.append(self._arm_commit_gap(leader, rearm))
        return out

    # -- execution ---------------------------------------------------------

    def execute_eligible(self) -> list[Effect]:
        """Run every currently eligible component, one SCC at a time.

        Tarjan emits components after everything they point at, so a single
        pass in emission order reaches the fixpoint: a component runs iff
        its members are all waiting and, once executed deps are pruned, wait
        only on each other. An uncommitted dep has no edges and never runs.

        Most commits need no traversal. After every call nothing waiting can
        run, so a fresh commit of v can only let v run, or a vertex that
        reaches v through waiting lists; the last step of that path is a
        waiting vertex whose list names v, which was uncommitted when that
        vertex was added. commit() keeps the waiter index `awaited`, every
        uncommitted vertex that some waiting list names, and sets
        `unawaited` to v when v is not in it. Then no vertex waits on v,
        whatever v's pruned list still names is stuck without v, and v runs
        alone iff that list is empty. Only a commit that some waiting list
        names runs the pass above.
        """
        out: list[Effect] = []
        v, self.unawaited = self.unawaited, None
        if v is not None:
            if not self._waiting_on(v):
                self._execute_component([v], out)
            return out
        waiting = self.graph.waiting
        roots = sorted(waiting, key=VertexId.sort_key)  # deterministic traversal
        for comp in _tarjan_sccs(roots, self._waiting_on):
            members = set(comp)
            if all(v in waiting and members.issuperset(self._waiting_on(v)) for v in comp):
                self._execute_component(comp, out)
        return out

    def _execute_component(self, comp: list[VertexId], out: list[Effect]) -> None:
        """Run a component whose deps outside it have all executed, so once
        it has run, every dep of each member has executed. Its effects go
        to out, as do those of the helpers below."""
        for v in sorted(comp, key=VertexId.sort_key):
            self._execute_vertex(v, out)
        self.graph.deps_executed(comp)

    def _waiting_on(self, v: VertexId) -> list[VertexId]:
        """v's edges: its waiting list, pruned in place of executed deps."""
        deps = self.graph.waiting.get(v)
        if deps:
            deps[:] = [dep for dep in deps if dep not in self.graph.executed]
        return deps or []

    def _execute_vertex(self, v: VertexId, out: list[Effect]) -> None:
        proposal = self.graph.committed[v]
        self.graph.mark_executed(v)
        cmds: tuple[Union[Command, Noop], ...]
        if isinstance(proposal.cmd, Batch):
            cmds = proposal.cmd.commands
        else:
            cmds = (proposal.cmd,)
        owns = v.owner_replica(self.num_replicas) == self.index
        for cmd in cmds:
            self._apply_one(v, cmd, owns, out)

    def _apply_one(
        self, v: VertexId, cmd: Union[Command, Noop], owns: bool, out: list[Effect]
    ) -> None:
        position = self.exec_position
        self.exec_position += 1
        if isinstance(cmd, Noop):
            out.append(Note(ExecEvent(self.name, v, None, None, None, False, None, position)))
            return

        applied = not self.table.contains(cmd.client_id, cmd.client_seq)
        if applied:
            available, output = True, self.apply_command(cmd)
            self.table.record(cmd.client_id, cmd.client_seq, output)
        else:
            available, output = self.table.cached(cmd.client_id, cmd.client_seq)
        out.append(Note(ExecEvent(
            self.name, v, cmd.client_id, cmd.client_seq, cmd.op,
            applied, output if available else None, position,
        )))
        if owns:  # the answer to the client, from the replica that owns v only
            out.append(Note(RespondEvent(
                self.name, v, cmd.client_id, cmd.client_seq, available, output
            )))
            out.append(Send(
                cmd.client_id, ClientResponse(cmd.client_id, cmd.client_seq, available, output)
            ))

    def apply_command(self, cmd: Command) -> Optional[bytes]:
        if isinstance(cmd.op, Get):
            return self.kv.get(cmd.op.key)
        self.kv[cmd.op.key] = cmd.op.value
        return SET_ACK

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
