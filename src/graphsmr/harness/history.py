"""Run histories and the post-hoc safety checker.

A history is an ordered list of (time_ms, seqno, event) records gathered
from role Note effects. The checker is independent of the protocol roles: it
re-derives every verdict from the recorded events alone, so it can also
judge histories produced by mutated (deliberately broken) deployments.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional

from ..consensus import ChosenEvent
from ..core import ExactDeps, Get, Proposal, VertexId, key_access
from ..replica import SET_ACK, CommitSeen, ExecEvent, RespondEvent

Record = tuple[float, int, object]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Turn the cyclic garbage collector off for the body, then back on only
    if it was on before, also when the body raises. Reference counting still
    frees whatever the body drops, so a body that builds no reference cycles
    frees as much as it would with the collector on, and the collector does
    not re-walk the live objects the body builds."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


@dataclass(slots=True)
class Invoke:
    client: str
    client_seq: int
    op: object


@dataclass(slots=True)
class Reply:
    client: str
    client_seq: int
    output_available: bool
    output: Optional[bytes]


@dataclass
class Violation:
    kind: str
    detail: str
    events: list[Record] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"{self.kind}: {self.detail}"]
        for t, n, ev in self.events:
            lines.append(f"  [{t:.3f} #{n}] {ev}")
        return "\n".join(lines)


@dataclass
class Verdict:
    ok: bool
    violations: list[Violation]

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def export_history(records: list[Record]) -> str:
    """Newline-delimited structured-text dump; byte-identical for identical
    runs."""
    return "\n".join(f"{t:.6f}\t{n}\t{ev!r}" for t, n, ev in records) + "\n"


def _key_index(
    proposals: dict[VertexId, Proposal],
) -> dict[bytes, tuple[list[VertexId], list[VertexId]]]:
    """key -> (writers, readers that do not also write it), each vertex listed
    once and in vertex order. Keys nobody writes, and keys only one vertex
    touches, hold no conflicting pair and are left out."""
    index: dict[bytes, tuple[list[VertexId], list[VertexId]]] = {}
    for v in sorted(proposals, key=VertexId.sort_key):
        for key, is_write in key_access(proposals[v].cmd).items():
            index.setdefault(key, ([], []))[0 if is_write else 1].append(v)
    return {
        key: (writers, readers)
        for key, (writers, readers) in index.items()
        if writers and len(writers) + len(readers) > 1
    }


def _history_unlinked(
    writers: list[VertexId],
    readers: list[VertexId],
    proposals: dict[VertexId, Proposal],
    rank: dict[VertexId, int],
) -> list[tuple[VertexId, VertexId]]:
    """The unlinked conflicting pairs on one key, as (earlier, later) pairs
    in vertex order, whatever the format of each vertex's deps.

    The key's vertices are walked in history order (rank: the order of each
    vertex's first commit record). A vertex's candidates are the conflicting
    vertices walked before it that its deps leave out. For exact deps that
    is one C-level set difference. For compact deps the walk also keeps,
    per leader, the sorted seqs of the vertices walked so far (all of them,
    and the writers alone): a watermark leaves out the suffix of its
    leader's row above it, found by one bisection, and a None or missing
    watermark the whole row. Each candidate a is then probed the other way,
    v in a's deps. A vertex's deps hold nearly every conflicting vertex the
    dependency service saw before it, most of those committed before it, so
    the candidates are the few that were in flight beside it, however long
    the history.

    The pairs come out in the order of a walk over the writers in vertex
    order, each paired with the earlier writers and then with every reader,
    partners in vertex order."""
    is_writer = set(writers)
    seen_writers: set[VertexId] = set()
    seen: set[VertexId] = set()
    writer_rows: defaultdict[int, list[int]] = defaultdict(list)
    rows: defaultdict[int, list[int]] = defaultdict(list)
    found: list[tuple[VertexId, VertexId]] = []
    for v in sorted(chain(writers, readers), key=rank.__getitem__):
        writes = v in is_writer
        partners, partner_rows = (seen, rows) if writes else (seen_writers, writer_rows)
        deps = proposals[v].deps
        if isinstance(deps, ExactDeps):
            candidates: Iterable[VertexId] = partners - deps.vertices
        else:
            marks = deps.watermarks
            candidates = []
            for i, row in partner_rows.items():
                w = marks[i] if i < len(marks) else None
                start = 0 if w is None else bisect_right(row, w)
                candidates.extend(VertexId(i, s) for s in row[start:])
        for a in candidates:
            if v not in proposals[a].deps:
                found.append((a, v) if a < v else (v, a))
        seen.add(v)
        insort(rows[v.leader_index], v.seq)
        if writes:
            seen_writers.add(v)
            insort(writer_rows[v.leader_index], v.seq)

    def walk_order(pair: tuple[VertexId, VertexId]):
        """(writer, partner is a reader, partner): the later vertex leads
        when both write."""
        a, b = pair
        if b in is_writer:
            return b.sort_key(), a not in is_writer, a.sort_key()
        return a.sort_key(), True, b.sort_key()

    return sorted(found, key=walk_order)


def _order_inversion(
    writers: list[VertexId],
    readers: list[VertexId],
    pos1: dict[VertexId, int],
    pos2: dict[VertexId, int],
) -> Optional[tuple[VertexId, VertexId]]:
    """Two vertices conflicting on one key that two replicas executed in
    opposite orders, or None. pos1 and pos2 map each vertex a replica applied
    to its (unique) execution position; only vertices both applied count.

    The writers, sorted by position at the first replica, must also increase
    at the second. Then each reader must have the same rank among the
    writers at both, found by bisecting each replica's writer positions."""
    common = [w for w in writers if w in pos1 and w in pos2]
    common.sort(key=pos1.__getitem__)
    at1 = [pos1[w] for w in common]
    at2 = [pos2[w] for w in common]
    for i in range(1, len(common)):
        if at2[i - 1] > at2[i]:
            return common[i - 1], common[i]
    for r in readers:
        if r in pos1 and r in pos2:
            rank1 = bisect_left(at1, pos1[r])
            rank2 = bisect_left(at2, pos2[r])
            if rank1 != rank2:
                return r, common[min(rank1, rank2)]
    return None


@gc_paused()
def check_history(records: list[Record]) -> Verdict:
    """Verify per-vertex agreement, the dependency invariant, cross-replica
    agreement on conflicting execution order and on replayed state, each
    applied output against its replica's sequential replay, exactly-once
    per (client, seq), and response/execution consistency. The cyclic
    garbage collector is paused meanwhile, which is safe because a check
    builds no reference cycles (tests/test_harness.py checks it)."""
    violations: list[Violation] = []

    commit_records: dict[VertexId, list[Record]] = {}
    proposals: dict[VertexId, Proposal] = {}
    execs: dict[str, list[Record]] = {}
    responds: list[Record] = []

    for rec in records:
        ev = rec[2]
        if isinstance(ev, (CommitSeen, ChosenEvent)):
            commit_records.setdefault(ev.v, []).append(rec)
            proposals.setdefault(ev.v, ev.proposal)
        elif isinstance(ev, ExecEvent):
            execs.setdefault(ev.replica, []).append(rec)
        elif isinstance(ev, RespondEvent):
            responds.append(rec)

    # (a) per-vertex agreement across every chosen/commit observation
    for v, recs in commit_records.items():
        first = recs[0][2].proposal
        for rec in recs[1:]:
            if rec[2].proposal != first:
                violations.append(
                    Violation(
                        "per-vertex-agreement",
                        f"vertex {v} committed with two different proposals",
                        [recs[0], rec],
                    )
                )
                break

    # (c) dependency invariant: every conflicting pair has an edge. Each key
    # is walked in history order, the order of first commit records, which
    # is proposals' insertion order. A pair that conflicts on several keys
    # is reported once
    index = _key_index(proposals)
    rank = {v: i for i, v in enumerate(proposals)}
    unlinked: set[tuple[VertexId, VertexId]] = set()
    for key in sorted(index):
        writers, readers = index[key]
        for a, b in _history_unlinked(writers, readers, proposals, rank):
            if (a, b) not in unlinked:
                unlinked.add((a, b))
                violations.append(
                    Violation(
                        "dependency-invariant",
                        f"conflicting vertices {a} and {b} have no edge",
                        [commit_records[a][0], commit_records[b][0]],
                    )
                )

    # (b) conflicting-order agreement between replicas, key by key, over the
    # vertices both replicas applied
    positions: dict[str, dict[VertexId, int]] = {}
    applied: dict[str, dict[VertexId, Record]] = {}
    for replica, recs in execs.items():
        pos = positions[replica] = {}
        rec_at = applied[replica] = {}
        for rec in recs:
            ev = rec[2]
            if ev.applied and ev.v not in pos:
                pos[ev.v] = ev.position
                rec_at[ev.v] = rec
    replica_pairs = list(combinations(sorted(positions), 2))
    for key in sorted(index):
        writers, readers = index[key]
        for r1, r2 in replica_pairs:
            inverted = _order_inversion(writers, readers, positions[r1], positions[r2])
            if inverted is None:
                continue
            a, b = inverted
            violations.append(
                Violation(
                    "conflicting-order",
                    f"{r1} and {r2} executed conflicting {a}, {b} in "
                    "opposite orders",
                    [applied[r1][a], applied[r1][b], applied[r2][a], applied[r2][b]],
                )
            )

    # (b') replay each replica's executions once, in position order: an
    # applied Get must output the value its replica's replay holds, and an
    # applied Set SET_ACK. Replicas that executed the same vertex set must
    # end in the same replayed state
    by_vertex_set: dict[frozenset, dict[str, tuple]] = {}
    for replica, recs in execs.items():
        kv: dict[bytes, bytes] = {}
        for rec in sorted(recs, key=lambda r: r[2].position):
            ev = rec[2]
            if not ev.applied or ev.op is None:
                continue
            if isinstance(ev.op, Get):
                expected = kv.get(ev.op.key)
            else:
                kv[ev.op.key] = ev.op.value
                expected = SET_ACK
            if ev.output != expected:
                violations.append(
                    Violation(
                        "replay-output-mismatch",
                        f"{replica} applied {ev.client}/{ev.client_seq} with output "
                        f"{ev.output!r}, but its replay gives {expected!r}",
                        [rec],
                    )
                )
        vs = frozenset(rec[2].v for rec in recs)
        by_vertex_set.setdefault(vs, {})[replica] = tuple(sorted(kv.items()))
    for states in by_vertex_set.values():
        if len(set(states.values())) > 1:
            r1, r2 = sorted(states)[:2]
            violations.append(
                Violation(
                    "replayed-state-divergence",
                    f"{r1} and {r2} executed the same vertices but differ in "
                    "replayed state",
                    [execs[r1][-1], execs[r2][-1]],
                )
            )

    # (d) exactly-once per (client, seq) per replica: applied at most once,
    # and a dedup skip is only legitimate after a local application (the
    # client table records executions of this replica, nobody else's)
    for replica, recs in execs.items():
        seen: dict[tuple[str, int], Record] = {}
        for rec in recs:
            ev = rec[2]
            if ev.client is None:
                continue
            key = (ev.client, ev.client_seq)
            if ev.applied:
                if key in seen:
                    violations.append(
                        Violation(
                            "exactly-once",
                            f"{replica} applied client {key[0]} seq {key[1]} twice",
                            [seen[key], rec],
                        )
                    )
                else:
                    seen[key] = rec
            elif key not in seen:
                violations.append(
                    Violation(
                        "skipped-unexecuted",
                        f"{replica} skipped client {key[0]} seq {key[1]} "
                        "without ever applying it",
                        [rec],
                    )
                )
    # (e) every response is backed by an execution at the responding replica
    exec_index: dict[tuple[str, str, int], list[Record]] = {}
    for replica, recs in execs.items():
        for rec in recs:
            ev = rec[2]
            if ev.client is not None:
                exec_index.setdefault((replica, ev.client, ev.client_seq), []).append(rec)
    for rec in responds:
        ev = rec[2]
        backing = exec_index.get((ev.replica, ev.client, ev.client_seq), [])
        if not backing:
            violations.append(
                Violation(
                    "unbacked-response",
                    f"{ev.replica} answered {ev.client}/{ev.client_seq} "
                    "without executing it",
                    [rec],
                )
            )
        elif ev.output_available and not any(
            r[2].output == ev.output for r in backing
        ):
            violations.append(
                Violation(
                    "response-output-mismatch",
                    f"{ev.replica} answered {ev.client}/{ev.client_seq} with "
                    "an output it never produced",
                    [rec, backing[0]],
                )
            )

    return Verdict(not violations, violations)
