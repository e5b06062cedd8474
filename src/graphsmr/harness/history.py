"""Run histories and the post-hoc safety checker.

A history is an ordered list of (time_ms, seqno, event) records gathered
from role Note effects. The checker is independent of the protocol roles: it
re-derives every verdict from the recorded events alone, so it can also
judge histories produced by mutated (deliberately broken) deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..consensus import ChosenEvent
from ..core import Get, Payload, Proposal, VertexId, footprint
from ..replica import CommitSeen, ExecEvent, RespondEvent

Record = tuple[float, int, object]


@dataclass
class Invoke:
    client: str
    client_seq: int
    op: object


@dataclass
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


def _payload_conflict_pairs(payloads: dict[VertexId, Payload]) -> set[frozenset]:
    """All unordered vertex pairs whose payloads conflict, via a per-key
    index so non-conflicting workloads stay cheap."""
    readers: dict[bytes, list[VertexId]] = {}
    writers: dict[bytes, list[VertexId]] = {}
    for v, payload in payloads.items():
        for key, is_write in footprint(payload):
            (writers if is_write else readers).setdefault(key, []).append(v)

    pairs: set[frozenset] = set()
    for key, ws in writers.items():
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                if a != b:
                    pairs.add(frozenset((a, b)))
            for b in readers.get(key, ()):
                if a != b:
                    pairs.add(frozenset((a, b)))
    return pairs


def check_history(records: list[Record]) -> Verdict:
    """Verify per-vertex agreement, the dependency invariant, cross-replica
    agreement on conflicting execution order and on replayed state,
    exactly-once per (client, seq), and response/execution consistency."""
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

    # (c) dependency invariant over committed proposals
    payloads = {v: p.cmd for v, p in proposals.items()}
    conflict_pairs = _payload_conflict_pairs(payloads)
    for pair in conflict_pairs:
        a, b = tuple(pair)
        if a not in proposals[b].deps and b not in proposals[a].deps:
            violations.append(
                Violation(
                    "dependency-invariant",
                    f"conflicting vertices {a} and {b} have no edge",
                    [commit_records[a][0], commit_records[b][0]],
                )
            )

    # (b) conflicting-order agreement between replicas
    positions: dict[str, dict[VertexId, tuple[int, Record]]] = {}
    for replica, recs in execs.items():
        pos: dict[VertexId, tuple[int, Record]] = {}
        for rec in recs:
            ev = rec[2]
            if ev.applied and ev.v not in pos:
                pos[ev.v] = (ev.position, rec)
        positions[replica] = pos
    replica_names = sorted(positions)
    for i, r1 in enumerate(replica_names):
        for r2 in replica_names[i + 1 :]:
            common = positions[r1].keys() & positions[r2].keys()
            for pair in conflict_pairs:
                a, b = tuple(pair)
                if a not in common or b not in common:
                    continue
                o1 = positions[r1][a][0] < positions[r1][b][0]
                o2 = positions[r2][a][0] < positions[r2][b][0]
                if o1 != o2:
                    violations.append(
                        Violation(
                            "conflicting-order",
                            f"{r1} and {r2} executed conflicting {a}, {b} in "
                            "opposite orders",
                            [
                                positions[r1][a][1],
                                positions[r1][b][1],
                                positions[r2][a][1],
                                positions[r2][b][1],
                            ],
                        )
                    )

    # (b') replicas that executed the same vertex set must replay to the
    # same kv state
    by_vertex_set: dict[frozenset, list[str]] = {}
    for replica, recs in execs.items():
        vs = frozenset(rec[2].v for rec in recs)
        by_vertex_set.setdefault(vs, []).append(replica)
    for vs, replicas in by_vertex_set.items():
        if len(replicas) < 2:
            continue
        states = {}
        for replica in replicas:
            kv: dict[bytes, bytes] = {}
            for rec in sorted(execs[replica], key=lambda r: r[2].position):
                ev = rec[2]
                if ev.applied and ev.op is not None and not isinstance(ev.op, Get):
                    kv[ev.op.key] = ev.op.value
            states[replica] = tuple(sorted(kv.items()))
        unique = set(states.values())
        if len(unique) > 1:
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
