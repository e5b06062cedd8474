"""Shared domain types: vertex ids, commands, dependency sets, proposals,
and the per-replica graph of committed vertices.

Everything here is an immutable value; instances can be shared freely
between logical threads and used as dict keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; deterministic across processes and platforms."""
    h = _FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV64_PRIME) & _U64
    return h


@functools.total_ordering
@dataclass(frozen=True)
class VertexId:
    """Globally unique vertex identifier: (issuing leader, per-leader sequence).

    Ordered lexicographically on (seq, leader_index) so that leaders
    interleave fairly when a cycle batch is flattened; any deterministic
    total order would do, but it must be identical on every replica.
    """

    leader_index: int
    seq: int

    def sort_key(self) -> tuple[int, int]:
        return (self.seq, self.leader_index)

    def __lt__(self, other: "VertexId") -> bool:
        return self.sort_key() < other.sort_key()

    def encode(self) -> bytes:
        """Canonical 8-byte encoding: two unsigned 32-bit big-endian ints."""
        return self.leader_index.to_bytes(4, "big") + self.seq.to_bytes(4, "big")

    @staticmethod
    def decode(data: bytes) -> "VertexId":
        return VertexId(int.from_bytes(data[:4], "big"), int.from_bytes(data[4:8], "big"))

    def owner_replica(self, num_replicas: int) -> int:
        return fnv1a64(self.encode()) % num_replicas


@dataclass(frozen=True)
class Get:
    key: bytes


@dataclass(frozen=True)
class Set:
    key: bytes
    value: bytes


Op = Union[Get, Set]


@dataclass(frozen=True)
class Command:
    """A client-issued KV operation.

    client_seq strictly increases across distinct commands from one client;
    retries of the same command reuse the same client_seq.
    """

    client_id: str
    client_seq: int
    op: Op


@dataclass(frozen=True)
class Noop:
    """Recovery filler command: no effect, conflicts with nothing."""


NOOP = Noop()


@dataclass(frozen=True)
class Batch:
    """An ordered group of commands agreed on as a single vertex."""

    commands: tuple[Command, ...]


Payload = Union[Command, Batch, Noop]


def footprint(x: Payload) -> Iterator[tuple[bytes, bool]]:
    """(key, is_write) pairs touched by a payload. Noop touches nothing."""
    if isinstance(x, Command):
        if isinstance(x.op, Get):
            yield (x.op.key, False)
        else:
            yield (x.op.key, True)
    elif isinstance(x, Batch):
        for cmd in x.commands:
            yield from footprint(cmd)


def conflicts(x: Payload, y: Payload) -> bool:
    """True iff x and y touch a common key and at least one side writes it.

    Symmetric; Noop never conflicts, two reads never conflict. Batches
    conflict when any member pair does.
    """
    seen: dict[bytes, bool] = {}
    for key, is_write in footprint(x):
        seen[key] = seen.get(key, False) or is_write
    for key, is_write in footprint(y):
        if key in seen and (is_write or seen[key]):
            return True
    return False


# Both dependency-set formats answer `v in deps` in O(1), iterate over the
# covered vertex ids, have a `len` (and so emptiness) and a `union`. Only
# expand() builds a set; it is meant for tests and offline measurement.


@dataclass(frozen=True)
class ExactDeps:
    """Dependency set as an explicit set of vertex ids."""

    vertices: frozenset[VertexId]

    def __contains__(self, v: VertexId) -> bool:
        return v in self.vertices

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def expand(self) -> frozenset[VertexId]:
        return self.vertices

    def union(self, other: "Deps") -> "ExactDeps":
        if not isinstance(other, ExactDeps):
            raise TypeError("cannot union exact deps with compact deps")
        return ExactDeps(self.vertices | other.vertices)


@dataclass(frozen=True)
class CompactDeps:
    """Dependency set as one watermark per leader.

    watermarks[i] = highest sequence s such that every (i, k), k <= s, is a
    dependency; None means no dependency on leader i. The array length is
    fixed at cluster configuration time to the number of leaders.
    """

    watermarks: tuple[Optional[int], ...]

    @classmethod
    def covering(cls, vertices: Iterable[VertexId], num_leaders: int) -> "CompactDeps":
        """The smallest watermark set that contains every given vertex."""
        watermarks: list[Optional[int]] = [None] * num_leaders
        for v in vertices:
            w = watermarks[v.leader_index]
            if w is None or v.seq > w:
                watermarks[v.leader_index] = v.seq
        return cls(tuple(watermarks))

    def __contains__(self, v: VertexId) -> bool:
        if not 0 <= v.leader_index < len(self.watermarks):
            return False
        w = self.watermarks[v.leader_index]
        return w is not None and v.seq <= w

    def __iter__(self) -> Iterator[VertexId]:
        for i, w in enumerate(self.watermarks):
            if w is not None:
                for k in range(w + 1):
                    yield VertexId(i, k)

    def __len__(self) -> int:
        return sum(w + 1 for w in self.watermarks if w is not None)

    def expand(self) -> frozenset[VertexId]:
        return frozenset(self)

    def union(self, other: "Deps") -> "CompactDeps":
        if not isinstance(other, CompactDeps):
            raise TypeError("cannot union compact deps with exact deps")
        if len(self.watermarks) != len(other.watermarks):
            raise ValueError("compact deps built for different leader counts")
        merged = tuple(
            b if a is None else a if b is None else max(a, b)
            for a, b in zip(self.watermarks, other.watermarks)
        )
        return CompactDeps(merged)


Deps = Union[ExactDeps, CompactDeps]

EMPTY_DEPS = ExactDeps(frozenset())


@dataclass(frozen=True)
class Proposal:
    """The unit of consensus for one vertex: a payload plus its deps.

    A noop conflicts with nothing, so a noop proposal carries no deps."""

    cmd: Payload
    deps: Deps

    def __post_init__(self) -> None:
        if isinstance(self.cmd, Noop) and self.deps:
            raise ValueError("noop proposals carry empty dependencies")


NOOP_PROPOSAL = Proposal(NOOP, EMPTY_DEPS)


class AgreementViolation(Exception):
    """Two different proposals observed as committed for the same vertex."""


class CommitGraph:
    """Map of committed vertices plus execution status.

    Committed entries are immutable: re-committing a vertex with a different
    proposal raises AgreementViolation. waiting[v] lists, in vertex order,
    the deps a committed but unexecuted vertex v may still wait on: those
    not executed when v was added, never v itself (compact deps can cover
    it). Callers may prune it in place as deps execute.
    """

    def __init__(self) -> None:
        self.committed: dict[VertexId, Proposal] = {}
        self.executed: set[VertexId] = set()
        self.waiting: dict[VertexId, list[VertexId]] = {}

    def add(self, v: VertexId, p: Proposal) -> bool:
        """Record a committed vertex. Returns False on duplicate delivery."""
        existing = self.committed.get(v)
        if existing is not None:
            if existing != p:
                raise AgreementViolation(f"vertex {v}: {existing} vs {p}")
            return False
        self.committed[v] = p
        deps = (dep for dep in p.deps if dep not in self.executed and dep != v)
        self.waiting[v] = sorted(deps, key=VertexId.sort_key)
        return True

    def mark_executed(self, v: VertexId) -> None:
        del self.waiting[v]
        self.executed.add(v)
