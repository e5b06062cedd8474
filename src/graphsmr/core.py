"""Shared domain types: vertex ids, commands, dependency sets, proposals,
and the per-replica graph of committed vertices.

Everything here is an immutable value; instances can be shared freely
between logical threads and used as dict keys.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def slot_init(cls):
    """Give a frozen, slotted dataclass an __init__ that stores each field
    through its slot's descriptor and then calls __post_init__, if the
    class has one. The generated __init__ calls object.__setattr__ once per
    field to get past the frozen __setattr__; this one has the same
    signature and builds the same immutable instance in about 40 % of the
    time, which counts for the values and messages built on nearly every
    event. Every field must be required."""
    names = [f.name for f in fields(cls)]
    if any(f.default is not MISSING or f.default_factory is not MISSING for f in fields(cls)):
        raise TypeError(f"slot_init: {cls.__name__} has a field default")
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    lines = [f"    _set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    params = "".join(f", {name}" for name in names)
    namespace: dict = {}
    exec(f"def __init__(self{params}):\n" + ("\n".join(lines) or "    pass"), setters, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; deterministic across processes and platforms."""
    h = _FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV64_PRIME) & _U64
    return h


class VertexId(NamedTuple):
    """Globally unique vertex identifier: (issuing leader, per-leader sequence).

    Ordered lexicographically on (seq, leader_index) so that leaders
    interleave fairly when a cycle batch is flattened; any deterministic
    total order would do, but it must be identical on every replica.
    A tuple underneath, so hashing and equality run natively; the hash is
    hash((leader_index, seq)).
    """

    leader_index: int
    seq: int

    def sort_key(self) -> tuple[int, int]:
        return (self.seq, self.leader_index)

    def __lt__(self, other: "VertexId") -> bool:
        return (self.seq, self.leader_index) < (other.seq, other.leader_index)

    def __le__(self, other: "VertexId") -> bool:
        return (self.seq, self.leader_index) <= (other.seq, other.leader_index)

    def __gt__(self, other: "VertexId") -> bool:
        return (self.seq, self.leader_index) > (other.seq, other.leader_index)

    def __ge__(self, other: "VertexId") -> bool:
        return (self.seq, self.leader_index) >= (other.seq, other.leader_index)

    def encode(self) -> bytes:
        """Canonical 8-byte encoding: two unsigned 32-bit big-endian ints."""
        return self.leader_index.to_bytes(4, "big") + self.seq.to_bytes(4, "big")

    def owner_replica(self, num_replicas: int) -> int:
        """fnv1a64(self.encode()) % num_replicas, hashing each field's four
        big-endian bytes straight from the int. A product's low 64 bits
        depend only on its operands' low 64 bits, so one mask per field
        is enough."""
        h = _FNV64_OFFSET
        for x in self:
            h = ((((h ^ (x >> 24)) * _FNV64_PRIME ^ ((x >> 16) & 0xFF)) * _FNV64_PRIME
                  ^ ((x >> 8) & 0xFF)) * _FNV64_PRIME ^ (x & 0xFF)) * _FNV64_PRIME & _U64
        return h % num_replicas


@slot_init
@dataclass(frozen=True, slots=True)
class Get:
    key: bytes


@slot_init
@dataclass(frozen=True, slots=True)
class Set:
    key: bytes
    value: bytes


Op = Union[Get, Set]


@slot_init
@dataclass(frozen=True, slots=True)
class Command:
    """A client-issued KV operation.

    client_seq strictly increases across distinct commands from one client;
    retries of the same command reuse the same client_seq.
    """

    client_id: str
    client_seq: int
    op: Op


@slot_init
@dataclass(frozen=True, slots=True)
class Noop:
    """Recovery filler command: no effect, conflicts with nothing."""


NOOP = Noop()


@slot_init
@dataclass(frozen=True, slots=True)
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


def key_access(x: Payload) -> dict[bytes, bool]:
    """Each key a payload touches, once, mapped to whether it writes it, in
    the order footprint() first names each key; one loop over the
    payload's commands."""
    if isinstance(x, Batch):
        cmds: tuple[Command, ...] = x.commands
    elif isinstance(x, Command):
        cmds = (x,)
    else:
        return {}
    access: dict[bytes, bool] = {}
    for cmd in cmds:
        op = cmd.op
        if isinstance(op, Get):
            access.setdefault(op.key, False)
        else:
            access[op.key] = True
    return access


# Both dependency-set formats answer `v in deps` in O(1), have a `len` (and
# so emptiness) and a `union`. Only expand() builds a set; it is meant for
# tests and offline measurement. Whoever needs more reads the format: an
# exact set's `vertices` take part in C-level set operations, and a compact
# set's above(low) walks only the range above each per-leader watermark.


@slot_init
@dataclass(frozen=True, slots=True, weakref_slot=True)
class ExactDeps:
    """Dependency set as an explicit set of vertex ids.

    Its repr lists the vertices in VertexId order, (seq, leader), as the
    wire format does, so history text and violation evidence depend on the
    set's content, not on how its hash table was built. It takes weak
    references, for the wire decoder's memo of the sets it has read."""

    vertices: frozenset[VertexId]

    def __repr__(self) -> str:
        vertices = sorted(self.vertices, key=VertexId.sort_key)
        inner = "{" + ", ".join(map(repr, vertices)) + "}" if vertices else ""
        return f"ExactDeps(vertices=frozenset({inner}))"

    def __contains__(self, v: VertexId) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def expand(self) -> frozenset[VertexId]:
        return self.vertices

    def union(self, other: "Deps") -> "ExactDeps":
        if not isinstance(other, ExactDeps):
            raise TypeError("cannot union exact deps with compact deps")
        # a union of two sets sizes its table for both operands; adding only
        # what other lacks sizes it for the result
        extra = other.vertices - self.vertices
        return ExactDeps(self.vertices | extra) if extra else self


@slot_init
@dataclass(frozen=True, slots=True)
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

    def above(self, low: Mapping[int, int]) -> Iterator[VertexId]:
        """Exactly the covered (i, s) with s > low.get(i, -1): one range per
        leader, as long as the gap between the two watermarks."""
        for i, w in enumerate(self.watermarks):
            if w is not None:
                for k in range(low.get(i, -1) + 1, w + 1):
                    yield VertexId(i, k)

    def __len__(self) -> int:
        return sum(w + 1 for w in self.watermarks if w is not None)

    def expand(self) -> frozenset[VertexId]:
        return frozenset(self.above({}))

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


@slot_init
@dataclass(frozen=True, slots=True)
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


class WatermarkSet:
    """A set of (row, seq) pairs whose rows number their seqs contiguously
    from `first`. low[row] is the highest seq up to which every seq of the
    row is in the set; sparse holds the pairs above it. Memory is O(rows +
    pairs added out of order), not O(pairs)."""

    def __init__(self, first: int) -> None:
        self.first = first
        self.low: dict = {}
        self.sparse: set = set()

    def __contains__(self, pair: tuple) -> bool:
        row, seq = pair
        return seq <= self.low.get(row, self.first - 1) or pair in self.sparse

    def __len__(self) -> int:
        return sum(w - self.first + 1 for w in self.low.values()) + len(self.sparse)

    def add(self, pair: tuple) -> None:
        row, seq = pair
        w = self.low.get(row, self.first - 1)
        if seq == w + 1:
            sparse = self.sparse
            if sparse:  # an in-order add with nothing above any watermark probes nothing
                while (row, seq + 1) in sparse:
                    seq += 1
                    sparse.remove((row, seq))
            self.low[row] = seq
        elif seq > w:
            self.sparse.add(pair)


class DenseGaps:
    """The vertex ids seen so far, and the holes below each leader's highest.

    A leader numbers its vertices densely from 0, so seeing (L, s) proves
    that every (L, s') with s' < s exists. A role arms at most one gap timer
    per leader: add() and fire() return the key to arm it with, the highest
    seq seen at that time, or None when the leader has no hole or already
    has a timer armed. When the timer fires, only the holes below its key
    are reported; the seqs above it may just be reordered in flight."""

    def __init__(self) -> None:
        self.seen = WatermarkSet(0)
        self.highest: dict[int, int] = {}
        self.armed: set[int] = set()

    def add(self, v: VertexId) -> Optional[int]:
        self.seen.add(v)
        if v.seq > self.highest.get(v.leader_index, -1):
            self.highest[v.leader_index] = v.seq
        return self._arm(v.leader_index)

    def fire(self, leader: int, key: int) -> tuple[list[VertexId], Optional[int]]:
        """(the unseen ids of leader below key, the key to re-arm with)."""
        self.armed.discard(leader)
        seen = self.seen
        missing = [
            VertexId(leader, s)
            for s in range(seen.low.get(leader, -1) + 1, key)
            if (leader, s) not in seen.sparse
        ]
        return missing, self._arm(leader)

    def _arm(self, leader: int) -> Optional[int]:
        highest = self.highest.get(leader, -1)
        if leader in self.armed or highest <= self.seen.low.get(leader, -1):
            return None
        self.armed.add(leader)
        return highest


class CommitGraph:
    """Map of committed vertices plus execution status.

    Committed entries are immutable: re-committing a vertex with a different
    proposal raises AgreementViolation. waiting[v] lists, in vertex order,
    the deps a committed but unexecuted vertex v may still wait on: those
    not executed when v was added, never v itself (compact deps can cover
    it). Callers may prune it in place as deps execute.

    executed holds the executed vertices with one row per leader, so add()
    walks a compact dependency set only above each leader's executed low
    watermark, which trails the highest executed seq by the out-of-order
    gap. executed_deps is the largest exact set, among the vertices that
    deps_executed() was told of, whose members have all executed. add()
    subtracts it from an exact set in one C-level set difference, so only
    what is left over, the vertices in flight beside the new one, is
    probed in executed.
    """

    def __init__(self) -> None:
        self.committed: dict[VertexId, Proposal] = {}
        self.executed = WatermarkSet(0)
        self.executed_deps: frozenset[VertexId] = frozenset()
        self.waiting: dict[VertexId, list[VertexId]] = {}

    def add(self, v: VertexId, p: Proposal) -> bool:
        """Record a committed vertex. Returns False on duplicate delivery."""
        existing = self.committed.get(v)
        if existing is not None:
            if existing != p:
                raise AgreementViolation(f"vertex {v}: {existing} vs {p}")
            return False
        self.committed[v] = p
        executed, deps = self.executed, p.deps
        if isinstance(deps, ExactDeps):
            rest = deps.vertices - self.executed_deps
            left = (dep for dep in rest if dep not in executed and dep != v)
        else:
            sparse = executed.sparse
            left = (dep for dep in deps.above(executed.low) if dep not in sparse and dep != v)
        self.waiting[v] = sorted(left, key=VertexId.sort_key)
        return True

    def mark_executed(self, v: VertexId) -> None:
        del self.waiting[v]
        self.executed.add(v)

    def deps_executed(self, vertices: Iterable[VertexId]) -> None:
        """The given executed vertices have every dep executed too; keep
        the largest exact set among them for add() to subtract."""
        for v in vertices:
            deps = self.committed[v].deps
            if isinstance(deps, ExactDeps) and len(deps.vertices) >= len(self.executed_deps):
                self.executed_deps = deps.vertices
