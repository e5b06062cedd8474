"""Dependency service node: answers "which previously seen vertices conflict
with this command" while guaranteeing that any two conflicting commands seen
by the same node end up ordered (the later one depends on the earlier one).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Union

from .core import Batch, Command, CompactDeps, Deps, ExactDeps, VertexId, key_access
from .messages import DepReply, DepRequest, Effect, Message, Send


# An exact-mode reply record: each index row the answer read, with its
# length then. Rows only grow, in insertion order, so the prefixes hold
# exactly the vertices of the answer.
Prefixes = tuple[tuple[dict[VertexId, None], int], ...]


class DepServiceNode:
    """One of the 2f+1 dependency service nodes.

    State is a per-key index of stored commands, split into reads and writes
    so a read's dependencies are only the prior writes on its key. Every
    answered vertex has an entry in reply_cache, so a re-delivered request
    gets the original answer, which keeps replies stable under leader
    retries.

    Without compaction each index row holds its stored vertices in insertion
    order (a dict with None values), and reply_cache[v] records each row v's
    answer read and how long it was then: O(keys) per answered vertex, not
    a copy of the set. A re-delivered request rebuilds the identical set
    from those prefixes. With compaction a reply is one watermark per
    leader (the highest conflicting seq, with the whole prefix below it
    artificially added), so a row is itself compact deps covering the
    vertices stored on it: O(keys x leaders) state, a reply is the union of
    the rows it reads, and reply_cache keeps the reply itself.
    """

    def __init__(self, name: str, num_leaders: int, compact: bool = False) -> None:
        self.name = name
        self.num_leaders = num_leaders
        self.compact = compact
        self._writes: dict[bytes, Union[dict[VertexId, None], CompactDeps]] = {}
        self._reads: dict[bytes, Union[dict[VertexId, None], CompactDeps]] = {}
        self.reply_cache: dict[VertexId, Union[CompactDeps, Prefixes]] = {}

    def _conflicting_rows(self, access: dict[bytes, bool]) -> Iterator:
        """The index rows a request reads: the writes on each key it
        touches, and the reads on each key it writes."""
        for key, is_write in access.items():
            row = self._writes.get(key)
            if row is not None:
                yield row
            if is_write:
                row = self._reads.get(key)
                if row is not None:
                    yield row

    def handle_dep_request(self, v: VertexId, cmd: Union[Command, Batch]) -> Deps:
        cached = self.reply_cache.get(v)
        if cached is not None:
            if self.compact:
                return cached
            prefixes = (islice(row, n) for row, n in cached)
            return ExactDeps(frozenset().union(*prefixes))

        access = key_access(cmd)
        deps: Deps
        if self.compact:
            deps = CompactDeps.covering((), self.num_leaders)
            for row in self._conflicting_rows(access):
                deps = deps.union(row)
            self.reply_cache[v] = deps
            mine = CompactDeps.covering((v,), self.num_leaders)
            for key, is_write in access.items():
                index = self._writes if is_write else self._reads
                row = index.get(key)
                index[key] = mine if row is None else row.union(mine)
        else:
            # v joins no row before its answer is recorded, so no row read
            # holds it
            rows = tuple(self._conflicting_rows(access))
            deps = ExactDeps(frozenset().union(*rows))
            self.reply_cache[v] = tuple((row, len(row)) for row in rows)
            for key, is_write in access.items():
                index = self._writes if is_write else self._reads
                index.setdefault(key, {})[v] = None
        return deps

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        assert isinstance(msg, DepRequest)
        deps = self.handle_dep_request(msg.v, msg.cmd)
        return [Send(src, DepReply(msg.v, msg.cmd, deps))]

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        return []
