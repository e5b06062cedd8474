"""Dependency service node: answers "which previously seen vertices conflict
with this command" while guaranteeing that any two conflicting commands seen
by the same node end up ordered (the later one depends on the earlier one).
"""

from __future__ import annotations

from typing import Iterator, Union

from .core import Batch, Command, CompactDeps, Deps, ExactDeps, VertexId, key_access
from .messages import DepReply, DepRequest, Effect, Message, Send


class DepServiceNode:
    """One of the 2f+1 dependency service nodes.

    State is a per-key index of stored commands, split into reads and writes
    so a read's dependencies are only the prior writes on its key. Replies
    are cached per vertex: a re-delivered request gets the original answer,
    which keeps replies stable under leader retries.

    Without compaction each index row is the set of stored vertices. With
    compaction a reply is one watermark per leader (the highest conflicting
    seq, with the whole prefix below it artificially added), so a row is
    itself compact deps covering the vertices stored on it: O(keys x
    leaders) state, and a reply is the union of the rows it reads.
    """

    def __init__(self, name: str, num_leaders: int, compact: bool = False) -> None:
        self.name = name
        self.num_leaders = num_leaders
        self.compact = compact
        self._writes: dict[bytes, Union[set[VertexId], CompactDeps]] = {}
        self._reads: dict[bytes, Union[set[VertexId], CompactDeps]] = {}
        self.reply_cache: dict[VertexId, Deps] = {}

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
            return cached

        access = key_access(cmd)
        deps: Deps
        if self.compact:
            deps = CompactDeps.covering((), self.num_leaders)
            for row in self._conflicting_rows(access):
                deps = deps.union(row)
            mine = CompactDeps.covering((v,), self.num_leaders)
            for key, is_write in access.items():
                index = self._writes if is_write else self._reads
                row = index.get(key)
                index[key] = mine if row is None else row.union(mine)
        else:
            conflicting: set[VertexId] = set()
            for row in self._conflicting_rows(access):
                conflicting |= row
            conflicting.discard(v)
            deps = ExactDeps(frozenset(conflicting))
            for key, is_write in access.items():
                index = self._writes if is_write else self._reads
                index.setdefault(key, set()).add(v)
        self.reply_cache[v] = deps
        return deps

    def on_message(self, src: str, msg: Message, now: float) -> list[Effect]:
        assert isinstance(msg, DepRequest)
        deps = self.handle_dep_request(msg.v, msg.cmd)
        return [Send(src, DepReply(msg.v, msg.cmd, deps))]

    def on_timer(self, key: tuple, now: float) -> list[Effect]:
        return []
