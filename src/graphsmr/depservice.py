"""Dependency service node: answers "which previously seen vertices conflict
with this command" while guaranteeing that any two conflicting commands seen
by the same node end up ordered (the later one depends on the earlier one).
"""

from __future__ import annotations

from typing import Union

from .core import Batch, Command, CompactDeps, Deps, ExactDeps, VertexId, footprint
from .messages import DepReply, DepRequest, Effect, Message, Send


class DepServiceNode:
    """One of the 2f+1 dependency service nodes.

    State is a per-key index of stored commands, split into reads and writes
    so a read's dependencies are only the prior writes on its key. Replies
    are cached per vertex: a re-delivered request gets the original answer,
    which keeps replies stable under leader retries.

    With compaction enabled the node still stores exact entries; only the
    reply is compacted into one per-leader watermark (the highest conflicting
    sequence per leader, with the whole prefix below it artificially added).
    """

    def __init__(self, name: str, num_leaders: int, compact: bool = False) -> None:
        self.name = name
        self.num_leaders = num_leaders
        self.compact = compact
        self._writes: dict[bytes, set[VertexId]] = {}
        self._reads: dict[bytes, set[VertexId]] = {}
        self.reply_cache: dict[VertexId, Deps] = {}

    def handle_dep_request(self, v: VertexId, cmd: Union[Command, Batch]) -> Deps:
        cached = self.reply_cache.get(v)
        if cached is not None:
            return cached

        conflicting: set[VertexId] = set()
        for key, is_write in footprint(cmd):
            conflicting |= self._writes.get(key, set())
            if is_write:
                conflicting |= self._reads.get(key, set())
        conflicting.discard(v)

        deps: Deps
        if self.compact:
            deps = CompactDeps.covering(conflicting, self.num_leaders)
        else:
            deps = ExactDeps(frozenset(conflicting))

        for key, is_write in footprint(cmd):
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
