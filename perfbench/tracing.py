"""In-memory spans recorded around the calls into each layer.

A span is [name id, start ns, end ns, parent index]; the parent is the span
that was open when this one started, or -1. Spans nest strictly (the
simulator is single-threaded), so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable

from graphsmr.consensus import Acceptor, Proposer
from graphsmr.depservice import DepServiceNode
from graphsmr.harness import ClosedLoopClient
from graphsmr.leader import Leader
from graphsmr.replica import Replica

LAYER_OF = {
    Leader: "leader",
    DepServiceNode: "depservice",
    Proposer: "consensus.proposer",
    Acceptor: "consensus.acceptor",
    Replica: "replica",
    ClosedLoopClient: "cluster.client",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._open: list[int] = []
        # replica.execute_eligible: calls, vertices executed, and the
        # committed-but-unexecuted backlog summed over calls
        self.exec_calls = 0
        self.exec_vertices = 0
        self.exec_backlog = 0
        self.cached_dep_replies = 0
        self.delivered: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _start(self, nid: int) -> list[int]:
        rec = [nid, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _end(self, rec: list[int]) -> None:
        self._open.pop()
        rec[2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        rec = self._start(self._name_id(name))
        try:
            yield
        finally:
            self._end(rec)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            rec = self._start(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)

        return traced

    # -- instrumentation -----------------------------------------------------

    def instrument(self, roles: dict[str, object]) -> None:
        """Wrap the public entry points of every role instance. Instance
        attributes shadow the class methods, so the simulator and the roles'
        own self-calls go through the wrappers."""
        for node, role in roles.items():
            layer = LAYER_OF[type(role)]
            role.on_message = self._delivery_recorder(
                node, self.wrap(f"{layer}.on_message", role.on_message)
            )
            role.on_timer = self.wrap(f"{layer}.on_timer", role.on_timer)
            if isinstance(role, Replica):
                role.execute_eligible = self._execute_counter(
                    role, self.wrap("replica.execute_eligible", role.execute_eligible)
                )
                recovery = role.recovery
                if recovery is not None:
                    for method in ("on_message", "on_timer", "propose"):
                        setattr(
                            recovery,
                            method,
                            self.wrap(
                                f"consensus.recovery.{method}", getattr(recovery, method)
                            ),
                        )
            elif isinstance(role, DepServiceNode):
                role.handle_dep_request = self._cache_counter(
                    role,
                    self.wrap("depservice.handle_dep_request", role.handle_dep_request),
                )

    def _delivery_recorder(self, dst: str, on_message: Callable) -> Callable:
        delivered = self.delivered

        def recorded(src, msg, now):
            delivered.append((src, dst, msg))
            return on_message(src, msg, now)

        return recorded

    def _execute_counter(self, replica: Replica, execute: Callable) -> Callable:
        graph = replica.graph

        def counted():
            before = len(graph.executed)
            self.exec_calls += 1
            self.exec_backlog += len(graph.committed) - before
            out = execute()
            self.exec_vertices += len(graph.executed) - before
            return out

        return counted

    def _cache_counter(self, node: DepServiceNode, handle: Callable) -> Callable:
        def counted(v, cmd):
            if v in node.reply_cache:
                self.cached_dep_replies += 1
            return handle(v, cmd)

        return counted

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, inclusive ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            acc = out.setdefault(self.names[nid], [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[i]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**extra, "span_fields": ["name", "start_ns", "end_ns", "parent"],
                 "names": self.names, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
