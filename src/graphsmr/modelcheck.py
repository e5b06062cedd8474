"""Explicit-state exhaustive checker for the abstract core of the protocol:
dependency-service replies (and noops) proposed to a per-vertex consensus
service.

The abstract state tracks, per dependency service node, the graph of
processed vertices; plus the proposed commands, the per-vertex proposal
sets, and the chosen proposals. Exploration is breadth-first with full-state
deduplication. Where the abstract model resolves a nondeterministic choice
with a single arbitrary pick, the checker branches over every candidate, so
it covers a superset of the modelled behaviours.

Checked on every reachable state:
  - dep-service-conflicts: conflicting commands with full quorum replies
    depend on each other, for every pair of quorums;
  - nontriviality: only proposed commands (or noop) are chosen;
  - chosen-conflicts: chosen conflicting commands depend on each other;
and across every transition:
  - consensus-consistency: a chosen vertex never changes.

On terminal states (no transition changes the state) the fairness
corollary is evaluated: if no noop was chosen, every command is chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

NOOP = "noop"

# a proposal is (cmd, deps) with cmd a command label or NOOP
ProposalT = tuple[str, frozenset]
NOOP_PROPOSAL: ProposalT = (NOOP, frozenset())


@dataclass(frozen=True)
class ModelConfig:
    commands: tuple[str, ...]
    conflicts: frozenset  # symmetric set of (cmd, cmd) pairs
    dep_nodes: int = 3
    quorum_size: int = 2
    vertex_bound: Optional[int] = None  # inclusive; defaults to len(commands)
    max_states: int = 5_000_000

    def __post_init__(self):
        if self.dep_nodes < 1:
            raise ValueError(f"need at least one dependency node, got {self.dep_nodes}")
        if not 1 <= self.quorum_size <= self.dep_nodes:
            raise ValueError(f"quorum_size must lie in [1, dep_nodes={self.dep_nodes}], "
                             f"got {self.quorum_size}")
        if NOOP in self.commands:
            raise ValueError(f"{NOOP!r} is reserved and cannot be a command")
        for a, b in self.conflicts:
            if (b, a) not in self.conflicts:
                raise ValueError("conflict relation must be symmetric")

    @property
    def vertices(self) -> range:
        bound = self.vertex_bound if self.vertex_bound is not None else len(self.commands)
        return range(bound + 1)

    @property
    def quorums(self) -> list[frozenset]:
        return [
            frozenset(q)
            for q in itertools.combinations(range(self.dep_nodes), self.quorum_size)
        ]


def full_conflicts(commands: Iterable[str]) -> frozenset:
    cmds = list(commands)
    return frozenset((a, b) for a in cmds for b in cmds if a != b)


def no_conflicts() -> frozenset:
    return frozenset()


def initial_state(cfg: ModelConfig):
    graphs = tuple(tuple(None for _ in cfg.vertices) for _ in range(cfg.dep_nodes))
    proposed = tuple(None for _ in cfg.vertices)
    proposals = tuple(frozenset() for _ in cfg.vertices)
    chosen = tuple(None for _ in cfg.vertices)
    return (graphs, 0, proposed, proposals, chosen)


def _dependencies(graph, cmd: str, conflicts) -> frozenset:
    return frozenset(
        v for v, entry in enumerate(graph) if entry is not None and (cmd, entry[0]) in conflicts
    )


def _quorum_reply(graphs, quorum, v) -> Optional[ProposalT]:
    deps: frozenset = frozenset()
    cmd = None
    for d in quorum:
        entry = graphs[d][v]
        if entry is None:
            return None
        cmd = entry[0]
        deps |= entry[1]
    return (cmd, deps)


def successors(state, cfg: ModelConfig):
    """Every enabled action applied to `state`, as (label, next_state)."""
    graphs, next_vid, proposed, proposals, chosen = state
    out = []

    proposed_cmds = {c for c in proposed if c is not None}
    if next_vid < len(cfg.vertices):
        for cmd in cfg.commands:
            if cmd in proposed_cmds:
                continue
            new_proposed = proposed[:next_vid] + (cmd,) + proposed[next_vid + 1 :]
            out.append(
                (
                    f"ProposeCommand({cmd})",
                    (graphs, next_vid + 1, new_proposed, proposals, chosen),
                )
            )

    for d in range(cfg.dep_nodes):
        graph = graphs[d]
        for v in cfg.vertices:
            if proposed[v] is None or graph[v] is not None:
                continue
            cmd = proposed[v]
            entry = (cmd, _dependencies(graph, cmd, cfg.conflicts))
            new_graph = graph[:v] + (entry,) + graph[v + 1 :]
            new_graphs = graphs[:d] + (new_graph,) + graphs[d + 1 :]
            out.append(
                (
                    f"DepServiceProcess(d{d}, v{v})",
                    (new_graphs, next_vid, proposed, proposals, chosen),
                )
            )

    for v in cfg.vertices:
        if NOOP_PROPOSAL not in proposals[v]:
            new_props = proposals[:v] + (proposals[v] | {NOOP_PROPOSAL},) + proposals[v + 1 :]
            out.append(
                (
                    f"ConsensusProposeNoop(v{v})",
                    (graphs, next_vid, proposed, new_props, chosen),
                )
            )

    for v in cfg.vertices:
        for q_idx, quorum in enumerate(cfg.quorums):
            reply = _quorum_reply(graphs, quorum, v)
            if reply is None or reply in proposals[v]:
                continue
            new_props = proposals[:v] + (proposals[v] | {reply},) + proposals[v + 1 :]
            out.append(
                (
                    f"ConsensusPropose(v{v}, Q{q_idx})",
                    (graphs, next_vid, proposed, new_props, chosen),
                )
            )

    for v in cfg.vertices:
        if chosen[v] is not None:
            continue
        # canonical key: frozensets order only by inclusion, not totally
        for g in sorted(proposals[v], key=lambda g: (g[0], tuple(sorted(g[1])))):
            new_chosen = chosen[:v] + (g,) + chosen[v + 1 :]
            out.append(
                (
                    f"ConsensusChoose(v{v}, {g[0]})",
                    (graphs, next_vid, proposed, proposals, new_chosen),
                )
            )

    return out


# -- invariants --------------------------------------------------------------


def dep_service_conflicts(state, cfg: ModelConfig) -> Optional[str]:
    graphs, _next_vid, _proposed, _proposals, _chosen = state
    replies: dict[tuple[int, int], Optional[ProposalT]] = {}
    for v in cfg.vertices:
        for qi, quorum in enumerate(cfg.quorums):
            replies[(v, qi)] = _quorum_reply(graphs, quorum, v)
    for v1 in cfg.vertices:
        for v2 in cfg.vertices:
            if v1 >= v2:
                continue
            for q1 in range(len(cfg.quorums)):
                r1 = replies[(v1, q1)]
                if r1 is None:
                    continue
                for q2 in range(len(cfg.quorums)):
                    r2 = replies[(v2, q2)]
                    if r2 is None:
                        continue
                    if (r1[0], r2[0]) in cfg.conflicts:
                        if v1 not in r2[1] and v2 not in r1[1]:
                            return (
                                f"quorum replies for v{v1} ({r1[0]}) and v{v2} "
                                f"({r2[0]}) conflict without an edge"
                            )
    return None


def nontriviality(state, cfg: ModelConfig) -> Optional[str]:
    _graphs, _next_vid, proposed, _proposals, chosen = state
    proposed_cmds = {c for c in proposed if c is not None}
    for v in cfg.vertices:
        g = chosen[v]
        if g is not None and g[0] != NOOP and g[0] not in proposed_cmds:
            return f"v{v} chose {g[0]}, which was never proposed"
    return None


def chosen_conflicts(state, cfg: ModelConfig) -> Optional[str]:
    _graphs, _next_vid, _proposed, _proposals, chosen = state
    for v1 in cfg.vertices:
        g1 = chosen[v1]
        if g1 is None:
            continue
        for v2 in cfg.vertices:
            if v2 <= v1:
                continue
            g2 = chosen[v2]
            if g2 is None:
                continue
            if (g1[0], g2[0]) in cfg.conflicts and v1 not in g2[1] and v2 not in g1[1]:
                return f"chosen conflicting v{v1} ({g1[0]}) and v{v2} ({g2[0]}) without an edge"
    return None


def consensus_consistency(before, after) -> Optional[str]:
    chosen_before = before[4]
    chosen_after = after[4]
    for v, (b, a) in enumerate(zip(chosen_before, chosen_after)):
        if b is not None and a != b:
            return f"chosen proposal for v{v} changed"
    return None


def no_noop(state) -> bool:
    return all(g is None or g[0] != NOOP for g in state[4])


def everything_chosen(state, cfg: ModelConfig) -> bool:
    chosen_cmds = {g[0] for g in state[4] if g is not None}
    return all(cmd in chosen_cmds for cmd in cfg.commands)


STATE_INVARIANTS = (
    ("DepServiceConflicts", dep_service_conflicts),
    ("Nontriviality", nontriviality),
    ("ChosenConflicts", chosen_conflicts),
)


@dataclass
class Counterexample:
    invariant: str
    detail: str
    trace: list[str]  # action labels from the initial state

    def __str__(self) -> str:
        steps = "\n".join(f"  {i + 1}. {a}" for i, a in enumerate(self.trace))
        return f"{self.invariant} violated: {self.detail}\ntrace:\n{steps}"


@dataclass
class Report:
    states: int
    transitions: int
    terminal_states: int
    violations: list[Counterexample]
    fairness_ok: bool
    fairness_detail: str
    complete: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.fairness_ok and self.complete

    def summary(self) -> str:
        lines = [
            f"states explored: {self.states}",
            f"transitions: {self.transitions}",
            f"terminal states: {self.terminal_states}",
            f"complete: {self.complete}",
        ]
        if self.violations:
            lines.append(f"violations: {len(self.violations)}")
            lines.append(str(self.violations[0]))
        else:
            lines.append("violations: none")
        lines.append(
            "fairness corollary (no noop chosen => everything chosen): "
            + ("holds" if self.fairness_ok else f"FAILS: {self.fairness_detail}")
        )
        return "\n".join(lines)


def explore(cfg: ModelConfig) -> Report:
    """BFS over the reachable abstract state space, checking every invariant
    on every state and the fairness corollary on terminal states."""
    init = initial_state(cfg)
    parents: dict = {init: None}
    frontier = [init]
    violations: list[Counterexample] = []
    transitions = 0
    terminal_states = 0
    fairness_ok = True
    fairness_detail = ""
    complete = True

    def trace_to(state) -> list[str]:
        labels = []
        while parents[state] is not None:
            prev, label = parents[state]
            labels.append(label)
            state = prev
        return list(reversed(labels))

    for name, check in STATE_INVARIANTS:
        detail = check(init, cfg)
        if detail:
            violations.append(Counterexample(name, detail, []))

    while frontier:
        if len(parents) > cfg.max_states:
            complete = False
            break
        # the level that found a violation holds its shortest traces; deeper
        # levels would only add longer ones
        if violations:
            break
        next_frontier = []
        for state in frontier:
            succ = successors(state, cfg)
            terminal = True
            for label, nxt in succ:
                transitions += 1
                if nxt == state:
                    continue
                terminal = False
                detail = consensus_consistency(state, nxt)
                if detail:
                    violations.append(
                        Counterexample(
                            "ConsensusConsistency", detail, trace_to(state) + [label]
                        )
                    )
                if nxt in parents:
                    continue
                parents[nxt] = (state, label)
                for name, check in STATE_INVARIANTS:
                    detail = check(nxt, cfg)
                    if detail:
                        violations.append(
                            Counterexample(name, detail, trace_to(nxt))
                        )
                next_frontier.append(nxt)
            if terminal:
                terminal_states += 1
                if no_noop(state) and not everything_chosen(state, cfg):
                    fairness_ok = False
                    fairness_detail = (
                        "terminal state with no noop chosen but some command "
                        "unchosen; trace: " + " -> ".join(trace_to(state))
                    )
        frontier = next_frontier

    return Report(
        states=len(parents),
        transitions=transitions,
        terminal_states=terminal_states,
        violations=violations,
        fairness_ok=fairness_ok,
        fairness_detail=fairness_detail,
        complete=complete,
    )


def reachable_chosen_assignments(cfg: ModelConfig) -> set:
    """All reachable values of the chosen map, as frozensets of
    (vertex, cmd, deps). Used to cross-check executable-protocol outcomes
    against the abstract model."""
    report_states: set = set()
    init = initial_state(cfg)
    seen = {init}
    stack = [init]
    while stack:
        state = stack.pop()
        chosen = state[4]
        report_states.add(
            frozenset((v, g[0], g[1]) for v, g in enumerate(chosen) if g is not None)
        )
        for _label, nxt in successors(state, cfg):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return report_states
