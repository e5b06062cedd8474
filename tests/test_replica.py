import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fuzz_helpers import conflicts, reference_execute_eligible
from graphsmr.consensus import Proposer
from graphsmr.core import (
    Batch,
    Command,
    CompactDeps,
    EMPTY_DEPS,
    ExactDeps,
    Get,
    NOOP,
    Proposal,
    Set,
    VertexId,
)
from graphsmr.harness.mutations import Mutations
from graphsmr.messages import ClientResponse, Phase1a, Send, SetTimer
from graphsmr.replica import (
    ClientTable,
    ExecEvent,
    Replica,
    ReplicaPanic,
    SET_ACK,
    _tarjan_sccs,
)
from graphsmr.messages import Note


def make_replica(index=0, n=1, **kw):
    return Replica(f"rep-{index}", index, n, **kw)


def exact(*vs):
    return ExactDeps(frozenset(vs))


def execs(effects, applied=None):
    out = [e.event for e in effects if isinstance(e, Note) and isinstance(e.event, ExecEvent)]
    if applied is not None:
        out = [e for e in out if e.applied == applied]
    return out


V0, V1, V2 = VertexId(0, 0), VertexId(1, 0), VertexId(0, 1)


class TestExampleExecution:
    """The three-command walk: a<-0 runs immediately, a<-b waits for its
    missing dependency, then b<-0 unblocks both."""

    def test_full_scenario(self):
        rep = make_replica()
        p_a0 = Proposal(Command("c1", 1, Set(b"a", b"0")), EMPTY_DEPS)
        p_ab = Proposal(Command("c2", 1, Set(b"a", b"0")), exact(V0, V1))
        p_b0 = Proposal(Command("c3", 1, Set(b"b", b"0")), EMPTY_DEPS)

        out = rep.commit(V0, p_a0, 0.0)
        assert [e.v for e in execs(out)] == [V0]
        assert rep.kv == {b"a": b"0"}

        out = rep.commit(V2, p_ab, 1.0)
        assert execs(out) == []  # V1 not yet chosen

        out = rep.commit(V1, p_b0, 2.0)
        assert [e.v for e in execs(out)] == [V1, V2]
        assert rep.kv == {b"a": b"0", b"b": b"0"}


class TestCycleExecution:
    def test_scc_executes_as_one_batch_in_vertex_order(self):
        rep = make_replica()
        vx, vy, vz = VertexId(0, 0), VertexId(1, 0), VertexId(2, 0)
        rep.commit(vx, Proposal(Command("c1", 1, Set(b"k", b"x")), EMPTY_DEPS), 0.0)
        out = rep.commit(
            vy, Proposal(Command("c2", 1, Set(b"k", b"y")), exact(vx, vz)), 1.0
        )
        assert execs(out) == []
        out = rep.commit(
            vz, Proposal(Command("c3", 1, Set(b"k", b"z")), exact(vy)), 2.0
        )
        # vy and vz form a cycle; executed together, vertex id order
        assert [e.v for e in execs(out)] == [vy, vz]
        assert rep.kv == {b"k": b"z"}


def test_chain_executes_in_reverse_topological_order():
    rep = make_replica()
    va, vb, vc = VertexId(0, 0), VertexId(0, 1), VertexId(0, 2)
    pa = Proposal(Command("c", 1, Set(b"k", b"a")), EMPTY_DEPS)
    pb = Proposal(Command("c", 2, Set(b"k", b"b")), exact(va))
    pc = Proposal(Command("c", 3, Set(b"k", b"c")), exact(vb))
    rep.graph.add(vc, pc)
    rep.graph.add(vb, pb)
    rep.graph.add(va, pa)
    out = rep.execute_eligible()
    assert [e.v for e in execs(out)] == [va, vb, vc]
    assert rep.kv[b"k"] == b"c"


def test_self_edge_from_compact_deps_is_dropped():
    from graphsmr.core import CompactDeps

    rep = make_replica()
    v = VertexId(0, 0)
    # watermark covers the vertex's own id; must not deadlock on itself
    p = Proposal(Command("c", 1, Set(b"k", b"v")), CompactDeps((0,)))
    out = rep.commit(v, p, 0.0)
    assert [e.v for e in execs(out)] == [v]


def test_waiting_lists_unexecuted_deps_in_vertex_order():
    from graphsmr.core import CompactDeps

    rep = make_replica()
    cmd = Command("c", 1, Get(b"k"))
    rep.commit(VertexId(0, 0), Proposal(cmd, EMPTY_DEPS), 0.0)
    v = VertexId(1, 3)
    deps = exact(VertexId(1, 1), VertexId(0, 0), VertexId(0, 2), VertexId(1, 0))
    rep.commit(v, Proposal(cmd, deps), 1.0)
    assert rep.graph.waiting[v] == [VertexId(1, 0), VertexId(1, 1), VertexId(0, 2)]
    # compact deps covering their own vertex do not list it
    w = VertexId(1, 2)
    rep.commit(w, Proposal(cmd, CompactDeps((1, 2))), 2.0)
    assert rep.graph.waiting[w] == [VertexId(1, 0), VertexId(0, 1), VertexId(1, 1)]
    for u in (VertexId(1, 0), VertexId(0, 1), VertexId(1, 1), VertexId(0, 2)):
        rep.commit(u, Proposal(cmd, EMPTY_DEPS), 3.0)
    assert rep.graph.waiting == {}
    assert len(rep.graph.executed) == len(rep.graph.committed) == 7


def test_execute_eligible_edge_lookups_do_not_grow_with_history():
    def lookups(executed):
        rep = make_replica()
        done = [VertexId(0, i) for i in range(executed)]
        for i, v in enumerate(done):
            rep.commit(v, Proposal(Command("c", i + 1, Get(b"k")), EMPTY_DEPS), 0.0)
        # blocked on one uncommitted vertex, and on everything executed
        blocked = Proposal(Command("d", 1, Set(b"k", b"v")), exact(VertexId(1, 0), *done))
        rep.commit(VertexId(1, 1), blocked, 1.0)
        edges_of = rep._waiting_on
        sizes = []

        def counted(v):
            edges = edges_of(v)
            sizes.append(len(edges))
            return edges

        rep._waiting_on = counted
        assert execs(rep.execute_eligible()) == []
        return sizes  # one entry per lookup: the edges it returned

    assert lookups(10) == lookups(1000)


def test_duplicate_commit_same_proposal_is_noop():
    rep = make_replica()
    p = Proposal(Command("c", 1, Set(b"a", b"1")), EMPTY_DEPS)
    rep.commit(V0, p, 0.0)
    out = rep.commit(V0, p, 1.0)
    assert execs(out) == []
    assert rep.kv == {b"a": b"1"}


def test_conflicting_duplicate_commit_panics():
    rep = make_replica()
    rep.commit(V0, Proposal(Command("c", 1, Set(b"a", b"1")), EMPTY_DEPS), 0.0)
    with pytest.raises(ReplicaPanic):
        rep.commit(V0, Proposal(Command("c", 2, Set(b"a", b"2")), EMPTY_DEPS), 1.0)


class TestClientTable:
    def test_replay_cached_output_for_highest_id(self):
        rep = make_replica()
        cmd = Command("10.31.14.41", 2, Get(b"foo"))
        rep.kv[b"foo"] = b"foo-value"
        rep.commit(V0, Proposal(cmd, EMPTY_DEPS), 0.0)
        out = rep.commit(V1, Proposal(cmd, EMPTY_DEPS), 1.0)
        [ev] = execs(out)
        assert not ev.applied
        assert ev.output == b"foo-value"
        responses = [e for e in out if isinstance(e, Send)]
        assert responses == [
            Send(
                "10.31.14.41",
                ClientResponse("10.31.14.41", 2, True, b"foo-value"),
            )
        ]

    def test_older_id_still_executes(self):
        # the naive largest-id-only rule would wrongly skip seq 1 here
        rep = make_replica()
        y = Command("c", 2, Set(b"y", b"1"))
        x = Command("c", 1, Set(b"x", b"1"))
        rep.commit(V0, Proposal(y, EMPTY_DEPS), 0.0)
        out = rep.commit(V1, Proposal(x, EMPTY_DEPS), 1.0)
        [ev] = execs(out)
        assert ev.applied
        assert rep.kv == {b"y": b"1", b"x": b"1"}

    def test_largest_only_mutation_skips_older_id(self):
        rep = make_replica()
        Mutations(client_table_largest_only=True).apply({rep.name: rep})
        rep.commit(V0, Proposal(Command("c", 2, Set(b"y", b"1")), EMPTY_DEPS), 0.0)
        out = rep.commit(V1, Proposal(Command("c", 1, Set(b"x", b"1")), EMPTY_DEPS), 1.0)
        [ev] = execs(out)
        assert not ev.applied
        assert b"x" not in rep.kv

    def test_stale_duplicate_gets_unavailable_response(self):
        rep = make_replica()
        rep.commit(V0, Proposal(Command("c", 1, Set(b"a", b"1")), EMPTY_DEPS), 0.0)
        rep.commit(V1, Proposal(Command("c", 2, Set(b"b", b"1")), EMPTY_DEPS), 1.0)
        out = rep.commit(V2, Proposal(Command("c", 1, Set(b"a", b"1")), EMPTY_DEPS), 2.0)
        [send] = [e for e in out if isinstance(e, Send)]
        assert send.msg == ClientResponse("c", 1, False, None)

    def test_watermark_absorbs_sparse_ids(self):
        table = ClientTable()
        for seq in (2, 3, 1):
            table.record("c", seq, b"out")
        assert table.executed.low == {"c": 3} and table.executed.sparse == set()

    def test_noop_has_no_effect_and_no_output(self):
        rep = make_replica()
        out = rep.commit(V0, Proposal(NOOP, EMPTY_DEPS), 0.0)
        [ev] = execs(out)
        assert not ev.applied and ev.output is None
        assert rep.kv == {}
        assert [e for e in out if isinstance(e, Send)] == []


class TestOwnership:
    def test_single_replica_always_responds(self):
        rep = make_replica(index=0, n=1)
        out = rep.commit(V0, Proposal(Command("c", 1, Get(b"k")), EMPTY_DEPS), 0.0)
        assert [e for e in out if isinstance(e, Send)]

    def test_exactly_one_of_two_replicas_responds(self):
        for seq in range(20):
            v = VertexId(0, seq)
            cmd = Command("c", seq + 1, Get(b"k"))
            responders = []
            for i in range(2):
                rep = make_replica(index=i, n=2)
                out = rep.commit(v, Proposal(cmd, EMPTY_DEPS), 0.0)
                if [e for e in out if isinstance(e, Send)]:
                    responders.append(i)
            assert len(responders) == 1

    def test_batch_vertex_one_response_per_command_from_owner(self):
        v = VertexId(0, 0)
        owner = v.owner_replica(2)
        batch = Batch(
            (Command("c1", 1, Set(b"a", b"1")), Command("c2", 1, Get(b"a")))
        )
        rep = make_replica(index=owner, n=2)
        out = rep.commit(v, Proposal(batch, EMPTY_DEPS), 0.0)
        sends = [e.msg for e in out if isinstance(e, Send)]
        assert sends == [
            ClientResponse("c1", 1, True, SET_ACK),
            ClientResponse("c2", 1, True, b"1"),
        ]
        other = make_replica(index=1 - owner, n=2)
        out = other.commit(v, Proposal(batch, EMPTY_DEPS), 0.0)
        assert [e for e in out if isinstance(e, Send)] == []


class TestRecoveryTimers:
    def test_commit_with_missing_dep_arms_timer(self):
        from graphsmr.messages import SetTimer

        rep = make_replica()
        out = rep.commit(
            V0, Proposal(Command("c", 1, Set(b"a", b"1")), exact(V1)), 0.0
        )
        timers = [e for e in out if isinstance(e, SetTimer)]
        assert timers and timers[0].key == ("recover", V1)

    def test_tick_after_commit_is_cancelled(self):
        rep = make_replica()
        rep.commit(V0, Proposal(Command("c", 1, Set(b"a", b"1")), exact(V1)), 0.0)
        rep.commit(V1, Proposal(Command("d", 1, Set(b"a", b"2")), EMPTY_DEPS), 1.0)
        assert rep.recovery_tick(V1, 100.0) == []

    def test_tick_for_stuck_vertex_proposes_noop(self):
        from graphsmr.consensus import Proposer
        from graphsmr.messages import Phase1a

        rec = Proposer(
            "rep-0", index=2, num_main_proposers=2, num_total_proposers=3,
            f=1, acceptors=["acc-0", "acc-1", "acc-2"], replicas=["rep-0"],
            rng=random.Random(5),
        )
        rep = make_replica(recovery_proposer=rec)
        rep.commit(V0, Proposal(Command("c", 1, Set(b"a", b"1")), exact(V1)), 0.0)
        out = rep.on_timer(("recover", V1), 100.0)
        p1as = [e.msg for e in out if isinstance(e, Send) and isinstance(e.msg, Phase1a)]
        assert len(p1as) == 3
        assert p1as[0].round >= 1


class TestCommitGapRepair:
    """A replica recovers each seq that a later commit of the same leader
    revealed and that is still uncommitted a recovery timeout later."""

    @staticmethod
    def make():
        rec = Proposer(
            "rep-0", index=2, num_main_proposers=2, num_total_proposers=3,
            f=1, acceptors=["acc-0", "acc-1", "acc-2"], replicas=["rep-0"],
            rng=random.Random(5),
        )
        return make_replica(recovery_proposer=rec)

    @staticmethod
    def commit(rep, leader, seq):
        p = Proposal(Command("c", 10 * leader + seq, Set(b"k%d" % seq, b"v")), EMPTY_DEPS)
        return rep.commit(VertexId(leader, seq), p, 0.0)

    @staticmethod
    def gap_timers(effects):
        return [e.key for e in effects if isinstance(e, SetTimer) and e.key[0] == "commit-gap"]

    @staticmethod
    def recovered(effects):
        return sorted({e.msg.v for e in effects
                       if isinstance(e, Send) and isinstance(e.msg, Phase1a)})

    def test_one_gap_timer_per_leader(self):
        rep = self.make()
        armed = [key for leader, seq in ((0, 2), (0, 4), (1, 1), (0, 3), (1, 3))
                 for key in self.gap_timers(self.commit(rep, leader, seq))]
        assert armed == [("commit-gap", 0, 2), ("commit-gap", 1, 1)]

    def test_only_seqs_below_the_key_are_recovered(self):
        rep = self.make()
        self.commit(rep, 0, 2)
        self.commit(rep, 0, 5)
        out = rep.on_timer(("commit-gap", 0, 2), 100.0)
        assert self.recovered(out) == [VertexId(0, 0), VertexId(0, 1)]
        assert self.gap_timers(out) == [("commit-gap", 0, 5)]
        # (0, 0) and (0, 1) are recovering already; (0, 3) and (0, 4) now are
        out = rep.on_timer(("commit-gap", 0, 5), 200.0)
        assert self.recovered(out) == [VertexId(0, 3), VertexId(0, 4)]
        assert self.gap_timers(out) == [("commit-gap", 0, 5)]

    def test_gap_closed_in_time_recovers_nothing(self):
        rep = self.make()
        self.commit(rep, 0, 1)
        self.commit(rep, 0, 0)
        assert rep.on_timer(("commit-gap", 0, 1), 100.0) == []
        assert rep.recovery_attempts == {}


# --- property: commit order never changes outcomes -----------------------


def _kosaraju_sccs(vertices, edges):
    """Independent SCC oracle (Kosaraju's algorithm)."""
    order = []
    visited = set()

    def dfs1(v):
        stack = [(v, iter(edges.get(v, ())))]
        visited.add(v)
        while stack:
            node, it = stack[-1]
            advanced = False
            for w in it:
                if w not in visited:
                    visited.add(w)
                    stack.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    for v in vertices:
        if v not in visited:
            dfs1(v)

    reverse: dict = {}
    for v, ws in edges.items():
        for w in ws:
            reverse.setdefault(w, []).append(v)
    comp: dict = {}
    for v in reversed(order):
        if v in comp:
            continue
        group = []
        stack = [v]
        comp[v] = v
        while stack:
            node = stack.pop()
            group.append(node)
            for w in reverse.get(node, ()):
                if w not in comp:
                    comp[w] = v
                    stack.append(w)
        yield group


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tarjan_matches_kosaraju(data):
    n = data.draw(st.integers(1, 9))
    vertices = [VertexId(0, i) for i in range(n)]
    edges = {
        v: [w for w in vertices if w != v and data.draw(st.booleans())]
        for v in vertices
    }
    ours = {frozenset(c) for c in _tarjan_sccs(vertices, lambda v: edges[v])}
    oracle = {frozenset(c) for c in _kosaraju_sccs(vertices, edges)}
    assert ours == oracle


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_commit_order_does_not_change_state_or_conflict_order(data):
    """Build a random committed graph through a sequential dependency-service
    oracle, feed it to two replicas in different commit orders, and require
    identical kv state plus identical relative order of conflicting pairs."""
    n = data.draw(st.integers(2, 8))
    keys = [b"x", b"y"]
    cmds = []
    for i in range(n):
        op = data.draw(
            st.one_of(
                st.builds(Set, st.sampled_from(keys), st.just(str(i).encode())),
                st.builds(Get, st.sampled_from(keys)),
            )
        )
        cmds.append(Command(f"c{i}", 1, op))

    # sequential dep service: each vertex depends on all prior conflicting
    vertices = [VertexId(i % 2, i // 2) for i in range(n)]
    proposals = {}
    for i, (v, cmd) in enumerate(zip(vertices, cmds)):
        deps = frozenset(
            vertices[j] for j in range(i) if conflicts(cmds[j], cmd)
        )
        proposals[v] = Proposal(cmd, ExactDeps(deps))

    order1 = data.draw(st.permutations(vertices))
    order2 = data.draw(st.permutations(vertices))

    results = []
    for order in (order1, order2):
        rep = make_replica()
        events = []
        for v in order:
            events.extend(execs(rep.commit(v, proposals[v], 0.0), applied=True))
        results.append((dict(rep.kv), [(e.v, e.position) for e in events]))

    kv1, ex1 = results[0]
    kv2, ex2 = results[1]
    assert kv1 == kv2
    pos1 = {v: p for v, p in ex1}
    pos2 = {v: p for v, p in ex2}
    assert set(pos1) == set(pos2)
    for va, vb in itertools.combinations(pos1, 2):
        if conflicts(proposals[va].cmd, proposals[vb].cmd):
            assert (pos1[va] < pos1[vb]) == (pos2[va] < pos2[vb])
    # prefix discipline: these graphs are acyclic (deps point strictly at
    # earlier vertices), so every dependency must execute first
    for pos in (pos1, pos2):
        for v, p in proposals.items():
            for dep in p.deps.expand():
                assert pos[dep] < pos[v]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_execution_matches_full_traversal_oracle(data):
    """Random committed graphs of exact and compact deps, with cycles and
    deps that are never committed, delivered in random orders (some twice):
    every commit() returns the same effects, call by call, as on a replica
    whose execute_eligible runs Tarjan over every waiting vertex, so a
    commit that runs alone or parks without a traversal leaves nothing
    eligible behind."""
    universe = [VertexId(i % 3, i // 3) for i in range(data.draw(st.integers(1, 12)))]
    committed = data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    exact_deps = st.lists(st.sampled_from(universe), max_size=4).map(
        lambda vs: ExactDeps(frozenset(vs))
    )
    compact_deps = st.lists(
        st.one_of(st.none(), st.integers(0, 3)), min_size=3, max_size=3
    ).map(lambda ws: CompactDeps(tuple(ws)))
    proposals = {
        v: Proposal(
            Command(f"c{n}", 1, Set(data.draw(st.sampled_from([b"x", b"y"])), bytes([n]))),
            data.draw(st.one_of(exact_deps, compact_deps)),
        )
        for n, v in enumerate(committed)
    }
    order = data.draw(st.permutations(committed))
    order += data.draw(st.lists(st.sampled_from(committed), max_size=3))

    rep, oracle = make_replica(), make_replica()
    oracle.execute_eligible = lambda: reference_execute_eligible(oracle)
    for v in order:
        assert rep.commit(v, proposals[v], 0.0) == oracle.commit(v, proposals[v], 0.0)
    assert rep.kv == oracle.kv

    def unexecuted(replica):
        # a waiting list drops its executed deps only when it is next read
        # (Replica._waiting_on), which the oracle does for every list
        executed = replica.graph.executed
        return {v: [dep for dep in deps if dep not in executed]
                for v, deps in replica.graph.waiting.items()}

    assert unexecuted(rep) == unexecuted(oracle)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_waiting_list_matches_a_plain_set_oracle(data):
    """Random exact or compact dependency graphs, with cycles and deps that
    are never committed, committed in random orders: right after each add,
    a vertex waits on exactly its deps that a plain set of the executed ids
    lacks, less itself, in vertex order. The executed exact deps that add()
    subtracts whole never hold a vertex that has not executed."""
    universe = [VertexId(i % 3, i // 3) for i in range(data.draw(st.integers(1, 12)))]
    committed = data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    if data.draw(st.booleans(), label="exact"):
        dep_sets = st.lists(st.sampled_from(universe), max_size=6).map(
            lambda vs: ExactDeps(frozenset(vs))
        )
    else:
        dep_sets = st.lists(
            st.one_of(st.none(), st.integers(0, 3)), min_size=3, max_size=3
        ).map(lambda ws: CompactDeps(tuple(ws)))
    proposals = {
        v: Proposal(Command(f"c{n}", 1, Set(b"x", bytes([n]))), data.draw(dep_sets))
        for n, v in enumerate(committed)
    }
    rep, executed = make_replica(), set()
    add = rep.graph.add

    def checked_add(v, p):
        fresh = add(v, p)
        want = sorted(p.deps.expand() - executed - {v}, key=VertexId.sort_key)
        assert rep.graph.waiting[v] == want
        return fresh

    rep.graph.add = checked_add
    for v in data.draw(st.permutations(committed)):
        executed.update(e.v for e in execs(rep.commit(v, proposals[v], 0.0)))
        assert rep.graph.executed_deps <= executed
    assert executed == set(rep.graph.committed) - set(rep.graph.waiting)
