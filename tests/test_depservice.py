import itertools

from hypothesis import given, strategies as st

from fuzz_helpers import conflicts
from graphsmr.core import (
    Batch,
    Command,
    CompactDeps,
    ExactDeps,
    Get,
    Set,
    VertexId,
)
from graphsmr.depservice import DepServiceNode
from graphsmr.messages import DepReply, DepRequest, Send


def wr(key=b"k"):
    # fresh write command factory; client identity is irrelevant here
    counter = itertools.count(1)

    def make(seq=None):
        return Command("c", seq if seq is not None else next(counter), Set(key, b"v"))

    return make


def test_five_command_state_exact_mode():
    # commands a..e at (0,1), (0,0), (1,2), (1,0), (2,1), all on one key
    node = DepServiceNode("d0", num_leaders=4)
    stored = [(0, 1), (0, 0), (1, 2), (1, 0), (2, 1)]
    for i, (leader, seq) in enumerate(stored):
        node.handle_dep_request(VertexId(leader, seq), Command("c", i + 1, Set(b"k", b"v")))
    deps = node.handle_dep_request(VertexId(3, 0), Command("x", 1, Set(b"k", b"v")))
    assert deps == ExactDeps(frozenset(VertexId(l, s) for l, s in stored))


def test_five_command_state_compact_mode():
    node = DepServiceNode("d0", num_leaders=3, compact=True)
    stored = [(0, 1), (0, 0), (1, 2), (1, 0), (2, 1)]
    for i, (leader, seq) in enumerate(stored):
        node.handle_dep_request(VertexId(leader, seq), Command("c", i + 1, Set(b"k", b"v")))
    deps = node.handle_dep_request(VertexId(2, 5), Command("x", 1, Set(b"k", b"v")))
    assert deps == CompactDeps((1, 2, 1))
    assert len(deps.expand()) == 7


def test_empty_state_returns_empty_deps():
    node = DepServiceNode("d0", num_leaders=2)
    deps = node.handle_dep_request(VertexId(0, 0), Command("c", 1, Set(b"k", b"v")))
    assert deps.expand() == frozenset()


# streams of single commands and batches over three keys, each touching
# 1-3 keys; after each, maybe re-deliver the request of an earlier vertex
key_ops = st.builds(
    lambda key, write: Set(key, b"v") if write else Get(key),
    st.sampled_from([b"a", b"b", b"c"]),
    st.booleans(),
)
deliveries = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.lists(key_ops, min_size=1, max_size=3),
        st.one_of(st.none(), st.integers(0, 1000)),
    ),
    min_size=1,
    max_size=12,
)


@given(deliveries)
def test_duplicate_request_returns_cached_reply(stream):
    """A re-delivered request gets its vertex's first reply, however many
    vertices the node stored since, in both modes."""
    for compact in (False, True):
        node = DepServiceNode("d0", num_leaders=3, compact=compact)
        sent, first = [], {}
        for i, (leader, ops, again) in enumerate(stream):
            commands = tuple(Command(f"c{leader}", i + 1, op) for op in ops)
            cmd = commands[0] if len(commands) == 1 else Batch(commands)
            v = VertexId(leader, i)
            first[v] = node.handle_dep_request(v, cmd)
            sent.append((v, cmd))
            if again is not None:
                u, earlier = sent[again % len(sent)]
                assert node.handle_dep_request(u, earlier) == first[u]
        for v, cmd in sent:
            assert node.handle_dep_request(v, cmd) == first[v]
        assert node.reply_cache.keys() == first.keys()


def test_read_depends_only_on_writes():
    node = DepServiceNode("d0", num_leaders=2)
    node.handle_dep_request(VertexId(0, 0), Command("c", 1, Get(b"k")))
    node.handle_dep_request(VertexId(0, 1), Command("c", 2, Set(b"k", b"v")))
    deps = node.handle_dep_request(VertexId(1, 0), Command("d", 1, Get(b"k")))
    assert deps.expand() == {VertexId(0, 1)}


def test_excludes_own_vertex():
    node = DepServiceNode("d0", num_leaders=2)
    v = VertexId(0, 0)
    deps = node.handle_dep_request(v, Command("c", 1, Set(b"k", b"v")))
    assert v not in deps.expand()


def test_on_message_replies_to_sender():
    node = DepServiceNode("d0", num_leaders=2)
    v = VertexId(0, 0)
    cmd = Command("c", 1, Set(b"k", b"v"))
    out = node.on_message("leader-0", DepRequest(v, cmd), now=0.0)
    assert out == [Send("leader-0", DepReply(v, cmd, ExactDeps(frozenset())))]


# random single-key command streams: every pair conflicts unless both read
cmd_entries = st.lists(
    st.tuples(st.sampled_from(["r", "w"]), st.integers(0, 2)),
    min_size=1,
    max_size=8,
)


def _build_cmds(entries):
    cmds = []
    for i, (kind, leader) in enumerate(entries):
        op = Get(b"k") if kind == "r" else Set(b"k", b"v")
        cmds.append((VertexId(leader, i), Command(f"c{leader}", i + 1, op)))
    return cmds


@given(cmd_entries)
def test_local_ordering_property(entries):
    # if one node processed (v_x, x) then (v_y, y) and they conflict,
    # its reply for v_y contains v_x
    node = DepServiceNode("d0", num_leaders=3)
    replies = {}
    cmds = _build_cmds(entries)
    for v, cmd in cmds:
        replies[v] = node.handle_dep_request(v, cmd)
    for i, (vx, x) in enumerate(cmds):
        for vy, y in cmds[i + 1 :]:
            if conflicts(x, y):
                assert vx in replies[vy].expand()


@given(cmd_entries)
def test_compact_reply_superset_of_exact(entries):
    exact = DepServiceNode("d0", num_leaders=3)
    compact = DepServiceNode("d1", num_leaders=3, compact=True)
    for v, cmd in _build_cmds(entries):
        e = exact.handle_dep_request(v, cmd)
        c = compact.handle_dep_request(v, cmd)
        assert e.expand() <= c.expand()


@given(
    cmd_entries,
    st.randoms(use_true_random=False),
)
def test_quorum_property_with_leader_aggregation(entries, rng):
    # deliver the same commands to 3 nodes in independent random orders,
    # aggregate each vertex's deps from a random f+1 quorum: any two
    # conflicting commands must end up with at least one edge between them
    nodes = [DepServiceNode(f"d{i}", num_leaders=3) for i in range(3)]
    cmds = _build_cmds(entries)
    per_node_replies = []
    for node in nodes:
        order = list(cmds)
        rng.shuffle(order)
        replies = {v: node.handle_dep_request(v, cmd) for v, cmd in order}
        per_node_replies.append(replies)

    aggregated = {}
    for v, _cmd in cmds:
        i, j = sorted(rng.sample(range(3), 2))
        aggregated[v] = per_node_replies[i][v].union(per_node_replies[j][v])

    for i, (vx, x) in enumerate(cmds):
        for vy, y in cmds[i + 1 :]:
            if conflicts(x, y):
                assert vx in aggregated[vy].expand() or vy in aggregated[vx].expand()
