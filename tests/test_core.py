import pytest
from hypothesis import given, strategies as st

from fuzz_helpers import conflicts
from graphsmr.core import (
    NOOP,
    Batch,
    Command,
    CompactDeps,
    ExactDeps,
    Get,
    Proposal,
    Set,
    VertexId,
    WatermarkSet,
    fnv1a64,
    key_access,
)
from graphsmr.harness import export_history
from graphsmr.replica import CommitSeen


def cmd(op, client="c", seq=1):
    return Command(client, seq, op)


class TestConflicts:
    """Two payloads conflict iff they share a key that one of them writes;
    the dependency service and the checker read that from key_access."""

    def test_write_read_same_key(self):
        assert key_access(Batch((cmd(Set(b"a", b"0")), cmd(Get(b"a"))))) == {b"a": True}

    def test_two_reads_commute(self):
        assert key_access(Batch((cmd(Get(b"a")), cmd(Get(b"a"))))) == {b"a": False}

    def test_noop_conflicts_with_nothing(self):
        assert key_access(NOOP) == {}

    def test_different_keys(self):
        assert key_access(cmd(Set(b"a", b"0"))).keys().isdisjoint(key_access(cmd(Set(b"b", b"0"))))

    def test_batch_footprint_is_union(self):
        b = Batch((cmd(Get(b"a")), cmd(Set(b"b", b"1"))))
        assert key_access(b) == {b"a": False, b"b": True}


ops = st.one_of(
    st.builds(Get, st.binary(min_size=1, max_size=2)),
    st.builds(Set, st.binary(min_size=1, max_size=2), st.binary(max_size=2)),
)
commands = st.builds(cmd, ops)
payloads = st.one_of(
    st.just(NOOP), commands, st.lists(commands, min_size=1, max_size=3).map(lambda c: Batch(tuple(c)))
)


@given(payloads, payloads)
def test_conflicts_symmetric(x, y):
    """The conflict relation read off key_access, as the dependency service
    reads it, is symmetric and agrees with the pairwise oracle."""
    ax, ay = key_access(x), key_access(y)
    via_key_access = any(key in ay and (writes or ay[key]) for key, writes in ax.items())
    assert via_key_access == conflicts(x, y) == conflicts(y, x)


vertex_ids = st.builds(VertexId, st.integers(0, 3), st.integers(0, 5))


class TestVertexOrder:
    def test_sequence_compared_first(self):
        assert VertexId(0, 1) > VertexId(1, 0)

    def test_reflexive_equal(self):
        assert VertexId(0, 1) == VertexId(0, 1)
        assert not VertexId(0, 1) < VertexId(0, 1)

    def test_sort_example(self):
        # VertexId(leader, seq): ordering key is (seq, leader).
        got = sorted([VertexId(1, 2), VertexId(0, 0), VertexId(2, 1)])
        assert got == [VertexId(0, 0), VertexId(2, 1), VertexId(1, 2)]

    @given(vertex_ids, vertex_ids, vertex_ids)
    def test_strict_total_order(self, a, b, c):
        # totality + antisymmetry
        assert (a < b) or (b < a) or (a == b)
        assert not ((a < b) and (b < a))
        # transitivity
        if a < b and b < c:
            assert a < c


class TestVertexIdIsATuple:
    # export_history text depends on the repr staying that of the former
    # frozen dataclass; it does not depend on set iteration order, since
    # ExactDeps prints its vertices sorted
    def test_hash_equality_and_repr(self):
        v = VertexId(2, 5)
        assert hash(v) == hash((2, 5))
        assert v == VertexId(leader_index=2, seq=5)
        assert v != VertexId(5, 2)
        assert repr(v) == "VertexId(leader_index=2, seq=5)"

    @given(vertex_ids, vertex_ids)
    def test_order_is_seq_then_leader(self, a, b):
        ka, kb = (a.seq, a.leader_index), (b.seq, b.leader_index)
        assert a.sort_key() == ka
        assert (a < b) == (ka < kb)
        assert (a <= b) == (ka <= kb)
        assert (a > b) == (ka > kb)
        assert (a >= b) == (ka >= kb)


class TestDeps:
    def test_exact_expand_identity(self):
        d = ExactDeps(frozenset({VertexId(0, 0)}))
        assert d.expand() == {VertexId(0, 0)}

    def test_compact_expand_rectangle(self):
        # watermarks L0->1, L1->2, L2->1 cover seven ids
        d = CompactDeps((1, 2, 1))
        expected = {
            VertexId(0, 0),
            VertexId(0, 1),
            VertexId(1, 0),
            VertexId(1, 1),
            VertexId(1, 2),
            VertexId(2, 0),
            VertexId(2, 1),
        }
        assert d.expand() == expected

    def test_compact_empty(self):
        assert CompactDeps((None, None, None)).expand() == frozenset()

    def test_exact_union(self):
        a = ExactDeps(frozenset({VertexId(0, 0)}))
        b = ExactDeps(frozenset({VertexId(1, 0)}))
        assert a.union(b).vertices == {VertexId(0, 0), VertexId(1, 0)}

    def test_compact_union_pointwise_max(self):
        a = CompactDeps((1, None))
        b = CompactDeps((0, 2))
        assert a.union(b) == CompactDeps((1, 2))

    def test_exact_repr_is_independent_of_table_layout(self):
        """A copy of a set and its union with a subset of itself are equal,
        but the union's table is resized, so the two iterate in different
        orders. Their repr and history text are the same."""
        vertices = frozenset(VertexId(i % 3, i // 3) for i in range(20))
        copied = ExactDeps(frozenset(vertices))
        unioned = ExactDeps(vertices | frozenset(list(vertices)[:10]))
        assert copied == unioned
        assert list(copied.vertices) != list(unioned.vertices)
        assert repr(copied) == repr(unioned)
        assert repr(copied).startswith(
            "ExactDeps(vertices=frozenset({VertexId(leader_index=0, seq=0), "
            "VertexId(leader_index=1, seq=0), VertexId(leader_index=2, seq=0), "
            "VertexId(leader_index=0, seq=1), "
        )
        assert repr(ExactDeps(frozenset())) == "ExactDeps(vertices=frozenset())"
        command = Command("c", 1, Set(b"k", b"v"))
        lines = [
            export_history([(1.5, 3, CommitSeen("rep-0", VertexId(0, 9), Proposal(command, deps)))])
            for deps in (copied, unioned)
        ]
        assert lines[0] == lines[1]

    def test_mixed_variant_rejected(self):
        with pytest.raises(TypeError):
            ExactDeps(frozenset()).union(CompactDeps((None,)))
        with pytest.raises(TypeError):
            CompactDeps((None,)).union(ExactDeps(frozenset()))


exact_deps = st.frozensets(vertex_ids, max_size=6).map(ExactDeps)
compact_deps = st.lists(
    st.one_of(st.none(), st.integers(0, 4)), min_size=3, max_size=3
).map(lambda ws: CompactDeps(tuple(ws)))


@given(exact_deps, exact_deps)
def test_exact_union_matches_expansion_union(a, b):
    assert a.union(b).expand() == a.expand() | b.expand()


@given(compact_deps, compact_deps)
def test_compact_union_matches_expansion_union(a, b):
    assert a.union(b).expand() == a.expand() | b.expand()


@given(st.one_of(exact_deps, compact_deps))
def test_union_idempotent(d):
    assert d.union(d) == d


@given(st.one_of(exact_deps, compact_deps), vertex_ids)
def test_membership_size_and_iteration_match_expansion(d, v):
    assert (v in d) == (v in d.expand())
    assert len(d) == len(d.expand())


@given(compact_deps, st.dictionaries(st.integers(0, 3), st.integers(-1, 5), max_size=4))
def test_above_yields_exactly_the_covered_ids_over_low(d, low):
    above = list(d.above(low))
    assert len(above) == len(set(above))
    assert set(above) == {v for v in d.expand() if v.seq > low.get(v.leader_index, -1)}


@given(
    st.sampled_from([0, 1]),
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 8)), max_size=30),
)
def test_watermark_set_matches_a_plain_set(first, pairs):
    """Random insertion orders with duplicates over several rows; the pairs
    of each row start at `first`."""
    ws, oracle = WatermarkSet(first), set()
    for row, k in pairs:
        ws.add((row, first + k))
        oracle.add((row, first + k))
        assert len(ws) == len(oracle)
    for row in "abcd":
        for seq in range(first, first + 10):
            assert ((row, seq) in ws) == ((row, seq) in oracle)
    # the watermark absorbs every contiguous run from `first`
    for row, w in ws.low.items():
        assert (row, w + 1) not in oracle
    assert all((row, first) not in oracle for row in "abcd" if row not in ws.low)
    assert all(seq > ws.low.get(row, first - 1) + 1 for row, seq in ws.sparse)


def test_noop_proposal_must_have_empty_deps():
    from graphsmr.core import NOOP, NOOP_PROPOSAL, Proposal

    assert NOOP_PROPOSAL.deps.expand() == frozenset()
    Proposal(NOOP, CompactDeps((None, None)))
    with pytest.raises(ValueError):
        Proposal(NOOP, ExactDeps(frozenset({VertexId(0, 0)})))
    with pytest.raises(ValueError):
        Proposal(NOOP, CompactDeps((None, 0)))


class TestEncoding:
    def test_vertex_id_round_trip(self):
        assert VertexId(3, 70000).encode() == bytes.fromhex("00000003" "00011170")

    def test_fnv1a64_known_vectors(self):
        # reference values for the standard FNV-1a 64-bit parameters
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_owner_partition(self):
        vs = [VertexId(i, s) for i in range(3) for s in range(50)]
        owners = {v.owner_replica(2) for v in vs}
        assert owners == {0, 1}
        for v in vs:
            assert v.owner_replica(1) == 0

    def test_owner_is_fnv1a64_of_the_encoding(self):
        """owner_replica hashes the two fields without building the bytes;
        it must agree with the hash of the canonical encoding, every byte
        of both fields included."""
        values = [0, 1, 2, 7, 255, 256, 0x1234, 0xFFFF, 0x10000, 0xABCDEF, 0x7FFFFFFF, 2**32 - 1]
        for leader in values:
            for seq in values:
                v = VertexId(leader, seq)
                h = fnv1a64(v.encode())
                assert [v.owner_replica(n) for n in range(1, 6)] == [h % n for n in range(1, 6)]
