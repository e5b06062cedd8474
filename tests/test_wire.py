import gc
import random
import struct
import typing
import weakref

import pytest
from hypothesis import given, strategies as st

import graphsmr.wire as wire
from graphsmr.core import (
    Batch,
    Command,
    CompactDeps,
    ExactDeps,
    Get,
    NOOP,
    Proposal,
    Set,
    VertexId,
)
from graphsmr.messages import (
    ClientRequest,
    ClientResponse,
    Commit,
    DepReply,
    DepRequest,
    Message,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    ProposeMissing,
    ProposeRequest,
)
from graphsmr.wire import (
    WireError,
    decode_frame,
    decode_message,
    decode_trace,
    encode_frame,
    encode_message,
    encode_trace_record,
    split_frames,
    write_trace_record,
)

vertex_ids = st.builds(VertexId, st.integers(0, 10), st.integers(0, 1000))
ops = st.one_of(
    st.builds(Get, st.binary(min_size=1, max_size=8)),
    st.builds(Set, st.binary(min_size=1, max_size=8), st.binary(max_size=8)),
)
commands = st.builds(
    Command, st.text(min_size=1, max_size=12), st.integers(1, 99999), ops
)
real_payloads = st.one_of(
    commands,
    st.builds(Batch, st.lists(commands, min_size=1, max_size=4).map(tuple)),
)
payloads = st.one_of(real_payloads, st.just(NOOP))
deps = st.one_of(
    st.frozensets(vertex_ids, max_size=5).map(ExactDeps),
    st.lists(st.one_of(st.none(), st.integers(0, 50)), min_size=1, max_size=5)
    .map(tuple)
    .map(CompactDeps),
)
# noop proposals carry empty deps by construction
proposals = st.one_of(
    st.builds(Proposal, real_payloads, deps),
    st.just(Proposal(NOOP, ExactDeps(frozenset()))),
)

messages = st.one_of(
    st.builds(ClientRequest, commands),
    st.builds(DepRequest, vertex_ids, commands),
    st.builds(DepReply, vertex_ids, commands, deps),
    st.builds(ProposeRequest, vertex_ids, proposals),
    st.builds(Phase1a, vertex_ids, st.integers(0, 100)),
    st.builds(
        Phase1b,
        vertex_ids,
        st.integers(0, 100),
        st.one_of(st.none(), st.integers(0, 100)),
        st.one_of(st.none(), proposals),
    ),
    st.builds(Phase2a, vertex_ids, st.integers(0, 100), proposals),
    st.builds(Phase2b, vertex_ids, st.integers(0, 100)),
    st.builds(Nack, vertex_ids, st.integers(0, 100)),
    st.builds(Commit, vertex_ids, proposals),
    st.builds(
        ClientResponse,
        st.text(min_size=1, max_size=12),
        st.integers(1, 99999),
        st.booleans(),
        st.one_of(st.none(), st.binary(max_size=8)),
    ),
    st.builds(ProposeMissing, vertex_ids),
)


@given(messages)
def test_message_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


@given(st.text(min_size=1, max_size=16), messages)
def test_frame_round_trip(src, msg):
    frame = encode_frame(src, msg)
    # frames are length-prefixed
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4
    assert decode_frame(frame[4:]) == (src, msg)


_PROPOSAL = Proposal(NOOP, ExactDeps(frozenset()))
_V = VertexId(0, 0)


@pytest.mark.parametrize("tag, msg", [
    pytest.param(tag, msg, id=type(msg).__name__)
    for tag, msg in enumerate([
        ClientRequest(Command("c", 1, Get(b"k"))),
        DepRequest(_V, NOOP),
        DepReply(_V, NOOP, ExactDeps(frozenset())),
        ProposeRequest(_V, _PROPOSAL),
        Phase1a(_V, 3),
        Phase1b(_V, 3, None, None),
        Phase2a(_V, 3, _PROPOSAL),
        Phase2b(_V, 3),
        Nack(_V, 3),
        Commit(_V, _PROPOSAL),
        ClientResponse("c", 1, True, None),
    ], start=1)
])
def test_tag_is_first_byte_and_stable(tag, msg):
    assert encode_message(msg)[0] == tag  # one tag byte per message type


def test_truncated_frame_rejected():
    data = encode_message(Commit(VertexId(1, 2), Proposal(NOOP, ExactDeps(frozenset()))))
    with pytest.raises(WireError):
        decode_message(data[:-1])


def test_trailing_bytes_rejected():
    data = encode_message(Phase2b(VertexId(0, 0), 1))
    with pytest.raises(WireError):
        decode_message(data + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(WireError):
        decode_message(b"\xff\x00")


# Commit of (leader 0, seq 5) with a Get of b"k" by client "c", seq 7, and
# deps on both leaders: vertices in (seq, leader) order, each (leader, seq)
GOLDEN_DEPS = [VertexId(1, 2), VertexId(0, 2), VertexId(1, 0), VertexId(0, 0)]
GOLDEN_COMMIT = bytes.fromhex(
    "0a" "00000000" "00000005"  # Commit tag, vertex (0, 5)
    "00" "00000001" "63" "00000007" "00" "00000001" "6b"  # Command c/7 Get k
    "00" "00000004"  # exact deps, 4 vertices
    "00000000" "00000000"  # (0, 0)
    "00000001" "00000000"  # (1, 0)
    "00000000" "00000002"  # (0, 2)
    "00000001" "00000002"  # (1, 2)
)
EXACT_DEPS_AT = 1 + 8 + 1 + 5 + 4 + 1 + 5  # offset of the deps tag


def _golden_commit(vertices) -> Commit:
    proposal = Proposal(Command("c", 7, Get(b"k")), ExactDeps(frozenset(vertices)))
    return Commit(VertexId(0, 5), proposal)


def test_exact_deps_golden_bytes():
    assert encode_message(_golden_commit(GOLDEN_DEPS)) == GOLDEN_COMMIT
    assert decode_message(GOLDEN_COMMIT) == _golden_commit(GOLDEN_DEPS)


GOLDEN_MESSAGES = [
    pytest.param(
        ClientRequest(Command("c", 7, Set(b"k", b"v"))),
        "01" "00000001" "63" "00000007"  # ClientRequest tag, client c, seq 7
        "01" "00000001" "6b" "00000001" "76",  # Set k v
        id="client-request",
    ),
    pytest.param(
        DepRequest(VertexId(1, 2), Command("c", 7, Get(b"k"))),
        "02" "00000001" "00000002"  # DepRequest tag, vertex (1, 2)
        "00" "00000001" "63" "00000007" "00" "00000001" "6b",  # Command c/7 Get k
        id="dep-request",
    ),
    pytest.param(
        DepReply(
            VertexId(1, 2),
            Batch((Command("c", 1, Get(b"k")),)),
            ExactDeps(frozenset({VertexId(1, 1), VertexId(0, 1)})),
        ),
        "03" "00000001" "00000002"  # DepReply tag, vertex (1, 2)
        "02" "00000001"  # Batch of 1 command
        "00000001" "63" "00000001" "00" "00000001" "6b"  # c/1 Get k
        "00" "00000002"  # exact deps, 2 vertices
        "00000000" "00000001"  # (0, 1)
        "00000001" "00000001",  # (1, 1)
        id="dep-reply-batch-exact",
    ),
    pytest.param(
        ProposeRequest(VertexId(0, 4), Proposal(NOOP, CompactDeps((None, None)))),
        "04" "00000000" "00000004"  # ProposeRequest tag, vertex (0, 4)
        "01"  # noop
        "01" "00000002" "00" "00000000" "00" "00000000",  # compact deps, none on 2 leaders
        id="propose-request-noop-compact",
    ),
    pytest.param(
        Phase1a(VertexId(2, 9), 3),
        "05" "00000002" "00000009" "00000003",  # Phase1a tag, vertex (2, 9), round 3
        id="phase1a",
    ),
    pytest.param(
        Phase2b(VertexId(1, 2), 4),
        "08" "00000001" "00000002" "00000004",  # Phase2b tag, vertex (1, 2), round 4
        id="phase2b",
    ),
    pytest.param(
        Nack(VertexId(0, 3), 5),
        "09" "00000000" "00000003" "00000005",  # Nack tag, vertex (0, 3), promised 5
        id="nack",
    ),
    pytest.param(
        Phase2a(VertexId(1, 2), 4, Proposal(
            Batch((Command("c", 1, Get(b"k")), Command("d", 2, Set(b"k", b"v")))),
            CompactDeps((3, None)),
        )),
        "07" "00000001" "00000002" "00000004"  # Phase2a tag, vertex (1, 2), round 4
        "02" "00000002"  # Batch of 2 commands
        "00000001" "63" "00000001" "00" "00000001" "6b"  # c/1 Get k
        "00000001" "64" "00000002" "01" "00000001" "6b" "00000001" "76"  # d/2 Set k v
        "01" "00000002"  # compact deps, 2 leaders
        "01" "00000003"  # leader 0 up to seq 3
        "00" "00000000",  # no dependency on leader 1
        id="phase2a-batch-compact",
    ),
    pytest.param(
        Phase1b(VertexId(0, 3), 2, None, None),
        "06" "00000000" "00000003" "00000002"  # Phase1b tag, vertex (0, 3), round 2
        "00" "00000000"  # no voted round
        "00",  # no voted value
        id="phase1b-no-vote",
    ),
    pytest.param(
        Phase1b(VertexId(0, 3), 2, 1, Proposal(NOOP, ExactDeps(frozenset()))),
        "06" "00000000" "00000003" "00000002"
        "01" "00000001"  # voted in round 1
        "01" "01" "00" "00000000",  # voted value: noop, empty exact deps
        id="phase1b-vote",
    ),
    pytest.param(
        ClientResponse("c", 7, False, None),
        "0b" "00000001" "63" "00000007"  # ClientResponse tag, client c, seq 7
        "00" "00",  # output not available, no output
        id="client-response-no-output",
    ),
    pytest.param(
        ClientResponse("c", 7, True, b"v"),
        "0b" "00000001" "63" "00000007" "01" "01" "00000001" "76",
        id="client-response-output",
    ),
    pytest.param(
        ProposeMissing(VertexId(1, 7)),
        "0c" "00000001" "00000007",  # ProposeMissing tag, vertex (1, 7)
        id="propose-missing",
    ),
]


@pytest.mark.parametrize("msg, golden", GOLDEN_MESSAGES)
def test_golden_bytes(msg, golden):
    assert encode_message(msg) == bytes.fromhex(golden)
    assert decode_message(bytes.fromhex(golden)) == msg


def test_golden_bytes_cover_every_message_type():
    """A new message type needs golden bytes too, and an existing type's
    tag must not move, so each golden message opens with its type's place
    in the Message union, counted from 1."""
    members = typing.get_args(Message)
    goldens = [(p.values[0], bytes.fromhex(p.values[1])) for p in GOLDEN_MESSAGES]
    goldens.append((_golden_commit(GOLDEN_DEPS), GOLDEN_COMMIT))
    assert {type(msg) for msg, _ in goldens} == set(members)
    for msg, golden in goldens:
        assert golden[0] == members.index(type(msg)) + 1


@pytest.mark.parametrize("bad", [
    pytest.param(
        "06" "00000000" "00000003" "00000002" "00" "00000005" "00",
        id="phase1b-absent-round-with-value-bytes",
    ),
    pytest.param(
        "06" "00000000" "00000003" "00000002" "02" "00000001" "00",
        id="phase1b-round-presence-byte-2",
    ),
    pytest.param(
        "06" "00000000" "00000003" "00000002" "00" "00000000" "ff" "01" "00" "00000000",
        id="phase1b-value-presence-byte-ff",
    ),
    pytest.param(
        "07" "00000001" "00000002" "00000004"  # Phase2a, vertex (1, 2), round 4
        "00" "00000001" "63" "00000001" "00" "00000001" "6b"  # c/1 Get k
        "01" "00000002" "01" "00000001" "00" "00000007",  # compact deps (1, absent)
        id="compact-deps-absent-watermark-with-value-bytes",
    ),
    pytest.param("0b" "00000001" "63" "00000007" "02" "00", id="client-response-flag-byte-2"),
    pytest.param(
        "0b" "00000001" "63" "00000007" "01" "80" "00000001" "76",
        id="client-response-output-presence-byte-80",
    ),
])
def test_non_canonical_bytes_rejected(bad):
    """Each case differs from a valid encoding only in a flag, a presence
    byte, or the value bytes of an absent u32."""
    with pytest.raises(WireError, match="non-canonical|boolean byte"):
        decode_message(bytes.fromhex(bad))


def test_exact_deps_out_of_order_or_duplicate_rejected():
    vertices = GOLDEN_COMMIT[EXACT_DEPS_AT + 5 :]
    swapped = vertices[8:16] + vertices[:8] + vertices[16:]
    duplicated = vertices[:8] + vertices[:8] + vertices[8:]
    for deps in (b"\x00\x00\x00\x00\x04" + swapped, b"\x00\x00\x00\x00\x05" + duplicated):
        with pytest.raises(WireError, match="increasing"):
            decode_message(GOLDEN_COMMIT[:EXACT_DEPS_AT] + deps)


def test_exact_deps_truncated_list_rejected():
    count_past_end = b"\x00\xff\xff\xff\xff"
    with pytest.raises(WireError, match="truncated"):
        decode_message(GOLDEN_COMMIT[:EXACT_DEPS_AT] + count_past_end + GOLDEN_COMMIT[EXACT_DEPS_AT + 5 :])


def memo_entries(deps: ExactDeps) -> int:
    """Entries of the encoder's memo keyed by a set equal to deps."""
    return sum(key() == deps.vertices for key in list(wire._exact_deps_bytes))


def test_equal_exact_deps_share_one_memo_entry():
    a = _golden_commit(GOLDEN_DEPS)
    b = _golden_commit(reversed(GOLDEN_DEPS))
    assert a.proposal.deps is not b.proposal.deps
    assert encode_message(a) == encode_message(b) == GOLDEN_COMMIT
    assert memo_entries(a.proposal.deps) == 1


def test_exact_deps_memo_holds_no_strong_reference():
    """The memo is weak, and the ring of recently packed sets holds the
    last 16 sets strongly: once 16 more sets are packed, a set nothing
    else holds is freed and its entry goes."""
    vertices = [VertexId(7, 1000), VertexId(8, 1000)]  # in no other test
    msg = _golden_commit(vertices)
    encode_message(msg)
    packed = weakref.ref(msg.proposal.deps)
    del msg
    gc.collect()
    assert packed() is not None and memo_entries(packed()) == 1
    for i in range(wire._recent.maxlen):
        wire._encode_exact_deps(ExactDeps(frozenset({VertexId(7, 1001 + i)})))
    gc.collect()
    assert packed() is None
    assert memo_entries(_golden_commit(vertices).proposal.deps) == 0


def _reference_exact_deps(deps: ExactDeps) -> bytes:
    vertices = sorted(deps.vertices, key=lambda v: (v.seq, v.leader_index))
    fields = [x for v in vertices for x in (v.leader_index, v.seq)]
    return struct.pack(f">I{len(fields)}I", len(vertices), *fields)


u32s = st.integers(0, 2**32 - 1)
u32_vertices = st.builds(VertexId, u32s, u32s)


@given(st.frozensets(u32_vertices, max_size=40))
def test_exact_deps_packing_matches_a_plain_sort(vertices):
    deps = ExactDeps(vertices)
    assert wire._encode_exact_deps(deps) == _reference_exact_deps(deps)


@given(st.data())
def test_nested_exact_deps_pack_like_a_plain_sort(data):
    """Sets that each add a few vertices to an earlier one, a chain with
    branches, mixed with unrelated sets and packed in any order. Some are
    freed, and so gone from the ring, before the sets that contain them are
    packed."""
    sets = [data.draw(st.frozensets(u32_vertices, max_size=30))]
    for _ in range(data.draw(st.integers(0, 14))):
        if data.draw(st.booleans()):
            earlier = data.draw(st.sampled_from(sets))
            sets.append(earlier | data.draw(st.frozensets(u32_vertices, max_size=4)))
        else:
            sets.append(data.draw(st.frozensets(u32_vertices, max_size=30)))
    deps = [ExactDeps(vertices) for vertices in sets]
    freed = data.draw(st.sets(st.sampled_from(range(len(deps)))))
    for i in data.draw(st.permutations(range(len(deps)))):
        assert wire._encode_exact_deps(deps[i]) == _reference_exact_deps(deps[i])
        if i in freed:
            deps[i] = None


def test_a_growing_set_is_sorted_from_scratch_once(monkeypatch):
    sorted_sizes = []
    sort = wire._sort_from_scratch
    monkeypatch.setattr(wire, "_sort_from_scratch", lambda vs: sorted_sizes.append(len(vs)) or sort(vs))
    vertices = frozenset(VertexId(i % 3, 500_000 + i) for i in range(40))
    packed = []  # alive, so each set's predecessor is still in the ring
    for i in range(20):  # each new vertex sorts first, the worst place to insert
        vertices |= {VertexId(1, 499_999 - i)}
        packed.append(ExactDeps(vertices))
        assert wire._encode_exact_deps(packed[-1]) == _reference_exact_deps(packed[-1])
    assert sorted_sizes == [41]


@given(st.text(max_size=8), st.text(max_size=8), messages)
def test_trace_record_is_header_then_message(src, dst, msg):
    names = b"".join(len(n.encode()).to_bytes(4, "big") + n.encode() for n in (src, dst))
    body = names + encode_message(msg)
    expected = len(body).to_bytes(4, "big") + body
    # the second call reuses the memoised header
    assert encode_trace_record(src, dst, msg) == encode_trace_record(src, dst, msg) == expected
    written: list = []
    write_trace_record(written.append, src, dst, encode_message(msg))
    assert b"".join(written) == expected


def _distinct_commit(seq: int) -> bytes:
    """A Commit whose exact deps no other test decodes."""
    deps = [VertexId(7, 900_000 + seq), VertexId(3, 900_000 + seq), VertexId(7, 1)]
    return encode_message(Commit(VertexId(7, seq), Proposal(Command("m", seq, Get(b"k")), ExactDeps(frozenset(deps)))))


def test_equal_exact_deps_decode_to_one_shared_set():
    data = _distinct_commit(1)
    first, second = decode_message(data), decode_message(data)
    assert first == second and first is not second
    assert first.proposal.deps is second.proposal.deps
    [(_, _, a), (_, _, b)] = decode_trace(encode_trace_record("a", "b", first) * 2)
    assert a.proposal.deps is b.proposal.deps is first.proposal.deps


def test_reordered_set_is_rejected_after_its_canonical_bytes_decoded():
    decode_message(GOLDEN_COMMIT)
    vertices = GOLDEN_COMMIT[EXACT_DEPS_AT + 5 :]
    swapped = vertices[8:16] + vertices[:8] + vertices[16:]
    for _ in range(2):  # a rejected set must not be remembered either
        with pytest.raises(WireError, match="increasing"):
            decode_message(GOLDEN_COMMIT[:EXACT_DEPS_AT] + b"\x00\x00\x00\x00\x04" + swapped)


def test_decoded_exact_deps_memo_holds_no_strong_reference():
    gc.collect()
    before = len(wire._exact_deps_read)
    msg = decode_message(_distinct_commit(2))
    assert len(wire._exact_deps_read) == before + 1
    del msg
    gc.collect()
    assert len(wire._exact_deps_read) == before


def test_decode_trace_shares_equal_vertex_ids():
    v = VertexId(2, 777_777)
    deps = ExactDeps(frozenset({v, VertexId(0, 1)}))
    trace = encode_trace_record("a", "b", Phase2b(v, 1)) + encode_trace_record(
        "a", "b", Commit(VertexId(1, 41), Proposal(Command("c", 1, Get(b"k")), deps)))
    [(_, _, phase2b), (_, _, commit)] = decode_trace(trace)
    [shared] = [u for u in commit.proposal.deps.vertices if u == v]
    assert phase2b.v is shared


class TestSimulatorTraceDump:
    def test_sim_trace_decodes_with_same_schema(self):
        import random

        from fuzz_helpers import random_workload
        from graphsmr.harness import SimConfig, run_simulation
        from graphsmr.wire import decode_trace

        result = run_simulation(
            SimConfig(seed=4, capture_wire_trace=True),
            random_workload(random.Random(0), 2, 2, 0.5),
        )
        records = decode_trace(result.wire_trace)
        assert records, "trace should contain every delivered message"
        # one record per received message
        assert len(records) == sum(result.received.values())
        srcs = {src for src, _dst, _msg in records}
        assert any(s.startswith("client-") for s in srcs)
        assert any(s.startswith("prop-") for s in srcs)

    def test_sim_trace_records_re_encode_to_same_bytes(self):
        import random

        from fuzz_helpers import random_workload
        from graphsmr.harness import LinkFault, SimConfig, run_simulation

        result = run_simulation(
            SimConfig(seed=3, capture_wire_trace=True),
            random_workload(random.Random(3), 4, 10, 0.5),
            [LinkFault("*", "*", drop=0.05, dup=0.05)],
        )
        records = decode_trace(result.wire_trace)
        assert max(len(m.proposal.deps) for _s, _d, m in records if isinstance(m, Commit)) > 1
        assert b"".join(encode_trace_record(*record) for record in records) == result.wire_trace

    @pytest.mark.parametrize("path", ["dup", "drop", "crash", "partition", "coupled"])
    def test_trace_is_every_delivery_on_each_send_path(self, path):
        """A body is encoded once per message object and shared by its
        duplicates and its other destinations, yet the trace is exactly the
        records of the deliveries: it decodes to the messages the roles
        received, in order, re-encodes record by record to the same bytes
        and names each destination as often as it received."""
        from collections import Counter

        from fuzz_helpers import random_workload
        from graphsmr.harness import NO_TIMEOUTS, Crash, LinkFault, Partition, SimConfig
        from graphsmr.harness.sim import Simulation

        config = SimConfig(seed=6, capture_wire_trace=True, max_delay_ms=3.0)
        faults: list = []
        if path == "dup":  # no timer fires, so only duplicates add deliveries
            config.timeouts = NO_TIMEOUTS
            faults = [LinkFault("*", "*", dup=0.3)]
        elif path == "drop":
            faults = [LinkFault("leader-0", "dep-0", drop=1.0), LinkFault("*", "*", drop=0.1)]
        elif path == "crash":  # its peers keep sending to the crashed acceptor
            faults = [Crash("acc-0", 10.0)]
        elif path == "partition":
            faults = [Partition(frozenset({"leader-0", "prop-0"}), 5.0, 60.0)]
        else:
            config.coupled, config.leaders, config.replicas = True, 3, 3
        sim = Simulation(config, random_workload(random.Random(6), 3, 6, 0.5), faults)
        delivered = []
        for node, role in sim.roles.items():
            def observed(src, msg, now, node=node, handler=role.on_message):
                delivered.append((src, node, msg))
                return handler(src, msg, now)

            role.on_message = observed
        result = sim.run()
        assert result.completed
        records = decode_trace(result.wire_trace)
        assert records == delivered
        assert b"".join(encode_trace_record(*record) for record in records) == result.wire_trace
        assert Counter(dst for _src, dst, _msg in records) == Counter(result.received)
        sent, received = sum(result.sent.values()), sum(result.received.values())
        if path == "dup":
            assert received > sent
        elif path == "drop":
            assert ("leader-0", "dep-0") not in {(src, dst) for src, dst, _msg in records}
        elif path == "crash":
            assert 0 < result.received["acc-0"] < result.received["acc-1"]

    def test_capture_holds_about_one_copy_of_the_trace(self):
        """Capturing a faults-shaped run raises its traced memory peak by
        at most 1.5 times the trace: the one buffer, plus the codec's memo
        of packed dependency sets, and no second copy of the records."""
        import tracemalloc

        from graphsmr.bench import BenchConfig, generate_workload, sim_config_for
        from graphsmr.harness import Crash, LinkFault
        from graphsmr.harness.sim import Simulation

        def peak_and_trace(capture: bool) -> tuple[int, int]:
            bench = BenchConfig(clients=4, commands_per_client=40, conflict_rate=0.5,
                                max_delay_ms=3.0, capture_wire_trace=capture, seed=3)
            sim = Simulation(sim_config_for(bench), generate_workload(bench),
                             [LinkFault("*", "*", drop=0.05, dup=0.05), Crash("leader-1", 20.0)])
            tracemalloc.start()
            try:
                result = sim.run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, len(result.wire_trace)

        without, _ = peak_and_trace(False)
        with_capture, trace = peak_and_trace(True)
        assert trace > 0
        assert with_capture - without <= 1.5 * trace

    def test_cli_dump_trace(self, tmp_path):
        from graphsmr.cli import main
        from graphsmr.wire import decode_trace

        out = tmp_path / "trace.bin"
        rc = main(["sim", "--clients", "1", "--commands-per-client", "2",
                   "--dump-trace", str(out)])
        assert rc == 0
        assert decode_trace(out.read_bytes())


@given(
    st.lists(st.tuples(st.text(min_size=1, max_size=8), messages), max_size=8),
    st.lists(st.integers(1, 64), min_size=1, max_size=16),
)
def test_split_frames_reassembles_a_chunked_stream(sent, chunk_sizes):
    stream = b"".join(encode_frame(src, msg) for src, msg in sent)
    received, buf, pos, i = [], b"", 0, 0
    while pos < len(stream):
        chunk = stream[pos : pos + chunk_sizes[i % len(chunk_sizes)]]
        pos, i = pos + len(chunk), i + 1
        frames, buf = split_frames(buf + chunk)
        received.extend(decode_frame(frame) for frame in frames)
    assert received == sent
    assert buf == b""


def test_truncated_trace_record_rejected():
    trace = encode_trace_record("a", "b", Phase2b(VertexId(0, 0), 1)) * 2
    assert len(decode_trace(trace)) == 2
    for cut in (1, 5, len(trace) // 2 - 1):
        with pytest.raises(WireError, match="truncated"):
            decode_trace(trace[:-cut])
