import gc

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
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
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


def test_tag_is_first_byte_and_stable():
    msg = Phase1a(VertexId(0, 0), 3)
    assert encode_message(msg)[0] == 5  # one tag byte per message type


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


def test_equal_exact_deps_share_one_memo_entry():
    gc.collect()
    before = len(wire._exact_deps_bytes)
    a = _golden_commit(GOLDEN_DEPS)
    b = _golden_commit(reversed(GOLDEN_DEPS))
    assert a.proposal.deps is not b.proposal.deps
    assert encode_message(a) == encode_message(b) == GOLDEN_COMMIT
    assert len(wire._exact_deps_bytes) == before + 1


def test_exact_deps_memo_holds_no_strong_reference():
    gc.collect()
    before = len(wire._exact_deps_bytes)
    msg = _golden_commit(GOLDEN_DEPS)
    encode_message(msg)
    assert len(wire._exact_deps_bytes) == before + 1
    del msg
    gc.collect()
    assert len(wire._exact_deps_bytes) == before


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
        from graphsmr.harness import SimConfig, run_simulation

        result = run_simulation(
            SimConfig(seed=3, drop_prob=0.05, dup_prob=0.05, capture_wire_trace=True),
            random_workload(random.Random(3), 4, 10, 0.5),
        )
        records = decode_trace(result.wire_trace)
        assert max(len(m.proposal.deps) for _s, _d, m in records if isinstance(m, Commit)) > 1
        assert b"".join(encode_trace_record(*record) for record in records) == result.wire_trace

    def test_cli_dump_trace(self, tmp_path):
        from graphsmr.cli import main
        from graphsmr.wire import decode_trace

        out = tmp_path / "trace.bin"
        rc = main(["sim", "--clients", "1", "--commands-per-client", "2",
                   "--dump-trace", str(out)])
        assert rc == 0
        assert decode_trace(out.read_bytes())
