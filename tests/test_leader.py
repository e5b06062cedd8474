from graphsmr.core import (
    Batch,
    Command,
    CompactDeps,
    ExactDeps,
    Get,
    Proposal,
    Set,
    VertexId,
)
from graphsmr.leader import AssignEvent, Leader
from graphsmr.messages import (
    ClientRequest,
    DepReply,
    DepRequest,
    Note,
    ProposeMissing,
    ProposeRequest,
    Send,
    SetTimer,
)

DEPS = ["dep-0", "dep-1", "dep-2"]
PROPS = ["prop-0", "prop-1"]


def make_leader(index=0, **kw):
    return Leader(f"leader-{index}", index, f=1, dep_nodes=DEPS, proposers=PROPS, **kw)


def cmd(i, key=b"k"):
    return Command("c", i, Set(key, b"v"))


def sends(effects, typ=None):
    out = [e for e in effects if isinstance(e, Send)]
    if typ is not None:
        out = [e for e in out if isinstance(e.msg, typ)]
    return out


def test_first_three_ids_of_leader_two():
    leader = make_leader(index=2)
    got = []
    for i in range(3):
        effects = leader.on_message("client-0", ClientRequest(cmd(i + 1)), 0.0)
        got.extend(e.event.v for e in effects if isinstance(e, Note))
    assert got == [VertexId(2, 0), VertexId(2, 1), VertexId(2, 2)]


def test_leader_zero_first_id():
    leader = make_leader(index=0)
    effects = leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    notes = [e.event for e in effects if isinstance(e, Note)]
    assert notes == [AssignEvent("leader-0", VertexId(0, 0), cmd(1))]


def test_distinct_leaders_distinct_ids():
    a, b = make_leader(index=0), make_leader(index=1)
    for leader in (a, b):
        for i in range(6):
            leader.on_message("client-0", ClientRequest(cmd(i + 1)), 0.0)
    assert a.next_seq == b.next_seq == 6
    assert VertexId(0, 5) != VertexId(1, 5)


def test_dep_requests_to_all_nodes_when_not_thrifty():
    leader = make_leader()
    effects = leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    reqs = sends(effects, DepRequest)
    assert [e.dst for e in reqs] == DEPS


def test_thrifty_sends_to_quorum_only():
    leader = make_leader(thrifty=True)
    effects = leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    assert len(sends(effects, DepRequest)) == 2


def test_quorum_union_proposed_exact():
    leader = make_leader()
    leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    v = VertexId(0, 0)
    r1 = DepReply(v, cmd(1), ExactDeps(frozenset({VertexId(1, 0)})))
    assert leader.on_message("dep-0", r1, 1.0) == []
    r2 = DepReply(v, cmd(1), ExactDeps(frozenset()))
    effects = leader.on_message("dep-1", r2, 2.0)
    assert effects == [
        Send(
            "prop-0",
            ProposeRequest(
                v, Proposal(cmd(1), ExactDeps(frozenset({VertexId(1, 0)})))
            ),
        )
    ]


def test_quorum_union_proposed_compact():
    leader = make_leader()
    leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    v = VertexId(0, 0)
    leader.on_message("dep-0", DepReply(v, cmd(1), CompactDeps((None, 3))), 1.0)
    effects = leader.on_message(
        "dep-2", DepReply(v, cmd(1), CompactDeps((0, 1))), 2.0
    )
    [send] = sends(effects, ProposeRequest)
    assert send.msg.proposal.deps == CompactDeps((0, 3))


def test_duplicate_and_extra_replies_ignored():
    leader = make_leader()
    leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    v = VertexId(0, 0)
    reply = DepReply(v, cmd(1), ExactDeps(frozenset()))
    leader.on_message("dep-0", reply, 1.0)
    assert leader.on_message("dep-0", reply, 1.5) == []  # duplicate node
    assert sends(leader.on_message("dep-1", reply, 2.0), ProposeRequest)
    assert leader.on_message("dep-2", reply, 3.0) == []  # beyond f+1


def test_reply_for_unknown_vertex_ignored():
    leader = make_leader()
    stale = DepReply(VertexId(0, 9), cmd(1), ExactDeps(frozenset()))
    assert leader.on_message("dep-0", stale, 0.0) == []


def test_retransmit_widens_thrifty_targets():
    leader = make_leader(thrifty=True)
    leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    effects = leader.on_timer(("dep-retx", VertexId(0, 0)), 60.0)
    assert len(sends(effects, DepRequest)) == 3


def one_object(fan_out):
    """The Sends of one fan-out all carry one message object, so a
    transport or a trace encodes it once."""
    return len(fan_out) > 1 and all(e.msg is fan_out[0].msg for e in fan_out)


def test_dep_requests_of_a_fan_out_are_one_object():
    leader = make_leader()
    assert one_object(sends(leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)))


def test_widened_dep_requests_are_one_object():
    leader = make_leader(thrifty=True)
    leader.on_message("client-0", ClientRequest(cmd(1)), 0.0)
    v = VertexId(0, 0)
    leader.on_message("dep-0", DepReply(v, cmd(1), ExactDeps(frozenset())), 1.0)
    widened = sends(leader.on_timer(("dep-retx", v), 60.0), DepRequest)
    assert [e.dst for e in widened] == ["dep-1", "dep-2"]
    assert one_object(widened)


def test_batch_emitted_at_size_trigger():
    leader = make_leader(batch_size=2)
    c1, c2 = Command("c", 1, Get(b"a")), Command("c", 2, Set(b"b", b"1"))
    assert sends(leader.on_message("x", ClientRequest(c1), 0.0), DepRequest) == []
    effects = leader.on_message("x", ClientRequest(c2), 1.0)
    reqs = sends(effects, DepRequest)
    assert len(reqs) == 3
    assert reqs[0].msg.cmd == Batch((c1, c2))


def test_batch_size_one_is_unbatched():
    leader = make_leader(batch_size=1)
    effects = leader.on_message("x", ClientRequest(cmd(1)), 0.0)
    [req] = [e.msg for e in sends(effects, DepRequest)[:1]]
    assert isinstance(req.cmd, Command)


def test_flush_timer_emits_partial_batch():
    leader = make_leader(batch_size=1000)
    effects = leader.on_message("x", ClientRequest(cmd(1)), 0.0)
    timers = [e for e in effects if isinstance(e, SetTimer)]
    assert timers and timers[0].key[0] == "flush"
    effects = leader.on_timer(timers[0].key, 5.0)
    reqs = sends(effects, DepRequest)
    assert len(reqs) == 3
    assert reqs[0].msg.cmd == Batch((cmd(1),))
    # nothing buffered: flush is a no-op
    assert leader.on_timer(("flush", 1), 10.0) == []


def test_stale_flush_timer_leaves_next_batch_alone():
    leader = make_leader(batch_size=2)
    [first_timer] = [e for e in leader.on_message("x", ClientRequest(cmd(1)), 0.0)
                     if isinstance(e, SetTimer)]
    leader.on_message("x", ClientRequest(cmd(2)), 1.0)  # fills the first batch
    effects = leader.on_message("x", ClientRequest(cmd(3)), 2.0)
    [second_timer] = [e for e in effects if isinstance(e, SetTimer)]
    assert first_timer.key != second_timer.key
    assert leader.on_timer(first_timer.key, 5.0) == []
    assert leader.batch_buffer == [cmd(3)]
    effects = leader.on_timer(second_timer.key, 7.0)
    assert sends(effects, DepRequest)[0].msg.cmd == Batch((cmd(3),))


def propose_next(leader, i, now=0.0):
    """Assign a vertex for command i and answer it from a dependency quorum;
    returns the vertex and the ProposeRequest the leader sent."""
    effects = leader.on_message("c", ClientRequest(cmd(i)), now)
    (note,) = [e for e in effects if isinstance(e, Note)]
    v = note.event.v
    leader.on_message("dep-0", DepReply(v, cmd(i), ExactDeps(frozenset())), now + 1)
    (request,) = sends(
        leader.on_message("dep-1", DepReply(v, cmd(i), ExactDeps(frozenset())), now + 2),
        ProposeRequest,
    )
    return v, request.msg


class TestProposeRepair:
    def test_propose_missing_gets_the_identical_request(self):
        leader = make_leader()
        v0, first = propose_next(leader, 1)
        propose_next(leader, 2)
        (answer,) = leader.on_message("prop-0", ProposeMissing(v0), 10.0)
        assert answer.dst == "prop-0" and answer.msg is first

    def test_propose_missing_for_an_id_never_proposed_is_ignored(self):
        leader = make_leader()
        propose_next(leader, 1)
        leader.on_message("c", ClientRequest(cmd(2)), 5.0)  # (0, 1) still gathers deps
        assert leader.on_message("prop-0", ProposeMissing(VertexId(0, 1)), 6.0) == []
        assert leader.on_message("prop-0", ProposeMissing(VertexId(0, 7)), 6.0) == []

    def test_tail_resend_doubles_until_a_newer_vertex_is_assigned(self):
        leader = make_leader()
        v0, request = propose_next(leader, 1)
        delays = []
        for now in (50.0, 150.0, 350.0):
            effects = leader.on_timer(("dep-retx", v0), now)
            (resend,) = sends(effects)
            assert resend.dst == "prop-0" and resend.msg is request
            (timer,) = [e for e in effects if isinstance(e, SetTimer)]
            assert timer.key == ("dep-retx", v0)
            delays.append(timer.delay_ms)
        assert delays == [100.0, 200.0, 400.0]
        leader.on_message("c", ClientRequest(cmd(2)), 400.0)
        assert leader.on_timer(("dep-retx", v0), 750.0) == []

    def test_tail_resend_only_for_the_latest_proposed_vertex(self):
        leader = make_leader()
        v0, _ = propose_next(leader, 1)
        v1, request = propose_next(leader, 2, now=10.0)
        assert leader.on_timer(("dep-retx", v0), 50.0) == []
        assert sends(leader.on_timer(("dep-retx", v1), 60.0))[0].msg is request
        # the latest vertex still gathering deps widens its request instead
        leader.on_message("c", ClientRequest(cmd(3)), 70.0)
        effects = leader.on_timer(("dep-retx", VertexId(0, 2)), 120.0)
        assert sends(effects, ProposeRequest) == [] and len(sends(effects, DepRequest)) == 3

