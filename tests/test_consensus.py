"""Unit tests for the per-vertex Paxos roles, plus an exhaustive
cross-check of the implementation against a brute-force enumeration of an
independently written abstract single-decree consensus model."""

import random

from graphsmr.consensus import (
    Acceptor,
    Proposer,
    lowest_owned_round,
    round_owner,
    select_phase2_value,
)
from graphsmr.core import EMPTY_DEPS, Command, NOOP_PROPOSAL, Proposal, Set, VertexId
from graphsmr.messages import (
    Commit,
    Nack,
    Note,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    ProposeMissing,
    ProposeRequest,
    Send,
    SetTimer,
)

V = VertexId(0, 0)


def prop(tag: bytes) -> Proposal:
    return Proposal(Command("c", 1, Set(b"k", tag)), EMPTY_DEPS)


P1, P2 = prop(b"p1"), prop(b"p2")


class TestRoundAllocation:
    def test_round_zero_owned_by_designated(self):
        assert round_owner(0, designated=1, num_proposers=4) == 1

    def test_each_number_has_one_owner(self):
        for k in range(12):
            owners = [
                p
                for p in range(4)
                if round_owner(k, 2, 4) == p
            ]
            assert len(owners) == 1

    def test_lowest_owned(self):
        # designated 0, 3 proposers: proposer 1 owns rounds 1, 4, 7, ...
        assert lowest_owned_round(1, 0, 3, minimum=0) == 1
        assert lowest_owned_round(1, 0, 3, minimum=2) == 4
        assert lowest_owned_round(0, 0, 3, minimum=1) == 3


class TestAcceptor:
    def test_fresh_acceptor_phase1(self):
        a = Acceptor("a0")
        assert a.handle_phase1a(V, 1) == Phase1b(V, 1, None, None)

    def test_stale_round_nacked(self):
        a = Acceptor("a0")
        a.handle_phase1a(V, 3)
        assert a.handle_phase1a(V, 2) == Nack(V, 3)

    def test_promise_carries_prior_vote(self):
        a = Acceptor("a0")
        a.handle_phase2a(V, 0, P1)
        assert a.handle_phase1a(V, 1) == Phase1b(V, 1, 0, P1)

    def test_phase2_round_zero_fast_path(self):
        a = Acceptor("a0")
        assert a.handle_phase2a(V, 0, P1) == Phase2b(V, 0)

    def test_phase2_below_promised_nacked(self):
        a = Acceptor("a0")
        a.handle_phase1a(V, 2)
        assert a.handle_phase2a(V, 1, P1) == Nack(V, 2)

    def test_phase2_equal_round_accepted(self):
        a = Acceptor("a0")
        a.handle_phase1a(V, 1)
        assert a.handle_phase2a(V, 1, P1) == Phase2b(V, 1)


class TestSelectPhase2Value:
    def test_all_empty_uses_own(self):
        assert select_phase2_value({"a0": (None, None), "a1": (None, None)}, P1) == P1

    def test_single_vote_adopted(self):
        assert select_phase2_value({"a0": (0, P2), "a1": (None, None)}, P1) == P2

    def test_highest_round_wins(self):
        replies = {"a0": (0, P1), "a1": (2, P2)}
        assert select_phase2_value(replies, P1) == P2


def make_proposer(index=0, total=2, main=2, rng_seed=7):
    return Proposer(
        f"prop-{index}",
        index=index,
        num_main_proposers=main,
        num_total_proposers=total,
        f=1,
        acceptors=["a0", "a1", "a2"],
        replicas=["r0", "r1"],
        rng=random.Random(rng_seed),
    )


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


class TestProposer:
    def test_designated_skips_phase1(self):
        p = make_proposer(index=0)
        out = sends(p.propose(V, P1, 0.0))
        assert all(isinstance(e.msg, Phase2a) and e.msg.round == 0 for e in out)
        assert len(out) == 3

    def test_recovery_starts_phase1_round_ge_1(self):
        p = make_proposer(index=1)
        out = sends(p.propose(V, NOOP_PROPOSAL, 0.0))
        assert all(isinstance(e.msg, Phase1a) for e in out)
        assert out[0].msg.round == 1

    def test_nack_jumps_past_promised_round(self):
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)
        out = p.on_message("a0", Nack(V, 3), 1.0)
        assert any(isinstance(e, SetTimer) for e in out)
        # next owned round above 3 for designated owner of V with 2 proposers
        assert p.instances[V].round == 4

    def test_quorum_commits_once(self):
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)
        assert p.on_message("a0", Phase2b(V, 0), 1.0) == []
        out = p.on_message("a1", Phase2b(V, 0), 2.0)
        commits = [e for e in sends(out) if isinstance(e.msg, Commit)]
        assert len(commits) == 2 and all(e.msg.proposal == P1 for e in commits)
        assert [e.event.v for e in out if isinstance(e, Note)] == [V]
        # duplicates and extra acks after the decision are ignored
        assert p.on_message("a1", Phase2b(V, 0), 3.0) == []
        assert p.on_message("a2", Phase2b(V, 0), 3.0) == []

    def test_duplicate_phase2b_counted_once(self):
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)
        p.on_message("a0", Phase2b(V, 0), 1.0)
        assert p.on_message("a0", Phase2b(V, 0), 1.5) == []
        assert p.instances[V].chosen is None

    def test_phase1_quorum_adopts_prior_vote(self):
        p = make_proposer(index=1)
        p.propose(V, NOOP_PROPOSAL, 0.0)
        p.on_message("a0", Phase1b(V, 1, 0, P1), 1.0)
        out = p.on_message("a1", Phase1b(V, 1, None, None), 2.0)
        p2as = [e.msg for e in sends(out) if isinstance(e.msg, Phase2a)]
        assert len(p2as) == 3 and all(m.value == P1 for m in p2as)

    def test_retry_after_backoff_preserves_chosen_value(self):
        # full multi-round walk: the designated proposer gets nacked out of
        # round 0, backs off, retries with phase 1 at its next owned round,
        # and must adopt the competitor's already-voted value
        acceptors = [Acceptor(f"a{i}") for i in range(3)]
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)

        # a competitor (recovery at round 1) got P2 voted on a majority
        for a in acceptors:
            a.handle_phase1a(V, 1)
        acceptors[0].handle_phase2a(V, 1, P2)
        acceptors[1].handle_phase2a(V, 1, P2)

        # our stale round-0 phase 2 is nacked
        nack = acceptors[0].handle_phase2a(V, 0, P1)
        out = p.on_message("a0", nack, 1.0)
        timers = [e for e in out if isinstance(e, SetTimer)]
        assert timers and timers[0].key == ("paxos-backoff", V)
        assert p.instances[V].round == 2

        out = p.on_timer(("paxos-backoff", V), 5.0)
        p1as = [e for e in sends(out) if isinstance(e.msg, Phase1a)]
        assert len(p1as) == 3 and p1as[0].msg.round == 2

        for e in p1as[:2]:
            acc = {a.name: a for a in acceptors}[e.dst]
            reply = acc.handle_phase1a(V, 2)
            out = p.on_message(acc.name, reply, 6.0)
        p2as = [e.msg for e in sends(out) if isinstance(e.msg, Phase2a)]
        assert len(p2as) == 3 and all(m.value == P2 for m in p2as)

        p.on_message("a0", acceptors[0].handle_phase2a(V, 2, P2), 7.0)
        out = p.on_message("a1", acceptors[1].handle_phase2a(V, 2, P2), 8.0)
        commits = [e.msg for e in sends(out) if isinstance(e.msg, Commit)]
        assert commits and all(c.proposal == P2 for c in commits)


class TestFanOut:
    """Every Send of one fan-out carries one message object, so a transport
    or a trace encodes it once."""

    @staticmethod
    def one_object(out, typ, count):
        fan_out = [e for e in sends(out) if isinstance(e.msg, typ)]
        return len(fan_out) == count and all(e.msg is fan_out[0].msg for e in fan_out)

    def test_phase1a(self):
        p = make_proposer(index=1)
        assert self.one_object(p.propose(V, NOOP_PROPOSAL, 0.0), Phase1a, 3)

    def test_phase2a(self):
        p = make_proposer(index=0)
        assert self.one_object(p.propose(V, P1, 0.0), Phase2a, 3)

    def test_commit_after_the_value_is_chosen(self):
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)
        p.on_message("a0", Phase2b(V, 0), 1.0)
        assert self.one_object(p.on_message("a1", Phase2b(V, 0), 2.0), Commit, 2)

    def test_commit_re_announced(self):
        p = make_proposer(index=0)
        p.propose(V, P1, 0.0)
        p.on_message("a0", Phase2b(V, 0), 1.0)
        p.on_message("a1", Phase2b(V, 0), 2.0)
        assert self.one_object(p.propose(V, P1, 3.0), Commit, 2)


class TestProposeGapRepair:
    """The designated proposer asks its leader for each seq that a later
    ProposeRequest revealed and that has not arrived within a timeout."""

    @staticmethod
    def request(p, leader, seq):
        v = VertexId(leader, seq)
        return p.on_message(f"leader-{leader}", ProposeRequest(v, P1), 0.0)

    @staticmethod
    def gap_timers(effects):
        return [e.key for e in effects if isinstance(e, SetTimer) and e.key[0] == "propose-gap"]

    def test_one_gap_timer_per_leader(self):
        p = make_proposer(index=0, total=4, main=2)
        armed = [key for leader, seq in ((0, 2), (0, 4), (0, 3), (2, 1), (2, 3))
                 for key in self.gap_timers(self.request(p, leader, seq))]
        assert armed == [("propose-gap", 0, 2), ("propose-gap", 2, 1)]
        assert self.gap_timers(self.request(p, 0, 0)) == []  # in order: no gap

    def test_only_seqs_below_the_key_are_asked_for(self):
        p = make_proposer(index=0)
        self.request(p, 0, 2)
        self.request(p, 0, 5)
        out = p.on_timer(("propose-gap", 0, 2), 50.0)
        asked = [(e.dst, e.msg) for e in sends(out)]
        assert asked == [("leader-0", ProposeMissing(VertexId(0, 0))),
                         ("leader-0", ProposeMissing(VertexId(0, 1)))]
        assert self.gap_timers(out) == [("propose-gap", 0, 5)]
        # (0, 0) and (0, 1) are asked for already; (0, 3) and (0, 4) now are
        out = p.on_timer(("propose-gap", 0, 5), 100.0)
        assert [e.msg.v.seq for e in sends(out)] == [3, 4]

    def test_asks_again_with_doubling_delays_until_it_arrives(self):
        p = make_proposer(index=0)
        self.request(p, 0, 1)
        v = VertexId(0, 0)
        delays = []
        out = p.on_timer(("propose-gap", 0, 1), 50.0)
        for now in (150.0, 350.0):
            (timer,) = [e for e in out if isinstance(e, SetTimer) and e.key == ("propose-ask", v)]
            delays.append(timer.delay_ms)
            out = p.on_timer(timer.key, now)
            assert [e.msg for e in sends(out)] == [ProposeMissing(v)]
        assert delays == [100.0, 200.0]
        assert sends(self.request(p, 0, 0))  # proposed on arrival
        assert p.on_timer(("propose-ask", v), 750.0) == []

    def test_gap_closed_in_time_sends_nothing(self):
        p = make_proposer(index=0)
        self.request(p, 0, 1)
        self.request(p, 0, 0)
        assert p.on_timer(("propose-gap", 0, 1), 50.0) == []


# --- exhaustive cross-check against an abstract consensus model ----------
#
# The abstract model is written directly from single-decree Paxos semantics
# in a functional style: states are tuples, transitions deliver one message
# from the in-flight set. It shares no code with the implementation.
#
# The implementation side is explored with the same discipline: states are
# (role snapshots, in-flight message set); every in-flight message can be
# delivered at any time and redelivered arbitrarily often. Timer effects are
# not fired, so neither side models retries; both explore exactly the
# delivery interleavings of the first attempt of each proposer.

ACCS = (0, 1, 2)
QUORUM = 2
MAX_ROUND = 3
ROUND_OWNER = {0: 0, 1: 1, 2: 0, 3: 1}  # designated proposer 0, two proposers


def abstract_reachable(values):
    """BFS over the abstract model; returns (chosen value sets, agreement ok).

    Abstract state:
      accs: tuple per acceptor of (promised, voted_round or -1, value idx or -1)
      props: tuple per proposer of (round, phase, frozenset of p1 sources,
             adopted value idx, frozenset of p2 sources)
      msgs: frozenset of in-flight messages (never consumed; redelivery allowed)
    """
    init_props = (
        (0, "p2", frozenset(), 0, frozenset()),  # proposer 0 skips phase 1
        (1, "p1", frozenset(), 1, frozenset()),
    )
    init = ((( -1, -1, -1),) * 3, init_props, frozenset({("p2a", 0, 0, 0, a) for a in ACCS} | {("p1a", 1, 1, a) for a in ACCS}))
    seen = {init}
    frontier = [init]
    chosen_values = set()
    while frontier:
        accs, props, msgs = frontier.pop()
        for m in msgs:
            for nxt in _abstract_step(accs, props, msgs, m):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for pi, (rnd, phase, _p1, val, p2) in enumerate(props):
            if phase == "done":
                chosen_values.add(val)
    # agreement: no reachable state may have two proposers done on
    # different values
    for accs, props, msgs in seen:
        done = {val for (_r, ph, _p1, val, _p2) in props if ph == "done"}
        assert len(done) <= 1, "abstract model found divergent decisions"
    return chosen_values


def _abstract_step(accs, props, msgs, m):
    out = []
    kind = m[0]
    if kind == "p1a":
        _, pi, rnd, a = m
        promised, vr, vv = accs[a]
        if rnd > promised:
            accs2 = accs[:a] + ((rnd, vr, vv),) + accs[a + 1 :]
            out.append((accs2, props, msgs | {("p1b", pi, rnd, a, vr, vv)}))
    elif kind == "p1b":
        _, pi, rnd, a, vr, vv = m
        prnd, phase, p1, val, p2 = props[pi]
        if phase == "p1" and rnd == prnd and a not in p1:
            p1 = p1 | {a}
            new_msgs = msgs
            if len(p1) >= QUORUM:
                # adopt the highest vote among gathered replies
                votes = [
                    (m2[4], m2[5])
                    for m2 in msgs
                    if m2[0] == "p1b" and m2[1] == pi and m2[2] == rnd and m2[3] in p1
                ] + [(vr, vv)]
                best = max(votes, key=lambda t: t[0])
                adopted = best[1] if best[0] >= 0 else val
                phase = "p2"
                p2 = frozenset()
                new_msgs = msgs | {("p2a", pi, rnd, adopted, a2) for a2 in ACCS}
                val = adopted
            props2 = props[:pi] + ((prnd, phase, p1, val, p2),) + props[pi + 1 :]
            out.append((accs, props2, new_msgs))
    elif kind == "p2a":
        _, pi, rnd, vidx, a = m
        promised, vr, vv = accs[a]
        if rnd >= promised:
            accs2 = accs[:a] + ((rnd, rnd, vidx),) + accs[a + 1 :]
            out.append((accs2, props, msgs | {("p2b", pi, rnd, a)}))
    elif kind == "p2b":
        _, pi, rnd, a = m
        prnd, phase, p1, val, p2 = props[pi]
        if phase == "p2" and rnd == prnd and a not in p2:
            p2 = p2 | {a}
            if len(p2) >= QUORUM:
                phase = "done"
            props2 = props[:pi] + ((prnd, phase, p1, val, p2),) + props[pi + 1 :]
            out.append((accs, props2, msgs))
    # proposer retry on higher promise is modelled by allowing a fresh
    # phase-1 at the proposer's next owned round (bounded by MAX_ROUND)
    if kind in ("p1a", "p2a"):
        pass
    return out


class _ImplExplorer:
    """Exhaustively explores the real roles over all delivery interleavings.

    State = (captured role state, in-flight message set). Deliveries consume
    their message; a message that would have been "dropped" is simply
    delivered after the competition has moved on, which covers the same
    outcomes. Duplicate-delivery robustness and timer-driven retries are
    unit-tested separately; firing backoff timers inside the exploration
    blows the space up without adding reachable decisions.
    """

    def __init__(self, own_values, max_round=MAX_ROUND):
        self.values = list(own_values)
        self.max_round = max_round
        self.accs = [Acceptor(f"a{i}") for i in range(3)]
        self.props = [
            Proposer(
                f"prop-{i}",
                index=i,
                num_main_proposers=1,
                num_total_proposers=len(own_values),
                f=1,
                acceptors=["a0", "a1", "a2"],
                replicas=[],
                rng=random.Random(1 + i),
            )
            for i in range(len(own_values))
        ]
        self.roles = {r.name: r for r in self.accs + self.props}
        self.msg_ids: dict = {}
        self.msg_by_id: list = []

    def _vid(self, value):
        return -1 if value is None else self.values.index(value)

    def _intern(self, triple):
        mid = self.msg_ids.get(triple)
        if mid is None:
            mid = self.msg_ids[triple] = len(self.msg_by_id)
            self.msg_by_id.append(triple)
        return mid

    def _capture(self):
        acc_part = tuple(
            (s.promised, s.voted_round, self._vid(s.voted_value))
            if (s := a.slots.get(V))
            else None
            for a in self.accs
        )
        prop_part = tuple(
            (
                inst.round,
                inst.phase,
                tuple(sorted((k, (vr if vr is not None else -1, self._vid(vv)))
                             for k, (vr, vv) in inst.p1_replies.items())),
                self._vid(inst.p2_value),
                tuple(sorted(inst.p2_acks)),
                self._vid(inst.chosen),
                inst.attempts,
            )
            if (inst := p.instances.get(V))
            else None
            for p in self.props
        )
        return (acc_part, prop_part)

    def _restore(self, key):
        from graphsmr.consensus import AcceptorSlot, _Instance

        acc_part, prop_part = key
        for a, slot in zip(self.accs, acc_part):
            if slot is None:
                a.slots = {}
            else:
                promised, vr, vvid = slot
                a.slots = {V: AcceptorSlot(promised, vr, self._val(vvid))}
        for p, snap in zip(self.props, prop_part):
            if snap is None:
                p.instances = {}
            else:
                rnd, phase, p1, p2vid, p2, chosenid, attempts = snap
                inst = _Instance(value=self.values[self.props.index(p)], round=rnd, phase=phase)
                inst.p1_replies = {
                    k: (vr if vr >= 0 else None, self._val(vvid))
                    for k, (vr, vvid) in p1
                }
                inst.p2_value = self._val(p2vid)
                inst.p2_acks = set(p2)
                inst.chosen = self._val(chosenid)
                inst.attempts = attempts
                p.instances = {V: inst}

    def _val(self, vid):
        return None if vid < 0 else self.values[vid]

    def explore(self):
        msgs0 = set()
        for p, value in zip(self.props, self.values):
            for e in p.propose(V, value, 0.0):
                if isinstance(e, Send):
                    msgs0.add(self._intern((p.name, e.dst, e.msg)))
        init = (self._capture(), frozenset(msgs0))
        seen = {init}
        frontier = [init]
        chosen_ids = set()

        def step(rkey, msgs, actor, run):
            self._restore(rkey)
            effs = run()
            for p in self.props:
                inst = p.instances.get(V)
                if inst is not None and inst.round > self.max_round:
                    return
            new = msgs | frozenset(
                self._intern((actor, e.dst, e.msg))
                for e in effs
                if isinstance(e, Send)
            )
            nkey = (self._capture(), new)
            if nkey in seen:
                return
            seen.add(nkey)
            frontier.append(nkey)
            done = set()
            for p in self.props:
                inst = p.instances.get(V)
                if inst is not None and inst.chosen is not None:
                    done.add(self._vid(inst.chosen))
            assert len(done) <= 1, "implementation reached divergent decisions"
            chosen_ids.update(done)

        while frontier:
            rkey, msgs = frontier.pop()
            for mid in msgs:
                src, dst, msg = self.msg_by_id[mid]
                step(
                    rkey,
                    msgs - {mid},
                    dst,
                    lambda: self.roles[dst].on_message(src, msg, 0.0),
                )
        return chosen_ids, len(seen)


def test_impl_reachable_outcomes_match_abstract_model():
    """Drive the real roles through every message interleaving (rounds <= 3,
    no timer-driven retries) and compare committable values with the
    abstract enumeration."""
    expected = abstract_reachable([P1, P2])
    assert expected == {0, 1}  # both proposals can win a race

    explorer = _ImplExplorer([P1, P2])
    chosen, states = explorer.explore()
    assert states > 100  # sanity: the space was actually explored
    assert chosen == expected


def test_noop_recovery_race_agreement():
    """A recovery proposer pushing a noop races the designated proposer;
    either value may be chosen but never both."""
    explorer = _ImplExplorer([P1, NOOP_PROPOSAL])
    chosen, _states = explorer.explore()
    assert chosen == {0, 1}
