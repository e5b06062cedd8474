import dataclasses
import gc
import random
import typing
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzz_helpers import (
    commit_holes, conflicts, fuzz_config, mutation_config, on_each_transport,
    ordered_unlinked_pairs, pairwise_conflict_violations, random_workload, run_fingerprint,
    short_scenario,
)
from graphsmr import messages
from graphsmr.bench import BenchConfig, generate_workload, sim_config_for
from graphsmr.consensus import AcceptorSlot, ChosenEvent, _Instance
from graphsmr.core import (
    Batch, Get, NOOP, NOOP_PROPOSAL, Proposal, Set, VertexId, CompactDeps, ExactDeps,
    EMPTY_DEPS, Command,
)
from graphsmr.harness import (
    ALL_MUTATIONS,
    ClosedLoopClient,
    ConfigError,
    Crash,
    LinkFault,
    NO_TIMEOUTS,
    Partition,
    SimConfig,
    build_cluster,
    check_history,
    export_history,
    role_loads,
    run_simulation,
)
from graphsmr.harness import history as history_module
from graphsmr.harness.history import Invoke, Reply
from graphsmr.harness.sim import Simulation
from graphsmr.leader import AssignEvent, _Pending
from graphsmr.messages import ClientResponse, Send, SetTimer
from graphsmr.replica import CommitSeen, ExecEvent, Replica, RespondEvent
from graphsmr.sockets import SocketCluster


def simple_workload(clients=2, commands=3):
    rng = random.Random(99)
    return random_workload(rng, clients, commands, 0.3)


# the name of every role and client of a default SimConfig's simple_workload()
EVERY_NODE = frozenset(build_cluster(SimConfig(), simple_workload())[0])


def pinned_runs():
    """name -> (config, workload, faults): small seeded runs that between
    them take every branch of the simulator's send and delivery paths."""

    def workload(seed, clients, commands):
        return random_workload(random.Random(f"pin/{seed}"), clients, commands, 0.5)

    loss = LinkFault("*", "*", drop=0.05, dup=0.05)
    return {
        "lossy-leader-crash": (
            SimConfig(seed=31, max_delay_ms=3.0), workload(31, 4, 6),
            [Crash("leader-1", 20.0), loss],
        ),
        "compact-batch4-thrifty": (
            SimConfig(seed=32, max_delay_ms=2.0, compact_deps=True, batch_size=4,
                      thrifty=True),
            workload(32, 6, 6), [],
        ),
        "healing-partition": (
            SimConfig(seed=33, max_delay_ms=3.0), workload(33, 3, 4),
            [Partition(frozenset({"leader-0", "rep-1", "acc-2"}), 5.0, 60.0)],
        ),
        "dead-link": (
            SimConfig(seed=34), workload(34, 3, 4), [LinkFault("leader-0", "dep-0", drop=1.0)]
        ),
        "coupled": (
            SimConfig(seed=35, coupled=True, leaders=3, replicas=3, max_delay_ms=2.0,
                      service_cost_ms=0.1),
            workload(35, 3, 4), [],
        ),
        "wire-trace": (
            SimConfig(seed=36, capture_wire_trace=True, max_delay_ms=3.0), workload(36, 3, 5),
            [loss],
        ),
    }


# run_fingerprint digests of pinned_runs()
PINNED_FINGERPRINTS = {
    "lossy-leader-crash": "798b8a46d9094d0a3e30a9cfc87af211e2672d91b0d70f42d65623deb1e1c854",
    "compact-batch4-thrifty": "3ca31877cbb8305b114268cf06ce3b82b9d97988cd14f568fa2139e2e6651029",
    "healing-partition": "ccf0091c7038eff6a21cb85a26f091a77edc35be947278a1e0f35585b4843c97",
    "dead-link": "b72cca6e002ccd91a3b2891ba41b6c3c41a29100f1a54653810409bfcb76587a",
    "coupled": "924e2bb98304430b62d520a63340d2ac98fd0c84ec3f4672875493fbadf1ecc2",
    "wire-trace": "5b6334b87bf3b804415443bd7a864e7c607c5fb4edc63493a1bc918f803adbb2",
}


class TestDeterminism:
    def test_same_seed_byte_identical_history(self):
        cfg = dict(seed=7, min_delay_ms=1.0, max_delay_ms=9.0)
        loss = [LinkFault("*", "*", drop=0.1, dup=0.05)]
        a = run_simulation(SimConfig(**cfg), simple_workload(), loss)
        b = run_simulation(SimConfig(**cfg), simple_workload(), loss)
        assert export_history(a.history) == export_history(b.history)

    def test_different_seed_differs(self):
        a = run_simulation(SimConfig(seed=1, max_delay_ms=9.0), simple_workload())
        b = run_simulation(SimConfig(seed=2, max_delay_ms=9.0), simple_workload())
        assert export_history(a.history) != export_history(b.history)

    def test_pinned_fingerprints(self):
        """Each run's history text, wire trace, sent and received counts and
        end time hash to the digest pinned here, so a change to the simulator
        or a role that alters any of them fails. A change that alters them on
        purpose updates the pins and says so in CHANGES.md."""
        got = {name: run_fingerprint(run_simulation(*run)) for name, run in pinned_runs().items()}
        assert got == PINNED_FINGERPRINTS


class TestEventLoop:
    def test_handlers_shadowed_after_construction_are_called(self):
        sim = Simulation(SimConfig(seed=1), simple_workload())
        calls = Counter()

        def counting(kind, handler):
            def wrapped(*args):
                calls[kind] += 1
                return handler(*args)

            return wrapped

        replica, client = sim.roles["rep-0"], sim.roles["client-0"]
        replica.on_message = counting("message", replica.on_message)
        client.on_timer = counting("timer", client.on_timer)
        res = sim.run()
        assert res.completed
        assert calls["message"] == res.received["rep-0"] > 0
        assert calls["timer"] > 0

    def test_partition_checked_at_every_send(self):
        # zero jitter and no service cost: every message arrives exactly
        # 1 ms after it was sent
        sim = Simulation(SimConfig(seed=2), simple_workload(clients=4, commands=10),
                         [Partition(frozenset({"leader-0"}), 10.0, 60.0)])
        crossing = []  # send times of messages delivered across the cut
        for node, role in sim.roles.items():
            def recorded(src, msg, now, node=node, handler=role.on_message):
                if (src == "leader-0") != (node == "leader-0"):
                    crossing.append(now - 1.0)
                return handler(src, msg, now)

            role.on_message = recorded
        res = sim.run()
        assert res.completed
        assert not [t for t in crossing if 10.0 <= t < 60.0]
        assert [t for t in crossing if t < 10.0] and [t for t in crossing if t >= 60.0]

    def test_no_timer_past_the_cap_is_queued(self):
        """With timeouts of 1e9 ms no timer can fire before the 60 s cap, so
        the simulator queues none of them, and a loss-free run ends with
        nothing left in its heap."""
        sim = Simulation(SimConfig(seed=3, max_delay_ms=2.0, timeouts=NO_TIMEOUTS),
                         simple_workload(clients=4, commands=10))
        res = sim.run()
        assert res.completed
        assert sim.heap == []

    @pytest.mark.parametrize("transport", ["sim", "socket"])
    def test_run_ends_at_the_last_reply(self, transport):
        """Throughput counts the run, not the settling or the shutdown: on
        either transport the end is the last reply, on the clock the
        handlers saw. Closing the sockets does not count."""
        if transport == "sim":
            res = run_simulation(*pinned_runs()["lossy-leader-crash"])
        else:
            workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
            res = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload).run()
        assert res.completed
        assert res.end_ms == max(done for c in res.clients for _sent, done in c.reply_times)


class TestEightDelays:
    def test_unloaded_zero_jitter_latency_is_eight_link_delays(self):
        for delay in (1.0, 2.5):
            res = run_simulation(
                SimConfig(seed=0, min_delay_ms=delay, max_delay_ms=delay),
                simple_workload(clients=1, commands=4),
            )
            assert res.completed
            assert res.latencies_ms() == [8 * delay] * 4


class TestMessageCounts:
    def run_loads(self, f, leaders, replicas):
        res = run_simulation(
            SimConfig(seed=11, f=f, leaders=leaders, replicas=replicas),
            simple_workload(clients=4, commands=5),
        )
        assert res.completed
        assert check_history(res.history).ok
        return role_loads(res)

    def test_f1_r2_formulas(self):
        # N = 3: leader 2N+2 = 8, proposer 2N+R+1 = 9, dep 2, acceptor 2,
        # replica 1 + 1/R = 3/2; exact integers/rationals, zero tolerance
        loads = self.run_loads(f=1, leaders=2, replicas=2)
        assert loads["leader"] == 8
        assert loads["proposer"] == 9
        assert loads["dep"] == 2
        assert loads["acceptor"] == 2
        assert loads["replica"] == Fraction(3, 2)

    def test_f2_r3_formulas(self):
        # N = 5: leader 12, proposer 14, replica 4/3
        loads = self.run_loads(f=2, leaders=3, replicas=3)
        assert loads["leader"] == 12
        assert loads["proposer"] == 14
        assert loads["dep"] == 2
        assert loads["acceptor"] == 2
        assert loads["replica"] == Fraction(4, 3)

    def test_more_leaders_leave_per_command_loads_unchanged(self):
        loads = self.run_loads(f=1, leaders=4, replicas=2)
        assert loads["leader"] == 8
        assert loads["proposer"] == 9


MESSAGE_CLASSES = typing.get_args(messages.Message)
VALUE_CLASSES = (Command, Get, Set, Batch, type(NOOP), ExactDeps, CompactDeps, Proposal)
EFFECT_CLASSES = typing.get_args(messages.Effect)
EVENT_CLASSES = (Invoke, Reply, AssignEvent, ChosenEvent, CommitSeen, ExecEvent, RespondEvent)
STATE_CLASSES = (AcceptorSlot, _Instance, _Pending)


def placeholder(cls):
    """An instance with None in every field: only its shape is tested."""
    return cls(*[None] * len(dataclasses.fields(cls)))


class TestObjectContracts:
    """A fan-out shares one message object between its destinations, and
    the same proposal, command and dependency set ride on many messages, so
    none of them may change once built. Messages, effects, history records
    and per-vertex role state are built on every event, so each keeps its
    fields in slots, with no per-instance dict."""

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES + VALUE_CLASSES, ids=lambda c: c.__name__)
    def test_shared_values_reject_assignment(self, cls):
        value = placeholder(cls)
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, None)

    @pytest.mark.parametrize(
        "cls",
        MESSAGE_CLASSES + VALUE_CLASSES + EFFECT_CLASSES + EVENT_CLASSES + STATE_CLASSES,
        ids=lambda c: c.__name__,
    )
    def test_hot_records_have_no_instance_dict(self, cls):
        assert not hasattr(placeholder(cls), "__dict__")


class TestVertexIdInvariants:
    def test_ids_unique_and_contiguous_per_leader(self):
        res = run_simulation(
            SimConfig(seed=3, max_delay_ms=6.0),
            simple_workload(clients=3, commands=4),
            [LinkFault("*", "*", drop=0.1)],
        )
        per_leader: dict[str, list[int]] = {}
        seen = set()
        for _t, _n, ev in res.history:
            if isinstance(ev, AssignEvent):
                assert ev.v not in seen
                seen.add(ev.v)
                per_leader.setdefault(ev.leader, []).append(ev.v.seq)
        for leader, seqs in per_leader.items():
            assert seqs == list(range(len(seqs)))


class TestFaults:
    def test_leader_crash_clients_still_answered(self):
        # one crash total: within the global failure budget, so the run
        # must complete, not merely stay safe
        res = run_simulation(
            SimConfig(seed=21, max_delay_ms=4.0, max_sim_ms=120_000),
            simple_workload(clients=3, commands=4),
            [Crash("leader-1", 30.0)],
        )
        assert res.completed
        assert check_history(res.history).ok

    def test_partition_heals_and_run_completes(self):
        res = run_simulation(
            SimConfig(seed=22, max_delay_ms=3.0, max_sim_ms=120_000),
            simple_workload(clients=2, commands=3),
            [Partition(frozenset({"rep-1", "acc-2"}), 10.0, 400.0)],
        )
        assert res.completed
        assert check_history(res.history).ok

    def test_link_fault_overrides_probabilities(self):
        res = run_simulation(
            SimConfig(seed=23, max_sim_ms=120_000),
            simple_workload(clients=2, commands=3),
            [LinkFault("leader-0", "dep-0", drop=1.0)],
        )
        assert res.completed
        assert res.received.get("dep-0", 0) < res.received["dep-1"]

    @pytest.mark.parametrize("config, partial, whole", [
        # a duplicate fault keeps the run-wide drop probability on its links
        pytest.param(SimConfig(seed=24),
                     [LinkFault("*", "rep-0", dup=0.25), LinkFault("*", "*", drop=0.2)],
                     [LinkFault("*", "rep-0", drop=0.2, dup=0.25),
                      LinkFault("*", "*", drop=0.2)], id="run-drop-kept"),
        # a later fault sets what an earlier matching one leaves unset
        pytest.param(SimConfig(seed=24),
                     [LinkFault("*", "*", drop=0.2), LinkFault("leader-0", "*", dup=1.0)],
                     [LinkFault("leader-0", "*", drop=0.2, dup=1.0),
                      LinkFault("*", "*", drop=0.2)], id="later-dup-applies"),
    ])
    def test_link_fault_overrides_only_the_probabilities_it_sets(self, config, partial, whole):
        workload = simple_workload(clients=2, commands=3)
        assert (run_fingerprint(run_simulation(config, workload, partial))
                == run_fingerprint(run_simulation(config, workload, whole)))

    def test_clients_of_a_crashed_leader_move_to_a_live_one(self):
        # no loss: the only retries are those of commands sent to the dead
        # leader, so once a client has seen leader-1 time out and leader-0
        # answer, its later commands go to leader-0 first
        res = run_simulation(
            SimConfig(seed=41, max_delay_ms=3.0, max_sim_ms=120_000),
            random_workload(random.Random(41), 6, 20, 0.3),
            [Crash("leader-1", 20.0)],
        )
        assert res.completed
        assert check_history(res.history).ok
        medians = {}
        for base in (0, 1):
            latencies = sorted(done - sent for c in res.clients if c.base_leader == base
                               for sent, done in c.reply_times)
            medians[base] = latencies[len(latencies) // 2]
        assert medians[1] <= 2 * medians[0], medians

    def test_recovery_noop_fills_stuck_vertex(self):
        from graphsmr.harness.history import check_history as check

        workload = [[Set(b"hot", b"a")], [Set(b"hot", b"b")]]
        res = run_simulation(
            SimConfig(seed=5, max_sim_ms=30_000),
            workload,
            [Crash("leader-0", 1.5)],
        )
        assert res.completed
        assert check(res.history).ok
        noop_vertices = {
            ev.v
            for _t, _n, ev in res.history
            if isinstance(ev, CommitSeen) and ev.proposal.cmd == NOOP
        }
        assert VertexId(0, 0) in noop_vertices


class TestCoupledMode:
    def test_coupled_requires_square_deployment(self):
        with pytest.raises(ConfigError):
            run_simulation(
                SimConfig(seed=0, coupled=True, leaders=2, replicas=2),
                simple_workload(),
            )

    def test_coupled_smoke(self):
        res = run_simulation(
            SimConfig(seed=1, coupled=True, leaders=3, replicas=3),
            simple_workload(clients=2, commands=3),
        )
        assert res.completed
        assert check_history(res.history).ok
        # co-located hops skip the network: fewer than 8 delays end to end
        assert max(res.latencies_ms()) < 8.0


class TestConfigValidation:
    def test_too_few_leaders_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(seed=0, f=2, leaders=2, replicas=3), simple_workload())

    def test_too_few_replicas_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(seed=0, f=2, leaders=3, replicas=2), simple_workload())

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(seed=0), simple_workload(), [LinkFault("*", "*", dup=1.5)])

    @pytest.mark.parametrize("fault, transport", on_each_transport([
        pytest.param(LinkFault("*", "*", drop=1.5), id="fault0"),
        pytest.param(LinkFault("leader-0", "*", dup=-0.1), id="fault1"),
        # faults that can never fire: a node the cluster lacks, a partition
        # that does not end after it starts or that cuts no link, or a link
        # fault that sets no probability
        pytest.param(Crash("leader-9", 10.0), id="crash-unknown-node"),
        pytest.param(Partition(frozenset({"rep-0", "rep0"}), 5.0, 60.0),
                     id="partition-unknown-node"),
        pytest.param(Partition(frozenset({"rep-0"}), 60.0, 5.0), id="partition-inverted"),
        pytest.param(Partition(frozenset({"rep-0"}), 50.0, 50.0), id="partition-empty"),
        pytest.param(LinkFault("*", "dep-7", drop=0.5), id="link-unknown-dst"),
        pytest.param(LinkFault("leader0", "*", dup=0.5), id="link-unknown-src"),
        pytest.param(LinkFault("*", "*"), id="link-sets-nothing"),
        pytest.param(Partition(frozenset(), 5.0, 60.0), id="partition-no-node"),
        pytest.param(Partition(EVERY_NODE, 5.0, 60.0), id="partition-every-node"),
    ]))
    def test_bad_link_fault_probability_rejected(self, fault, transport):
        """Both transports validate faults in Simulation's constructor."""
        with pytest.raises(ConfigError):
            transport(SimConfig(seed=0), simple_workload(), [fault])

    @pytest.mark.parametrize("delays", [
        dict(min_delay_ms=-1.0, max_delay_ms=1.0),
        dict(min_delay_ms=3.0, max_delay_ms=2.0),
        dict(service_cost_ms=-0.5),
    ], ids=["negative-delay", "inverted-delays", "negative-service-cost"])
    def test_bad_delays_rejected(self, delays):
        with pytest.raises(ConfigError, match="delay|service_cost"):
            run_simulation(SimConfig(seed=0, **delays), simple_workload())

    @pytest.mark.parametrize("cap", [
        dict(batch_size=0),
        dict(batch_size=-3),
        dict(max_sim_ms=0.0),
        dict(max_sim_ms=-5.0),
    ], ids=["zero-batch", "negative-batch", "zero-cap", "negative-cap"])
    def test_bad_batch_or_cap_rejected(self, cap):
        with pytest.raises(ConfigError, match="batch_size|time cap"):
            run_simulation(SimConfig(seed=0, **cap), simple_workload())


class TestCheckerOnSyntheticHistories:
    """The checker must judge histories on their own terms, so feed it
    hand-built records with known defects."""

    V1, V2 = VertexId(0, 0), VertexId(1, 0)
    W1 = Command("ca", 1, Set(b"k", b"1"))
    W2 = Command("cb", 1, Set(b"k", b"2"))

    def _rec(self, i, ev):
        return (float(i), i, ev)

    def test_clean_history_ok(self):
        p1 = Proposal(self.W1, EMPTY_DEPS)
        p2 = Proposal(self.W2, ExactDeps(frozenset({self.V1})))
        records = [
            self._rec(0, CommitSeen("rep-0", self.V1, p1)),
            self._rec(1, ExecEvent("rep-0", self.V1, "ca", 1, self.W1.op, True, b"OK", 0)),
            self._rec(2, CommitSeen("rep-0", self.V2, p2)),
            self._rec(3, ExecEvent("rep-0", self.V2, "cb", 1, self.W2.op, True, b"OK", 1)),
        ]
        assert check_history(records).ok

    def test_vertex_agreement_violation(self):
        records = [
            self._rec(0, CommitSeen("rep-0", self.V1, Proposal(self.W1, EMPTY_DEPS))),
            self._rec(1, CommitSeen("rep-1", self.V1, Proposal(self.W2, EMPTY_DEPS))),
        ]
        verdict = check_history(records)
        assert not verdict.ok
        assert verdict.violations[0].kind == "per-vertex-agreement"
        assert len(verdict.violations[0].events) == 2

    @pytest.mark.parametrize(
        "first_deps, second_deps, flagged",
        [
            (EMPTY_DEPS, EMPTY_DEPS, True),
            # the first vertex is (0, 3): a watermark of 2 stops one short
            (CompactDeps((None, None)), CompactDeps((2, None)), True),
            (CompactDeps((None, None)), CompactDeps((3, None)), False),
            # a tuple shorter than the leader count reads as None past its end:
            # on the first vertex's side, then on the second's
            (CompactDeps((None,)), CompactDeps((2,)), True),
            (CompactDeps((None,)), CompactDeps((3,)), False),
            (CompactDeps((None,)), CompactDeps(()), True),
        ],
        ids=["exact-empty", "compact-one-short", "compact-covers",
             "compact-short-one-short", "compact-short-covers", "compact-empty-tuple"],
    )
    def test_dependency_invariant_violation(self, first_deps, second_deps, flagged):
        first = VertexId(0, 3)
        records = [
            self._rec(0, CommitSeen("rep-0", first, Proposal(self.W1, first_deps))),
            self._rec(1, CommitSeen("rep-0", self.V2, Proposal(self.W2, second_deps))),
        ]
        verdict = check_history(records)
        assert any(v.kind == "dependency-invariant" for v in verdict.violations) == flagged

    def test_conflicting_order_violation(self):
        p1 = Proposal(self.W1, ExactDeps(frozenset({self.V2})))
        p2 = Proposal(self.W2, ExactDeps(frozenset({self.V1})))
        records = [
            self._rec(0, CommitSeen("rep-0", self.V1, p1)),
            self._rec(1, CommitSeen("rep-0", self.V2, p2)),
            self._rec(2, ExecEvent("rep-0", self.V1, "ca", 1, self.W1.op, True, b"OK", 0)),
            self._rec(3, ExecEvent("rep-0", self.V2, "cb", 1, self.W2.op, True, b"OK", 1)),
            self._rec(4, ExecEvent("rep-1", self.V2, "cb", 1, self.W2.op, True, b"OK", 0)),
            self._rec(5, ExecEvent("rep-1", self.V1, "ca", 1, self.W1.op, True, b"OK", 1)),
        ]
        verdict = check_history(records)
        assert any(v.kind == "conflicting-order" for v in verdict.violations)

    def test_read_on_opposite_sides_of_write_is_conflicting_order(self):
        read = Command("ca", 1, Get(b"k"))
        p1 = Proposal(read, ExactDeps(frozenset({self.V2})))
        p2 = Proposal(self.W2, ExactDeps(frozenset({self.V1})))
        records = [
            self._rec(0, CommitSeen("rep-0", self.V1, p1)),
            self._rec(1, CommitSeen("rep-0", self.V2, p2)),
            self._rec(2, ExecEvent("rep-0", self.V1, "ca", 1, read.op, True, None, 0)),
            self._rec(3, ExecEvent("rep-0", self.V2, "cb", 1, self.W2.op, True, b"OK", 1)),
            self._rec(4, ExecEvent("rep-1", self.V2, "cb", 1, self.W2.op, True, b"OK", 0)),
            self._rec(5, ExecEvent("rep-1", self.V1, "ca", 1, read.op, True, b"2", 1)),
        ]
        verdict = check_history(records)
        assert [v.kind for v in verdict.violations] == ["conflicting-order"]
        assert [rec[0] for rec in verdict.violations[0].events] == [2.0, 3.0, 5.0, 4.0]

    def test_pair_conflicting_on_two_keys_reported_once(self):
        b1 = Batch((Command("ca", 1, Set(b"a", b"1")), Command("ca", 2, Set(b"b", b"1"))))
        b2 = Batch((Command("cb", 1, Set(b"a", b"2")), Command("cb", 2, Get(b"b"))))
        records = [
            self._rec(0, CommitSeen("rep-0", self.V1, Proposal(b1, EMPTY_DEPS))),
            self._rec(1, CommitSeen("rep-0", self.V2, Proposal(b2, EMPTY_DEPS))),
        ]
        verdict = check_history(records)
        assert [v.kind for v in verdict.violations] == ["dependency-invariant"]

    def test_replicas_compared_on_vertices_both_applied(self):
        # rep-0 never applies the read and rep-1 never applies the first
        # write; on the vertices they share, the order agrees
        v1, v2, v3, v4 = (VertexId(0, 0), VertexId(1, 0), VertexId(0, 1), VertexId(1, 1))
        cmds = {
            v1: Command("ca", 1, Set(b"k", b"1")),
            v2: Command("cb", 1, Set(b"k", b"2")),
            v3: Command("cc", 1, Set(b"k", b"3")),
            v4: Command("cd", 1, Get(b"k")),
        }
        records = [
            self._rec(i, CommitSeen("rep-0", v, Proposal(c, ExactDeps(frozenset(cmds) - {v}))))
            for i, (v, c) in enumerate(cmds.items())
        ]

        def run(replica, order, start):
            return [
                self._rec(start + i, ExecEvent(replica, v, None, None, None, applied, None, i))
                for i, (v, applied) in enumerate(order)
            ]

        records += run("rep-0", [(v1, True), (v2, True), (v3, True), (v4, False)], 4)
        records += run("rep-1", [(v4, True), (v2, True), (v3, True)], 8)
        assert check_history(records).ok

    def test_exactly_once_violation(self):
        records = [
            self._rec(0, ExecEvent("rep-0", self.V1, "ca", 1, self.W1.op, True, b"OK", 0)),
            self._rec(1, ExecEvent("rep-0", self.V2, "ca", 1, self.W1.op, True, b"OK", 1)),
        ]
        verdict = check_history(records)
        assert any(v.kind == "exactly-once" for v in verdict.violations)

    def test_skip_without_application_violation(self):
        records = [
            self._rec(0, ExecEvent("rep-0", self.V1, "ca", 1, self.W1.op, False, None, 0)),
        ]
        verdict = check_history(records)
        assert any(v.kind == "skipped-unexecuted" for v in verdict.violations)

    def test_unbacked_response_violation(self):
        records = [
            self._rec(0, RespondEvent("rep-0", self.V1, "ca", 1, True, b"OK")),
        ]
        verdict = check_history(records)
        assert any(v.kind == "unbacked-response" for v in verdict.violations)

    def test_replayed_state_divergence(self):
        set_a = Command("ca", 1, Set(b"a", b"1"))
        get_b = Command("cb", 1, Get(b"b"))
        records = [
            self._rec(0, ExecEvent("rep-0", self.V1, "ca", 1, set_a.op, True, b"OK", 0)),
            self._rec(1, ExecEvent("rep-0", self.V2, "cb", 1, get_b.op, True, None, 1)),
            self._rec(2, ExecEvent("rep-1", self.V2, "cb", 1, get_b.op, True, None, 0)),
            self._rec(3, ExecEvent("rep-1", self.V1, "ca", 1, set_a.op, False, None, 1)),
        ]
        verdict = check_history(records)
        assert any(v.kind == "replayed-state-divergence" for v in verdict.violations)

    def test_replay_output_mismatch(self):
        """One replica's own replay judges each output it recorded: the
        Get after Set a=1 must read b"1", and a Set must answer SET_ACK."""
        set_a, get_a = Set(b"a", b"1"), Get(b"a")
        records = [
            self._rec(0, ExecEvent("rep-0", self.V1, "ca", 1, set_a, True, b"OK", 0)),
            self._rec(1, ExecEvent("rep-0", self.V2, "cb", 1, get_a, True, None, 1)),
            self._rec(2, ExecEvent("rep-0", VertexId(0, 1), "cc", 1, set_a, True, None, 2)),
        ]
        verdict = check_history(records)
        assert [v.kind for v in verdict.violations] == ["replay-output-mismatch"] * 2
        assert [v.events for v in verdict.violations] == [records[1:2], records[2:3]]


KEYS = (b"a", b"b", b"c")


@st.composite
def adversarial_watermarks(draw, ids, deps, v):
    """Compact deps covering `deps`, then each leader's watermark kept, made
    None, set just below, at or just above the seq of another vertex of that
    leader, or set past the leader's highest seq."""
    marks = list(CompactDeps.covering(deps, 3).watermarks)
    for i in range(3):
        seqs = [u.seq for u in ids if u.leader_index == i and u != v]
        fate = draw(st.sampled_from(("keep", "keep", "none", "partner", "past")))
        if fate == "none":
            marks[i] = None
        elif fate == "partner" and seqs:
            w = draw(st.sampled_from(seqs)) + draw(st.integers(-1, 1))
            marks[i] = w if w >= 0 else None
        elif fate == "past":
            marks[i] = max(seqs, default=0) + draw(st.integers(1, 2))
    return CompactDeps(tuple(marks))


@st.composite
def conflicting_histories(draw):
    """Commit and execution records over one to three keys: batches that may
    read and write one key, noops with empty deps, and exact or compact deps
    (or both, vertex by vertex) with some conflicting edges dropped and
    compact watermarks moved to adversarial values, committed in a drawn
    order; then two or three replicas that each apply a perturbed vertex
    order with some vertices left out or skipped."""
    keys = KEYS[: draw(st.integers(1, 3))]
    op = st.one_of(
        st.builds(Get, st.sampled_from(keys)),
        st.builds(Set, st.sampled_from(keys), st.just(b"v")),
    )
    ids = sorted(draw(st.lists(
        st.builds(VertexId, st.integers(0, 2), st.integers(0, 3)),
        min_size=2, max_size=8, unique=True,
    )))
    cmds = {}
    for v in ids:
        ops = draw(st.lists(op, max_size=3))
        cmds[v] = Batch(tuple(Command("c", i, o) for i, o in enumerate(ops))) if ops else NOOP
    formats = draw(st.sampled_from((("exact",), ("compact",), ("exact", "compact"))))
    records = []
    for v in draw(st.permutations(ids)):
        if cmds[v] == NOOP:
            proposal = NOOP_PROPOSAL
        else:
            # every conflicting vertex, less about one edge in four
            deps = [
                u for u in ids
                if u != v and conflicts(cmds[u], cmds[v]) and draw(st.integers(0, 3)) > 0
            ]
            if draw(st.sampled_from(formats)) == "exact":
                proposal = Proposal(cmds[v], ExactDeps(frozenset(deps)))
            else:
                proposal = Proposal(cmds[v], draw(adversarial_watermarks(ids, deps, v)))
        records.append((0.0, len(records), CommitSeen("rep-0", v, proposal)))
    for r in range(draw(st.integers(2, 3))):
        order = list(ids)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(order) - 2))
            order[i], order[i + 1] = order[i + 1], order[i]
        position = 0
        for v in order:
            fate = draw(st.sampled_from(("applied", "applied", "applied", "skipped", "missing")))
            if fate != "missing":
                ev = ExecEvent(f"rep-{r}", v, None, None, None, fate == "applied", None, position)
                records.append((1.0, len(records), ev))
                position += 1
    return records


@settings(max_examples=600, deadline=None)
@given(conflicting_histories())
def test_checker_agrees_with_pairwise_oracle(records):
    expected = pairwise_conflict_violations(records)
    verdict = check_history(records)
    assert verdict.ok == (not expected)
    assert {v.kind for v in verdict.violations} == {kind for kind, _ in expected}
    unlinked = Counter(
        frozenset(rec[2].v for rec in v.events)
        for v in verdict.violations
        if v.kind == "dependency-invariant"
    )
    assert unlinked == Counter(pair for kind, pair in expected if kind == "dependency-invariant")
    in_order = [
        tuple(rec[2].v for rec in v.events)
        for v in verdict.violations
        if v.kind == "dependency-invariant"
    ]
    assert in_order == ordered_unlinked_pairs(records)


# run_fingerprint digests of mutation_config(name, 0, ALL_MUTATIONS[name]).
# Two of the runs lose messages, so they changed when lost Commits and
# proposals began to be repaired; in dep-quorum-one, which loses none, a
# leader idles for 50 ms and resends its latest proposal.
MUTATION_FINGERPRINTS = {
    "dep-quorum-one": "61b8b71c939775db6e3cb188118d860842b147f1f46c51bd50225703bf9245af",
    "acceptor-ignores-promises": "f72160088a5c981ea6c8255fa37fb77e574eb82a2f9f7fe106a9112063ede967",
    "replica-skip-scc": "4f4b2e61e22d4d2d8d1593116c6e5ca441a6b470aef7290e029437791f587207",
    "client-table-largest-only": "6b68ced60adcf09acb09b0430eda3a53dcebb69a55539ce3a20d2a9e988ff8f5",
}


class TestMutationDetection:
    def test_pinned_mutation_fingerprints(self):
        """Each mutated run's history, wire counts and end time hash to the
        digest pinned here, so a change to how Mutations.apply breaks a rule,
        or to the run around it, fails. A change that alters them on purpose
        updates the pins and says so in CHANGES.md."""
        got = {
            name: run_fingerprint(run_simulation(*mutation_config(name, 0, mutations)))
            for name, mutations in ALL_MUTATIONS.items()
        }
        assert got == MUTATION_FINGERPRINTS

    @pytest.mark.parametrize("name", sorted(ALL_MUTATIONS))
    def test_mutation_caught_quickly(self, name):
        for seed in range(40):
            res = run_simulation(*mutation_config(name, seed, ALL_MUTATIONS[name]))
            if not check_history(res.history).ok:
                return
        pytest.fail(f"{name} not caught within 40 seeds")

    def test_stale_gets_are_caught_by_the_replay(self, monkeypatch):
        """Replicas that answer every Get with b"stale" agree with each
        other on order, state and outputs, so only replaying each replica's
        own executions shows that no Get read the value written before it."""
        apply = Replica.apply_command

        def stale(self, cmd):
            output = apply(self, cmd)
            return b"stale" if isinstance(cmd.op, Get) else output

        monkeypatch.setattr(Replica, "apply_command", stale)
        workload = [
            [Set(b"k", b"%d/%d" % (c, i)) if i % 2 == 0 else Get(b"k") for i in range(20)]
            for c in range(3)
        ]
        res = run_simulation(SimConfig(seed=1), workload)
        assert res.completed
        events = [ev for _t, _n, ev in res.history]
        assert sum(isinstance(ev, Reply) and ev.output == b"stale" for ev in events) == 30
        applied_gets = [
            ev for ev in events
            if isinstance(ev, ExecEvent) and ev.applied and isinstance(ev.op, Get)
        ]
        verdict = check_history(res.history)
        assert {v.kind for v in verdict.violations} == {"replay-output-mismatch"}
        assert [v.events[0][2] for v in verdict.violations] == sorted(
            applied_gets, key=lambda ev: ev.replica
        )

    def test_unmutated_protocol_clean_under_same_configs(self):
        from graphsmr.harness.mutations import NO_MUTATIONS

        for name in sorted(ALL_MUTATIONS):
            for seed in range(25):
                res = run_simulation(*mutation_config(name, seed, NO_MUTATIONS))
                verdict = check_history(res.history)
                assert verdict.ok, f"{name} seed {seed}:\n{verdict}"


class TestFuzzSmoke:
    def test_hundred_seeds_safety(self):
        for seed in range(100):
            f = 1 if seed % 2 == 0 else 2
            rate = [0.0, 0.02, 0.1, 1.0][seed % 4]
            config, workload, faults = fuzz_config(seed, f, rate)
            res = run_simulation(config, workload, faults)
            verdict = check_history(res.history)
            assert verdict.ok, f"seed {seed}:\n{verdict}"


class TestCompleteness:
    """Lost Commits and lost ProposeRequests are repaired without a client
    retry, so once a run settles every live replica holds every chosen
    vertex."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lossy_commuting_writes_reach_every_replica(self, seed):
        workload = [[Set(f"c{c}k{i:03d}".encode(), b"v") for i in range(100)]
                    for c in range(4)]
        config = SimConfig(seed=seed, min_delay_ms=1.0, max_delay_ms=3.0)
        loss = [LinkFault("*", "*", drop=0.05)]
        res = Simulation(config, workload, loss).run(settle_ms=2000.0)
        assert res.completed
        assert check_history(res.history).ok
        assert commit_holes(res, settle_ms=2000.0) == []
        kvs = [res.roles[name].kv for name in res.layout.replicas]
        assert [len(kv) for kv in kvs] == [400, 400]
        assert kvs[0] == kvs[1]

    def test_fuzz_runs_leave_no_commit_holes(self):
        completed = 0
        for seed in range(200):
            f = 1 if seed % 2 == 0 else 2
            rate = [0.0, 0.02, 0.1, 1.0][seed % 4]
            config, workload, faults = fuzz_config(seed, f, rate)
            res = Simulation(config, workload, faults).run(settle_ms=2000.0)
            assert check_history(res.history).ok, f"seed {seed}"
            if res.completed:
                completed += 1
                assert commit_holes(res, faults, 2000.0) == [], f"seed {seed}"
        assert completed >= 180

    def test_settling_keeps_end_ms_at_the_last_reply(self):
        config, workload, faults = pinned_runs()["lossy-leader-crash"]
        plain = run_simulation(config, workload, faults)
        settled = Simulation(config, workload, faults).run(settle_ms=500.0)
        assert settled.end_ms == plain.end_ms
        assert settled.history[: len(plain.history)] == plain.history
        assert sum(settled.received.values()) > sum(plain.received.values())


class TestCompactDeps:
    def test_compact_cluster_completes_and_checks(self):
        res = run_simulation(
            SimConfig(seed=17, compact_deps=True, max_delay_ms=5.0,
                      max_sim_ms=120_000),
            random_workload(random.Random(4), 3, 5, 1.0),
        )
        assert res.completed
        assert check_history(res.history).ok
        # every committed non-noop proposal in a compact cluster carries
        # compact deps
        from graphsmr.core import CompactDeps

        kinds = {
            type(ev.proposal.deps)
            for _t, _n, ev in res.history
            if isinstance(ev, CommitSeen) and ev.proposal.cmd != NOOP
        }
        assert kinds == {CompactDeps}


class TestClientBookkeeping:
    def test_invokes_and_replies_recorded(self):
        res = run_simulation(SimConfig(seed=2), simple_workload(clients=2, commands=2))
        invokes = [ev for _t, _n, ev in res.history if isinstance(ev, Invoke)]
        replies = [ev for _t, _n, ev in res.history if isinstance(ev, Reply)]
        assert len(invokes) == 4
        assert len(replies) == 4


class TestClientLeaderChoice:
    """ClosedLoopClient driven directly by timers and responses."""

    @staticmethod
    def client(leaders=3, base=0, commands=4):
        return ClosedLoopClient("client-0", [Get(b"k")] * commands,
                                [f"leader-{i}" for i in range(leaders)], base_leader=base)

    @staticmethod
    def sent_to(effects):
        (send,) = [e for e in effects if isinstance(e, Send)]
        return send.dst

    @staticmethod
    def answer(c, now):
        return c.on_message("leader-?", ClientResponse(c.name, c.idx + 1, True, b""), now)

    def test_without_timeouts_every_request_goes_to_base_leader(self):
        c = self.client(base=1, commands=5)
        targets = [self.sent_to(c.on_timer(("start",), 0.0))]
        for n in range(1, 5):
            targets.append(self.sent_to(self.answer(c, 10.0 * n)))
            # the retry timer of an answered command is stale and changes nothing
            assert c.on_timer(("retry", n), 10.0 * n + 1) == []
        assert targets == ["leader-1"] * 5
        assert c.misses == [0, 0, 0]

    def test_leader_that_answered_a_retry_takes_the_next_command(self):
        c = self.client(base=0)
        assert self.sent_to(c.on_timer(("start",), 0.0)) == "leader-0"
        assert self.sent_to(c.on_timer(("retry", 1), 200.0)) == "leader-1"
        assert self.sent_to(self.answer(c, 210.0)) == "leader-1"
        assert c.misses == [1, 0, 0]
        assert c.attempts == 0

    def test_equal_counts_follow_rotation_order(self):
        c = self.client(base=2)
        effects = [c.on_timer(("start",), 0.0)]
        effects += [c.on_timer(("retry", 1), 1000.0 * k) for k in range(1, 6)]
        assert [self.sent_to(e) for e in effects] == [
            "leader-2", "leader-0", "leader-1", "leader-2", "leader-0", "leader-1"]
        # attempts still sets the backoff, capped at four times retry_ms
        delays = [e.delay_ms for effs in effects for e in effs if isinstance(e, SetTimer)]
        assert delays == [200.0, 400.0, 800.0, 800.0, 800.0, 800.0]

    def test_silent_leader_chosen_only_while_its_misses_are_lowest(self):
        rng = random.Random(13)
        c = self.client(leaders=3, base=0, commands=200)
        effects, now, silent_sends = c.on_timer(("start",), 0.0), 0.0, 0
        for _ in range(1000):
            if c.done:
                break
            target = int(self.sent_to(effects).rsplit("-", 1)[1])
            # the first leader in rotation order among those with fewest misses
            assert target == [i for i in (0, 1, 2) if c.misses[i] == min(c.misses)][0]
            now += 1000.0
            # leader-0 never answers; the others time out a third of the time
            if target == 0 or rng.random() < 1 / 3:
                silent_sends += target == 0
                effects = c.on_timer(("retry", c.idx + 1), now)
            else:
                effects = self.answer(c, now)
        assert c.done
        assert 0 < silent_sends < 40


class TestThriftyEndToEnd:
    def test_thrifty_with_drops_completes_by_widening(self):
        res = run_simulation(
            SimConfig(seed=31, thrifty=True, max_delay_ms=4.0, max_sim_ms=120_000),
            simple_workload(clients=3, commands=4),
            [LinkFault("*", "*", drop=0.15)],
        )
        assert res.completed
        assert check_history(res.history).ok

    def test_thrifty_lowers_dep_node_load(self):
        thrifty = run_simulation(
            SimConfig(seed=32, thrifty=True), simple_workload(clients=3, commands=4)
        )
        assert thrifty.completed
        loads = role_loads(thrifty)
        # f+1 of 2f+1 nodes contacted: average dep load drops below 2
        assert loads["dep"] < 2
        assert loads["leader"] < 8


class TestHistoryTimestamps:
    def test_non_decreasing_under_service_queueing(self):
        res = run_simulation(
            SimConfig(seed=34, service_cost_ms=1.0, min_delay_ms=0.1,
                      max_delay_ms=0.1, max_sim_ms=1_000_000),
            simple_workload(clients=20, commands=3),
        )
        assert res.completed
        times = [t for t, _n, _ev in res.history]
        assert times == sorted(times)


class TestBatchFlushBound:
    def test_flush_batches_bounded_by_client_population(self):
        # a huge batch size with a small closed-loop population: the flush
        # timer emits whatever arrived, so no batch exceeds the population
        res = run_simulation(
            SimConfig(seed=33, batch_size=1000, max_sim_ms=120_000),
            simple_workload(clients=6, commands=3),
        )
        assert res.completed
        assert check_history(res.history).ok
        from graphsmr.core import Batch

        sizes = [
            len(ev.cmd.commands)
            for _t, _n, ev in res.history
            if isinstance(ev, AssignEvent) and isinstance(ev.cmd, Batch)
        ]
        assert sizes and all(1 <= s <= 6 for s in sizes)


def no_cycle_runs():
    """name -> (config, workload, faults): small runs that between them take
    the simulator's paths, every mutation (one ends in a ReplicaPanic, with
    acceptor-ignores-promises at seed 3) and the shapes of the benchmark's
    three workloads."""
    runs = {f"short/{seed}": short_scenario(seed) for seed in range(3)}
    for name, mutations in sorted(ALL_MUTATIONS.items()):
        for seed in (2, 3):
            runs[f"{name}/{seed}"] = mutation_config(name, seed, mutations)
    runs["coupled"] = pinned_runs()["coupled"]
    shapes = {
        "commute-shaped": (BenchConfig(clients=8, commands_per_client=10,
                                       service_cost_ms=0.05, max_delay_ms=2.0, seed=1), []),
        "hotspot-shaped": (BenchConfig(clients=8, commands_per_client=10, conflict_rate=0.5,
                                       compact_deps=True, batch_size=8, thrifty=True,
                                       service_cost_ms=0.05, min_delay_ms=1.4,
                                       max_delay_ms=1.6, seed=2), []),
        "faults-shaped": (BenchConfig(clients=4, commands_per_client=20, conflict_rate=0.5,
                                      max_delay_ms=3.0, capture_wire_trace=True, seed=3),
                          [LinkFault("*", "*", drop=0.05, dup=0.05), Crash("leader-1", 20.0)]),
    }
    for name, (bench, faults) in shapes.items():
        runs[name] = (sim_config_for(bench), generate_workload(bench), faults)
    return runs


class TestCollectorPause:
    """Simulation.run, SocketCluster.run and check_history pause the cyclic
    garbage collector (history.gc_paused). That is safe only while none of
    them builds a reference cycle, so that reference counting alone frees
    all they drop."""

    @pytest.fixture
    def freed(self):
        """The number of objects each collection freed, from every
        collection: the first one after a pause runs by itself when the
        collector is turned back on, before gc.collect() is called."""
        counts = []

        def count(phase, info):
            if phase == "stop":
                counts.append(info["collected"] + info["uncollectable"])

        gc.callbacks.append(count)
        yield counts
        gc.callbacks.remove(count)

    def test_runs_and_checks_leave_no_cyclic_garbage(self, freed):
        panics = violations = 0
        for name, (config, workload, faults) in no_cycle_runs().items():
            # a result still holding the previous run's roles would turn a
            # cycle they built at construction into garbage during this run
            gc.collect()
            freed.clear()
            result = Simulation(config, workload, faults).run()
            gc.collect()
            assert sum(freed) == 0, f"{name}: the run left cyclic garbage"
            verdict = check_history(result.history)
            gc.collect()
            assert sum(freed) == 0, f"{name}: the check left cyclic garbage"
            panics += result.panic is not None
            violations += not verdict.ok
            del result, verdict
        assert panics and violations  # both kinds of run ending were covered
        # a socket run: the same loop, its network, selector and connections
        gc.collect()
        freed.clear()
        result = SocketCluster(SimConfig(seed=1, max_sim_ms=20_000.0),
                               random_workload(random.Random(1), 4, 20, 0.3)).run()
        gc.collect()
        assert sum(freed) == 0, "socket: the run left cyclic garbage"
        assert result.completed and check_history(result.history).ok

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_collectors_state_is_put_back(self, enabled, monkeypatch):
        paused = []
        index = history_module._key_index

        def observed(proposals):
            paused.append(not gc.isenabled())
            return index(proposals)

        monkeypatch.setattr(history_module, "_key_index", observed)
        sim = Simulation(SimConfig(seed=1), simple_workload())
        client = sim.roles["client-0"]

        def observed_timer(key, now, handler=client.on_timer):
            paused.append(not gc.isenabled())
            return handler(key, now)

        client.on_timer = observed_timer
        was_on = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            res = sim.run()
            assert gc.isenabled() is enabled
            assert check_history(res.history).ok
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_on else gc.disable)()
        assert paused and all(paused)

    def test_the_collector_is_back_on_when_a_handler_raises(self):
        sim = Simulation(SimConfig(seed=1), simple_workload())
        paused = []

        def raising(src, msg, now):
            paused.append(not gc.isenabled())
            raise RuntimeError("handler failed")

        sim.roles["leader-0"].on_message = raising
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert paused == [True]
        assert gc.isenabled()
