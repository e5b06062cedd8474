"""Loopback socket transport smoke tests. These runs are not deterministic
and carry no timing claims; they only show the role state machines work
unchanged over real sockets."""

import dataclasses
import os
import random
import threading

import pytest

from fuzz_helpers import closed_form_loads, random_workload
from graphsmr.bench import BenchConfig, run_bench
from graphsmr.core import NOOP_PROPOSAL, Get, Set
from graphsmr.harness import NO_TIMEOUTS, ConfigError, role_loads
from graphsmr.harness.history import check_history
from graphsmr.harness.sim import SimConfig
from graphsmr.messages import Commit
from graphsmr.replica import Replica
from graphsmr.sockets import SocketCluster


def open_fds() -> list[str]:
    return sorted(os.listdir("/dev/fd"))


def test_socket_cluster_smoke():
    workload = [
        [Set(b"hot", b"1"), Get(b"k1"), Set(b"hot", b"2")],
        [Get(b"k2"), Set(b"hot", b"3")],
    ]
    config = SimConfig(seed=0, f=1, leaders=2, replicas=2, max_sim_ms=20_000)
    run = SocketCluster(config, workload).run()
    assert run.completed
    verdict = check_history(run.history)
    assert verdict.ok, str(verdict)
    # a frame still in flight when the last client is done is sent, not received
    assert 0 < sum(run.received.values()) <= sum(run.sent.values())


def test_socket_bench_reports():
    report = run_bench(
        BenchConfig(
            clients=2,
            commands_per_client=3,
            transport="socket",
            max_sim_ms=20_000.0,
        )
    )
    assert report.commands == 6
    assert report.p50_ms <= report.p99_ms
    assert report.throughput > 0
    assert set(report.role_loads) == {"leader", "proposer", "dep", "acceptor", "replica"}
    assert all(load > 0 for load in report.role_loads.values())


def test_role_loads_match_criterion_3():
    """Acceptance criterion 3's workload and (f, L, R) = (1, 2, 2), with
    timers that never fire, so nothing is retransmitted: every role
    processes exactly the closed-form messages per command over sockets
    too."""
    workload = random_workload(random.Random("acc3/11"), clients=4, commands=5,
                               conflict_rate=0.1)
    config = SimConfig(seed=11, timeouts=NO_TIMEOUTS, max_sim_ms=20_000)
    run = SocketCluster(config, workload).run()
    assert run.completed
    assert check_history(run.history).ok
    assert role_loads(run) == closed_form_loads(f=1, replicas=2)


# Every SimConfig field is one a socket run honours or one only the simulator
# models, which the socket transport rejects; each of those comes with a value
# other than its default. coupled is rejected: fused roles exchange messages
# off the network only in the simulator, while every role of a socket run is
# its own loopback endpoint either way.
HONOURED = {"seed", "f", "leaders", "replicas", "compact_deps", "thrifty",
            "batch_size", "timeouts", "max_sim_ms", "mutations"}
REJECTED = [
    pytest.param("min_delay_ms", 0.5, id="min-delay"),
    pytest.param("max_delay_ms", 2.0, id="max-delay"),
    pytest.param("capture_wire_trace", True, id="trace"),
    pytest.param("service_cost_ms", 0.5, id="service-cost"),
    pytest.param("coupled", True, id="coupled"),
]


def test_every_config_field_is_honoured_or_rejected():
    """A new field must join one of the two sets, so a simulator-only one
    cannot be ignored silently by socket runs."""
    rejected = {param.values[0] for param in REJECTED}
    assert not HONOURED & rejected
    assert {f.name for f in dataclasses.fields(SimConfig)} == HONOURED | rejected


@pytest.mark.parametrize("name, value", REJECTED)
def test_what_only_the_simulator_models_is_rejected(name, value):
    """A delayed, traced, costed or coupled config would otherwise run on
    the transport's own links, untraced, at no cost and unfused. The field is
    named before the rest of the config is checked."""
    with pytest.raises(ConfigError, match=f"cannot honour {name}"):
        SocketCluster(SimConfig(seed=0, max_sim_ms=20_000, **{name: value}), [[Get(b"k")]])


def test_a_socket_bench_with_link_delays_is_rejected():
    """Eight 50 ms link delays would take 400 ms, which loopback links do
    not model."""
    with pytest.raises(ConfigError, match="min_delay_ms, max_delay_ms"):
        run_bench(BenchConfig(clients=2, commands_per_client=3, transport="socket",
                              min_delay_ms=50.0, max_delay_ms=50.0))


def test_no_timer_past_the_cap_is_queued():
    """The simulator's cap rule holds on sockets, which run its loop: with
    timeouts of 1e9 ms no timer can fire before the 20 s cap, so none is
    queued, and nothing left queued lies past the cap."""
    cluster = SocketCluster(SimConfig(seed=3, timeouts=NO_TIMEOUTS, max_sim_ms=20_000),
                            random_workload(random.Random(3), 4, 10, 0.3))
    assert cluster.run().completed
    assert all(event[0] <= 20_000 for event in cluster.heap)


def test_every_connection_is_closed_when_run_returns():
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload)
    before = open_fds()
    assert cluster.run().completed
    assert open_fds() == before


def test_a_fan_out_is_framed_once(monkeypatch):
    """A frame names only its source, so the Sends of one message object
    share one encoded frame."""
    import graphsmr.sockets as sockets

    framed = []
    encode = sockets.encode_frame

    def counting(src, msg):
        framed.append(msg)
        return encode(src, msg)

    monkeypatch.setattr(sockets, "encode_frame", counting)
    config = SimConfig(seed=0, max_sim_ms=20_000)
    run = SocketCluster(config, random_workload(random.Random(2), 2, 5, 0.5)).run()
    assert run.completed
    assert check_history(run.history).ok
    assert 0 < len(framed) < sum(run.sent.values())


def test_run_starts_no_thread():
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload)
    client = cluster.clients[0]
    during = []

    def on_message(src, msg, now, handler=client.on_message):
        during.append(threading.active_count())
        return handler(src, msg, now)

    client.on_message = on_message
    before = threading.active_count()
    assert cluster.run().completed
    assert during and set(during) == {before}
    assert threading.active_count() == before


def test_many_clients_on_a_hot_key_complete():
    report = run_bench(
        BenchConfig(
            clients=64,
            commands_per_client=5,
            conflict_rate=0.5,
            transport="socket",
            max_sim_ms=20_000.0,
        )
    )
    assert report.commands == 320


def test_a_role_handler_error_ends_the_run_after_cleanup():
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload)

    def on_message(src, msg, now):
        raise RuntimeError("handler failed")

    cluster.roles["leader-0"].on_message = on_message
    before = open_fds()
    with pytest.raises(RuntimeError, match="handler failed"):
        cluster.run()
    assert open_fds() == before


def conflicting_recommit(self, src, msg, now, handler=Replica.on_message):
    """Replica.on_message that commits each vertex a second time as a noop,
    so the replica's first Commit raises ReplicaPanic."""
    if isinstance(msg, Commit):
        handler(self, src, msg, now)
        msg = Commit(msg.v, NOOP_PROPOSAL)
    return handler(self, src, msg, now)


def test_a_replica_panic_ends_the_run_with_its_evidence(monkeypatch):
    monkeypatch.setattr(Replica, "on_message", conflicting_recommit)
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload)
    before = open_fds()
    run = cluster.run()
    assert open_fds() == before
    assert run.panic is not None and not run.completed
    assert run.history[-1][2].proposal == NOOP_PROPOSAL  # the panic's evidence
    verdict = check_history(run.history)
    assert {v.kind for v in verdict.violations} == {"per-vertex-agreement"}
    with pytest.raises(AssertionError, match="violated safety"):
        run_bench(BenchConfig(clients=2, commands_per_client=2, transport="socket",
                              max_sim_ms=20_000.0))
