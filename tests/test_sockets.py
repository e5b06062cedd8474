"""Loopback socket transport smoke tests. These runs are not deterministic
and carry no timing claims; they only show the role state machines work
unchanged over real sockets."""

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


@pytest.mark.parametrize("unsupported", [
    dict(drop_prob=0.1),
    dict(dup_prob=0.1),
    dict(capture_wire_trace=True),
    dict(service_cost_ms=0.5),
], ids=["drop", "dup", "trace", "service-cost"])
def test_what_only_the_simulator_models_is_rejected(unsupported):
    """A lossy or traced config would otherwise run lossless and untraced."""
    [name] = unsupported
    with pytest.raises(ConfigError, match=name):
        SocketCluster(SimConfig(seed=0, max_sim_ms=20_000, **unsupported), [[Get(b"k")]])


def test_end_ms_is_stamped_when_the_clients_are_done():
    """Throughput counts the run, not the shutdown: the end is the last
    reply, on the same clock. Closing the sockets does not count."""
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    run = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload).run()
    assert run.completed
    last_reply = max(done for c in run.clients for _sent, done in c.reply_times)
    assert run.end_ms == last_reply


def test_every_connection_is_closed_when_run_returns():
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0, max_sim_ms=20_000), workload)
    before = open_fds()
    assert cluster.run().completed
    assert open_fds() == before


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
