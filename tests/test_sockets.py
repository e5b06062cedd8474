"""Loopback socket transport smoke tests. These runs are not deterministic
and carry no timing claims; they only show the role state machines work
unchanged over real sockets."""

from graphsmr.core import Get, Set
from graphsmr.harness.history import check_history
from graphsmr.harness.sim import SimConfig
from graphsmr.sockets import SocketCluster


def test_socket_cluster_smoke():
    workload = [
        [Set(b"hot", b"1"), Get(b"k1"), Set(b"hot", b"2")],
        [Get(b"k2"), Set(b"hot", b"3")],
    ]
    cluster = SocketCluster(SimConfig(seed=0, f=1, leaders=2, replicas=2), workload)
    run = cluster.run(wall_limit_ms=20_000)
    assert run.completed
    verdict = check_history(run.history)
    assert verdict.ok, str(verdict)


def test_socket_bench_reports():
    from graphsmr.bench import BenchConfig, run_bench

    report = run_bench(
        BenchConfig(
            clients=2,
            commands_per_client=3,
            transport="socket",
            duration_ms=20_000.0,
        )
    )
    assert report.commands == 6
    assert report.p50_ms <= report.p99_ms
    assert report.throughput > 0


def test_end_ms_is_stamped_when_the_clients_are_done():
    """Throughput counts the run, not the poll or the shutdown: the end is
    the last reply, on the same clock. Neither the polling thread's wake-up
    nor the node threads' stop, up to their 50 ms inbox timeout, counts."""
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    run = SocketCluster(SimConfig(seed=0), workload).run(wall_limit_ms=20_000)
    assert run.completed
    last_reply = max(done for c in run.clients for _sent, done in c.reply_times)
    assert run.end_ms == last_reply


def test_every_connection_is_closed_when_run_returns():
    workload = [[Set(b"k", b"1"), Get(b"k")], [Set(b"j", b"2")]]
    cluster = SocketCluster(SimConfig(seed=0), workload)
    assert cluster.run(wall_limit_ms=20_000).completed
    nodes = cluster.nodes.values()
    inbound = [sock for node in nodes for sock in node.inbound]
    outbound = [sock for node in nodes for sock in node.outbound.values()]
    assert inbound and outbound
    # a closed socket has no file descriptor
    assert [s for s in inbound + outbound + [n.listener for n in nodes] if s.fileno() != -1] == []
