"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance, printing one pass line on success (run with -s to see them).

Criteria:
  1. safety fuzz, 1000 seeded simulations with faults, settled and free of
     commit holes
  2. every shipped mutation detected (checker or model checker)
  3. exact per-role message counts (formula values, zero tolerance)
  4. example-execution and cycle figure scenarios
  5. dependency compaction figure values
  6. model checker fixpoint + quorum-1 counterexample
  7. coupled/decoupled scaling ablation ordering
  8. eight network delays end to end when unloaded
  9. batching amortizes acceptor messages by the batch size
"""

import random

import pytest

from fuzz_helpers import (SETTLE_MS, closed_form_loads, commit_holes, mutation_config,
                          random_workload, short_scenario)
from graphsmr.bench import BenchConfig, run_bench
from graphsmr.core import (
    Command,
    CompactDeps,
    EMPTY_DEPS,
    ExactDeps,
    Proposal,
    Set,
    VertexId,
)
from graphsmr.depservice import DepServiceNode
from graphsmr.harness import (
    ALL_MUTATIONS,
    SimConfig,
    check_history,
    role_loads,
    run_simulation,
)
from graphsmr.harness.sim import Simulation
from graphsmr.leader import AssignEvent
from graphsmr.modelcheck import ModelConfig, explore, full_conflicts
from graphsmr.replica import ExecEvent, Replica


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_safety_fuzz_1000_seeds():
    completed = 0
    for seed in range(1000):
        config, workload, faults = short_scenario(seed)
        result = Simulation(config, workload, faults).run(settle_ms=SETTLE_MS)
        verdict = check_history(result.history)
        assert verdict.ok, f"seed {seed} (f={config.f}):\n{verdict}"
        if result.completed:
            completed += 1
            assert commit_holes(result, faults, SETTLE_MS) == [], f"seed {seed}"
        if seed == 199:
            assert completed >= 180
    _report(
        "criterion 1 PASS: 1000 seeded fault simulations, checker ok on all "
        f"({completed} ran to completion and left no commit hole after settling; "
        "the rest hit crash schedules beyond the global failure budget and stay "
        "merely safe)"
    )


@pytest.mark.parametrize("name", sorted(ALL_MUTATIONS))
def test_criterion_2_mutation_detected(name):
    for seed in range(200):
        config, workload = mutation_config(name, seed, ALL_MUTATIONS[name])
        result = run_simulation(config, workload)
        verdict = check_history(result.history)
        if not verdict.ok:
            kinds = {v.kind for v in verdict.violations}
            _report(
                f"criterion 2 PASS: mutation {name} caught at seed {seed} "
                f"as {sorted(kinds)}"
            )
            return
    pytest.fail(f"mutation {name} survived 200 seeds")


def test_criterion_2_dep_quorum_mutation_also_caught_by_model_checker():
    report = explore(
        ModelConfig(
            commands=("a", "b"),
            conflicts=full_conflicts(["a", "b"]),
            dep_nodes=3,
            quorum_size=1,
            vertex_bound=2,
        )
    )
    assert report.violations
    assert report.violations[0].invariant == "DepServiceConflicts"
    _report(
        "criterion 2 PASS: quorum-size-1 mutation also yields a "
        "DepServiceConflicts counterexample in the model checker"
    )


def _loads_for(f, leaders, replicas, seed=11):
    rng = random.Random(f"acc3/{seed}")
    workload = random_workload(rng, clients=4, commands=5, conflict_rate=0.1)
    result = run_simulation(
        SimConfig(seed=seed, f=f, leaders=leaders, replicas=replicas), workload
    )
    assert result.completed
    assert check_history(result.history).ok
    return role_loads(result)


def test_criterion_3_exact_message_counts():
    # failure-free, thrifty off, batch 1: per-command loads must equal the
    # closed-form values exactly
    for f, leaders, replicas in ((1, 2, 2), (1, 5, 2), (2, 3, 3)):
        assert _loads_for(f, leaders, replicas) == closed_form_loads(f, replicas)
    _report(
        "criterion 3 PASS: per-role messages per command exactly 2N+2 / "
        "2N+R+1 / 2 / 2 / 1+1/R (f=1,R=2 at L=2 and L=5: leader 8, proposer 9; "
        "f=2,R=3: leader 12, proposer 14)"
    )


def test_criterion_4_figure_scenarios():
    # three-command execution: a<-0 immediately, a<-b blocked on the unchosen
    # vertex, then b<-0 unblocks both; final state {a:0, b:0}, a<-b last
    rep = Replica("rep-0", 0, 1)
    v0, v1, v2 = VertexId(0, 0), VertexId(1, 0), VertexId(0, 1)
    order = []

    def applied(effects):
        from graphsmr.messages import Note

        order.extend(
            e.event.v
            for e in effects
            if isinstance(e, Note) and isinstance(e.event, ExecEvent)
        )

    applied(rep.commit(v0, Proposal(Command("c1", 1, Set(b"a", b"0")), EMPTY_DEPS), 0.0))
    assert order == [v0]
    applied(
        rep.commit(
            v2,
            Proposal(Command("c2", 1, Set(b"a", b"0")), ExactDeps(frozenset({v0, v1}))),
            1.0,
        )
    )
    assert order == [v0]  # nothing executes while v1 is unchosen
    applied(rep.commit(v1, Proposal(Command("c3", 1, Set(b"b", b"0")), EMPTY_DEPS), 2.0))
    assert rep.kv == {b"a": b"0", b"b": b"0"}
    assert order == [v0, v1, v2] and order[-1] == v2

    # cycle: v_y <-> v_z executes as one component in vertex id order
    rep2 = Replica("rep-0", 0, 1)
    vx, vy, vz = VertexId(0, 0), VertexId(1, 0), VertexId(2, 0)
    rep2.commit(vx, Proposal(Command("c1", 1, Set(b"k", b"x")), EMPTY_DEPS), 0.0)
    out = rep2.commit(
        vy, Proposal(Command("c2", 1, Set(b"k", b"y")), ExactDeps(frozenset({vx, vz}))), 1.0
    )
    from graphsmr.messages import Note

    assert not [e for e in out if isinstance(e, Note) and isinstance(e.event, ExecEvent)]
    out = rep2.commit(
        vz, Proposal(Command("c3", 1, Set(b"k", b"z")), ExactDeps(frozenset({vy}))), 2.0
    )
    batch = [
        e.event.v for e in out if isinstance(e, Note) and isinstance(e.event, ExecEvent)
    ]
    assert batch == sorted([vy, vz], key=VertexId.sort_key)
    _report(
        "criterion 4 PASS: example execution ends at kv {a:0, b:0} with a<-b "
        "last; the cycle executes as one component in vertex id order"
    )


def test_criterion_5_dependency_compaction_figure():
    stored = [(0, 1), (0, 0), (1, 2), (1, 0), (2, 1)]
    exact_node = DepServiceNode("d0", num_leaders=3)
    compact_node = DepServiceNode("d1", num_leaders=3, compact=True)
    for i, (leader, seq) in enumerate(stored):
        cmd = Command("c", i + 1, Set(b"k", b"v"))
        exact_node.handle_dep_request(VertexId(leader, seq), cmd)
        compact_node.handle_dep_request(VertexId(leader, seq), cmd)
    probe = Command("x", 1, Set(b"k", b"v"))
    exact = exact_node.handle_dep_request(VertexId(2, 5), probe)
    compact = compact_node.handle_dep_request(VertexId(2, 5), probe)
    assert compact == CompactDeps((1, 2, 1))
    assert len(compact.expand()) == 7
    assert exact.expand() == frozenset(VertexId(l, s) for l, s in stored)
    assert exact.expand() < compact.expand()
    _report(
        "criterion 5 PASS: five-command state compacts to watermarks "
        "(1, 2, 1); the 7-element expansion strictly contains the 5 exact deps"
    )


def test_criterion_6_model_checker():
    cfg = ModelConfig(
        commands=("a", "b"),
        conflicts=full_conflicts(["a", "b"]),
        dep_nodes=3,
        quorum_size=2,
        vertex_bound=2,
    )
    report = explore(cfg)
    assert report.complete
    assert not report.violations
    assert report.fairness_ok
    assert report.terminal_states > 0

    mutated = explore(
        ModelConfig(
            commands=("a", "b"),
            conflicts=full_conflicts(["a", "b"]),
            dep_nodes=3,
            quorum_size=1,
            vertex_bound=2,
        )
    )
    assert mutated.violations
    assert mutated.violations[0].invariant == "DepServiceConflicts"
    assert mutated.violations[0].trace
    _report(
        f"criterion 6 PASS: fixpoint at {report.states} states with zero "
        "violations and the fairness corollary holding on "
        f"{report.terminal_states} terminal states; quorum-1 yields a "
        "DepServiceConflicts counterexample"
    )


def _ablation_throughput(coupled, leaders):
    f = 1
    config = BenchConfig(
        config_id=f"{'coupled' if coupled else 'decoupled'}-{leaders}",
        clients=120,
        commands_per_client=8,
        conflict_rate=0.0,
        f=f,
        leaders=leaders,
        replicas=2 * f + 1 if coupled else f + 1,
        coupled=coupled,
        thrifty=False,
        seed=1,
        min_delay_ms=0.1,
        max_delay_ms=0.1,
        service_cost_ms=1.0,
        max_sim_ms=10_000_000.0,
    )
    return run_bench(config).throughput


def test_criterion_7_ablation_trend():
    coupled3 = _ablation_throughput(coupled=True, leaders=3)
    dec3 = _ablation_throughput(coupled=False, leaders=3)
    dec5 = _ablation_throughput(coupled=False, leaders=5)
    dec7 = _ablation_throughput(coupled=False, leaders=7)
    assert coupled3 < dec3 < dec5
    assert dec7 <= dec5 * 1.05
    _report(
        "criterion 7 PASS: saturated throughput ordering "
        f"coupled3={coupled3:.0f} < decoupled3={dec3:.0f} < "
        f"decoupled5={dec5:.0f}, decoupled7={dec7:.0f} within 5% of decoupled5"
    )


def test_criterion_8_eight_network_delays():
    for delay in (1.0, 3.0):
        workload = random_workload(random.Random(1), clients=1, commands=5,
                                   conflict_rate=0.0)
        result = run_simulation(
            SimConfig(seed=0, min_delay_ms=delay, max_delay_ms=delay), workload
        )
        assert result.completed
        assert result.latencies_ms() == [8 * delay] * 5
    _report(
        "criterion 8 PASS: unloaded zero-jitter latency is exactly 8 one-way "
        "link delays per command"
    )


def _acceptor_messages(batch_size, clients=200, commands=5):
    workload = random_workload(
        random.Random(2), clients=clients, commands=commands, conflict_rate=0.0
    )
    config = SimConfig(
        seed=3, f=1, leaders=2, replicas=2, batch_size=batch_size,
        max_sim_ms=1_000_000.0,
    )
    result = run_simulation(config, workload)
    assert result.completed
    assert check_history(result.history).ok
    per_acceptor = {
        a: result.sent.get(a, 0) + result.received.get(a, 0)
        for a in result.layout.acceptors
    }
    vertices = sum(
        1 for _t, _n, ev in result.history if isinstance(ev, AssignEvent)
    )
    return per_acceptor, vertices


def test_criterion_9_batching_amortization():
    unbatched, v1 = _acceptor_messages(batch_size=1)
    batched, v100 = _acceptor_messages(batch_size=100)
    total_cmds = 200 * 5
    assert v1 == total_cmds
    # 1000 commands in batches of 100 across 2 leaders: 10 full batches,
    # plus at most one flush remainder per leader
    assert 10 <= v100 <= 12
    for acc in unbatched:
        assert unbatched[acc] == 2 * total_cmds
        assert batched[acc] == 2 * v100
        ratio = unbatched[acc] / batched[acc]
        assert total_cmds / (v100 + 1) <= ratio <= 100.0
    _report(
        "criterion 9 PASS: batch=100 cuts acceptor messages from "
        f"{unbatched['acc-0']} to {batched['acc-0']} per node "
        f"({v100} vertices for {total_cmds} commands)"
    )
