"""Growth guards: with compact deps, the work per unit in the dependency
node, the replica's commit path and the checker must not grow with the
history. Each guard counts work, not time, by wrapping a method for the
length of one run, and compares a 200-command run with a 3200-command run
of the same all-conflict workload. With exact deps, the wire trace's
packing, the replica's probes of its executed state and the checker's
probes are guarded the same way, at 200 and 800 commands, since the trace
is about 370 MB at 3200. The last guards bound the replica's executed-id
state after a long conflict-free run and after a lossy one."""

import dataclasses
from collections import Counter
from unittest.mock import patch

import pytest

from graphsmr import wire
from graphsmr.bench import BenchConfig, generate_workload
from graphsmr.core import CommitGraph, CompactDeps, ExactDeps, Noop
from graphsmr.depservice import DepServiceNode
from graphsmr.harness import Crash, LinkFault, check_history, history, run_simulation
from graphsmr.harness.sim import Simulation
from graphsmr.replica import CommitSeen, Replica

SIZES = (200, 3200)


def all_conflict(commands, compact_deps):
    """10 clients, every command writing one hot key, seed 1. Delays vary,
    so vertices commit out of order and a commit has a gap above the
    executed low watermark to walk."""
    config = BenchConfig(
        clients=10,
        commands_per_client=commands // 10,
        conflict_rate=1.0,
        compact_deps=compact_deps,
        min_delay_ms=1.0,
        max_delay_ms=3.0,
        seed=1,
    )
    return config, generate_workload(config)


def vertices(result):
    """Committed vertices that are not recovery noops; in an all-conflict
    run each one writes the hot key."""
    return len(
        {ev.v for _, _, ev in result.history
         if isinstance(ev, CommitSeen) and not isinstance(ev.proposal.cmd, Noop)}
    )


def count_work(commands):
    sim_config, workload = all_conflict(commands, compact_deps=True)
    tally = Counter()
    above, add, rows = CompactDeps.above, CommitGraph.add, DepServiceNode._conflicting_rows
    contains, bisect_right = CompactDeps.__contains__, history.bisect_right

    def counted_above(self, low):
        for v in above(self, low):
            tally["deps walked"] += 1
            yield v

    def counted_add(self, v, p):
        fresh = add(self, v, p)
        tally["adds"] += fresh
        return fresh

    def counted_rows(self, access):
        tally["requests"] += 1
        for row in rows(self, access):
            tally["index entries"] += len(row.watermarks)
            yield row

    def counted_contains(self, v):
        tally["membership probes"] += 1
        return contains(self, v)

    def counted_bisect(*args):
        tally["bisections"] += 1
        return bisect_right(*args)

    with patch.object(CompactDeps, "above", counted_above), \
            patch.object(CommitGraph, "add", counted_add), \
            patch.object(DepServiceNode, "_conflicting_rows", counted_rows):
        result = run_simulation(sim_config, workload)
    assert result.completed
    with patch.object(CompactDeps, "__contains__", counted_contains), \
            patch.object(history, "bisect_right", counted_bisect):
        assert check_history(result.history).ok
    tally["probes"] = tally["membership probes"] + tally["bisections"]
    tally["vertices"] = vertices(result)
    return tally


@pytest.fixture(scope="module")
def work():
    return {n: count_work(n) for n in SIZES}


def per(work, count, unit):
    return [work[n][count] / work[n][unit] for n in SIZES]


def test_commit_walks_do_not_grow_with_history(work):
    small, large = per(work, "deps walked", "adds")
    assert large <= 1.5 * small


def test_dep_index_reads_do_not_grow_with_history(work):
    small, large = per(work, "index entries", "requests")
    assert large <= 1.5 * small


def test_checker_probes_do_not_grow_with_history(work):
    """The checker's walk bisects each leader's row of seqs and probes the
    candidates the bisection leaves, so both counts must be nonzero: a walk
    that went round either hook would pass on an empty count."""
    for n in SIZES:
        assert work[n]["bisections"] > 0 and work[n]["membership probes"] > 0
    small, large = per(work, "probes", "vertices")
    assert large <= 1.5 * small


def count_packing(commands):
    """New exact dependency sets packed, and the vertices sorted from
    scratch to pack them, in one traced all-conflict run."""
    sim_config, workload = all_conflict(commands, compact_deps=False)
    tally = Counter()
    encode, sort = wire._encode_exact_deps, wire._sort_from_scratch

    def counted_encode(deps):
        tally["sets"] += 1
        return encode(deps)

    def counted_sort(vertices):
        tally["sorted"] += len(vertices)
        return sort(vertices)

    with patch.object(wire, "_encode_exact_deps", counted_encode), \
            patch.object(wire, "_sort_from_scratch", counted_sort):
        traced = dataclasses.replace(sim_config, capture_wire_trace=True)
        result = run_simulation(traced, workload)
    assert result.completed and result.wire_trace
    return tally


def test_exact_deps_packing_does_not_grow_with_history():
    """Each new set is packed by inserting what it adds into a set packed
    before it, so the vertices sorted from scratch per set stay flat while
    the sets grow with the history."""
    small, large = (t["sorted"] / t["sets"] for t in map(count_packing, (200, 800)))
    assert large <= 1.5 * small


def count_exact_probes(commands):
    """ExactDeps membership tests made by check_history, per vertex, on one
    clean exact-deps all-conflict run."""
    sim_config, workload = all_conflict(commands, compact_deps=False)
    result = run_simulation(sim_config, workload)
    assert result.completed
    probes = 0
    contains = ExactDeps.__contains__

    def counted_contains(self, v):
        nonlocal probes
        probes += 1
        return contains(self, v)

    with patch.object(ExactDeps, "__contains__", counted_contains):
        assert check_history(result.history).ok
    return probes / vertices(result)


def test_exact_checker_probes_do_not_grow_with_history():
    """A vertex's exact deps are subtracted from the conflicting vertices
    committed before it in one set operation, so only the few left over
    are probed in Python, however long the history."""
    small, large = map(count_exact_probes, (200, 800))
    assert large <= 1.5 * small


def count_executed_state_probes(commands):
    """Probes of every replica's executed-id state, its `low` watermarks and
    its `sparse` ids, per exact-deps add, on one exact-deps all-conflict run."""
    sim_config, workload = all_conflict(commands, compact_deps=False)
    tally = Counter()

    class CountingLow(dict):
        def get(self, *args):
            tally["probes"] += 1
            return super().get(*args)

    class CountingSparse(set):
        def __contains__(self, item):
            tally["probes"] += 1
            return super().__contains__(item)

    init, add = CommitGraph.__init__, CommitGraph.add

    def counting_init(self):
        init(self)
        self.executed.low, self.executed.sparse = CountingLow(), CountingSparse()

    def counted_add(self, v, p):
        fresh = add(self, v, p)
        tally["adds"] += fresh and isinstance(p.deps, ExactDeps)
        return fresh

    with patch.object(CommitGraph, "__init__", counting_init), \
            patch.object(CommitGraph, "add", counted_add):
        result = run_simulation(sim_config, workload)
    assert result.completed and tally["adds"]
    return tally["probes"] / tally["adds"]


def test_exact_commit_probes_do_not_grow_with_history():
    """An exact set is added less the exact deps of an executed vertex, in
    one set difference, so only the few deps left over probe the executed
    state, however long the history."""
    small, large = map(count_executed_state_probes, (200, 800))
    assert large <= 1.5 * small


def test_executed_state_is_bounded_by_the_gap():
    """Every replica executes every vertex, so once the run ends each row of
    its executed sets sits under the watermark: one row per leader or
    client, nothing sparse, and the length still counts every vertex."""
    config = BenchConfig(
        clients=64, commands_per_client=50, min_delay_ms=1.0, max_delay_ms=2.0, seed=7
    )
    result = run_simulation(config, generate_workload(config))
    assert result.completed
    replicas = [r for r in result.roles.values() if isinstance(r, Replica)]
    assert len(replicas) == config.replicas
    for rep in replicas:
        executed, table = rep.graph.executed, rep.table.executed
        assert len(executed.low) <= config.leaders and not executed.sparse
        assert len(executed) == 64 * 50
        assert len(table.low) == 64 and not table.sparse


def test_executed_state_is_bounded_after_loss():
    """The benchmark's faults scenario (perfbench/workloads.py, seed 7,
    scenario 0): 5 % drop and duplication on every link and leader-1 crashed
    at 500 ms. Every lost Commit is repaired, so no hole stops a replica's
    executed watermark for long: at the last reply only vertices still in
    flight hold it back, and once the run settles nothing stays sparse."""
    config = BenchConfig(
        clients=8, commands_per_client=150, conflict_rate=0.5,
        min_delay_ms=1.0, max_delay_ms=3.0, seed=7,
    )
    workload = generate_workload(config)
    faults = [LinkFault("*", "*", drop=0.05, dup=0.05), Crash("leader-1", 500.0)]
    for settle_ms, most in ((0.0, config.clients), (2000.0, 0)):
        result = Simulation(config, workload, faults).run(settle_ms=settle_ms)
        assert result.completed
        replicas = [r for r in result.roles.values() if isinstance(r, Replica)]
        assert len(replicas) == config.replicas
        for rep in replicas:
            assert len(rep.graph.executed) > 1200
            assert len(rep.graph.executed.sparse) <= most
