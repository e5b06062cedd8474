"""Shared fuzz machinery for harness and acceptance tests: seeded random
workloads, crash schedules bounded by f per role, per-mutation sim
configurations tuned so each one trips its violation quickly, a digest of
everything a run produced, and reference oracles for optimised code and for
the conflict relation."""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from fractions import Fraction

from graphsmr.consensus import ChosenEvent
from graphsmr.core import Get, Op, Payload, Set, VertexId, footprint, key_access
from graphsmr.harness import Crash, Fault, LinkFault, SimConfig, Timeouts, export_history
from graphsmr.harness.mutations import Mutations
from graphsmr.harness.sim import Simulation
from graphsmr.replica import CommitSeen, ExecEvent, _tarjan_sccs
from graphsmr.sockets import SocketCluster

HOT = b"hotkey!!"


def conflicts(x: Payload, y: Payload) -> bool:
    """The conflict relation, pair by pair from each side's footprint: x and
    y touch a common key and at least one of them writes it."""
    return any(kx == ky and (wx or wy) for kx, wx in footprint(x) for ky, wy in footprint(y))


def random_workload(
    rng: random.Random, clients: int, commands: int, conflict_rate: float
) -> list[list[Op]]:
    out: list[list[Op]] = []
    uniq = 0
    for c in range(clients):
        ops: list[Op] = []
        for i in range(commands):
            if rng.random() < conflict_rate:
                ops.append(Set(HOT, f"{c:02d}{i:02d}".encode().ljust(8, b"x")))
            else:
                uniq += 1
                ops.append(Get(f"u{uniq:07d}".encode()))
        out.append(ops)
    return out


def on_each_transport(cases, simulator_only=()) -> list:
    """Each pytest.param of cases with the class that runs it appended:
    Simulation under the case's own id, and SocketCluster under "socket-"
    and the id, except for the ids in simulator_only."""
    import pytest

    return [pytest.param(*case.values, Simulation, id=case.id) for case in cases] + [
        pytest.param(*case.values, SocketCluster, id=f"socket-{case.id}")
        for case in cases if case.id not in simulator_only
    ]


def closed_form_loads(f: int, replicas: int) -> dict[str, Fraction]:
    """Messages per command each role processes in a failure-free,
    thrifty-off, batch-1 run (acceptance criterion 3), with N = 2f+1:
    leader 2N+2, proposer 2N+R+1, dependency node 2, acceptor 2, replica
    1+1/R."""
    n = 2 * f + 1
    return {
        "leader": Fraction(2 * n + 2),
        "proposer": Fraction(2 * n + replicas + 1),
        "dep": Fraction(2),
        "acceptor": Fraction(2),
        "replica": 1 + Fraction(1, replicas),
    }


def crash_schedule_per_role(
    rng: random.Random, f: int, leaders: int, replicas: int, horizon_ms: float
) -> list[Crash]:
    """Up to f crashes in each role class (safety fuzz; this can exceed the
    global-f failure budget, so completion is not guaranteed)."""
    faults: list[Crash] = []
    for prefix, count in (
        ("leader", leaders),
        ("dep", 2 * f + 1),
        ("prop", leaders),
        ("acc", 2 * f + 1),
        ("rep", replicas),
    ):
        for idx in rng.sample(range(count), rng.randint(0, f)):
            faults.append(Crash(f"{prefix}-{idx}", rng.uniform(5.0, horizon_ms)))
    return faults


def _lossy_config(rng: random.Random, seed: int, f: int) -> tuple[SimConfig, LinkFault]:
    """The fuzz network: f+1 to f+3 leaders, f+1 replicas, delays from 1 ms
    up to at most 10 ms, and the run-wide loss: drops <= 0.2 and duplication
    <= 0.1 per message."""
    leaders = rng.randint(f + 1, f + 3)
    config = SimConfig(
        seed=seed,
        f=f,
        leaders=leaders,
        replicas=f + 1,
        min_delay_ms=1.0,
        max_delay_ms=rng.uniform(1.0, 10.0),
        max_sim_ms=60_000.0,
    )
    return config, LinkFault("*", "*", drop=rng.uniform(0.0, 0.2), dup=rng.uniform(0.0, 0.1))


def fuzz_config(seed: int, f: int, conflict_rate: float) -> tuple[SimConfig, list, list[Fault]]:
    """One safety-fuzz scenario: random drops (<= 0.2), duplication (<= 0.1),
    delay jitter, and up to f crash faults per role."""
    rng = random.Random(f"fuzz/{seed}")
    config, loss = _lossy_config(rng, seed, f)
    config.compact_deps = rng.random() < 0.4
    workload = random_workload(rng, rng.randint(2, 4), rng.randint(2, 5), conflict_rate)
    faults = crash_schedule_per_role(rng, f, config.leaders, config.replicas, 250.0)
    return config, workload, [*faults, loss]


CONFLICT_RATES = (0.0, 0.02, 0.1, 1.0)
# simulated time a fuzz run goes on after its last reply, so that repairs no
# client waits for land before commit_holes looks
SETTLE_MS = 2000.0


def short_scenario(seed: int) -> tuple[SimConfig, list, list[Fault]]:
    """The safety-fuzz scenario of a seed: f alternates between 1 and 2, and
    the conflict rate cycles through CONFLICT_RATES."""
    return fuzz_config(seed, 1 + seed % 2, CONFLICT_RATES[seed % len(CONFLICT_RATES)])


LONG_CLIENTS, LONG_COMMANDS = 20, 500
# crashes land in the first two simulated minutes; a 10k-command run lasts
# from about 20 s to 8 min of simulated time, and a run stalled by more
# than f crashes in total stops at the cap
LONG_CRASH_HORIZON_MS = 120_000.0
LONG_MAX_SIM_MS = 600_000.0
# (compact deps, conflict rate) of consecutive long-tier seeds. Exact deps
# stay off the all-conflict rate: each vertex's deps would list the whole
# history before it
LONG_KINDS = ((False, 0.02), (True, 0.02), (False, 0.1), (True, 0.1), (True, 1.0))


def long_fuzz_config(seed: int) -> tuple[SimConfig, list, list[Fault]]:
    """One long-tier scenario: fuzz_config's network and crash ranges over
    LONG_CLIENTS x LONG_COMMANDS commands. Consecutive seeds cycle through
    LONG_KINDS, and f alternates between 1 and 2 from one cycle to the
    next."""
    f = 1 + seed // len(LONG_KINDS) % 2
    rng = random.Random(f"long/{seed}")
    config, loss = _lossy_config(rng, seed, f)
    config.compact_deps, rate = LONG_KINDS[seed % len(LONG_KINDS)]
    config.max_sim_ms = LONG_MAX_SIM_MS
    workload = random_workload(rng, LONG_CLIENTS, LONG_COMMANDS, rate)
    faults = crash_schedule_per_role(rng, f, config.leaders, config.replicas, LONG_CRASH_HORIZON_MS)
    return config, workload, [*faults, loss]


# per-mutation sim settings chosen so the broken behaviour actually
# manifests: the acceptor mutation needs recovery races (drops + a short
# recovery timeout), the client-table mutation needs a late commit
# redelivered by recovery after the client has moved on
MUTATION_FUZZ = {
    "dep-quorum-one": dict(conflict_rate=1.0, drop=0.0, clients=3, commands=4,
                           jitter=8.0, recovery_ms=100.0),
    "acceptor-ignores-promises": dict(conflict_rate=1.0, drop=0.3, clients=3,
                                      commands=4, jitter=8.0, recovery_ms=15.0),
    "replica-skip-scc": dict(conflict_rate=1.0, drop=0.0, clients=3, commands=4,
                             jitter=8.0, recovery_ms=100.0),
    "client-table-largest-only": dict(conflict_rate=0.5, drop=0.15, clients=4,
                                      commands=8, jitter=10.0, recovery_ms=50.0),
}


def mutation_config(name: str, seed: int, mutations: Mutations):
    """(config, workload, faults) of a mutation's seeded run; the faults are
    its run-wide drop probability."""
    p = MUTATION_FUZZ[name]
    rng = random.Random(f"mut/{name}/{seed}")
    config = SimConfig(
        seed=seed,
        f=1,
        leaders=2,
        replicas=2,
        min_delay_ms=1.0,
        max_delay_ms=p["jitter"],
        mutations=mutations,
        timeouts=Timeouts(recovery_timeout_ms=p["recovery_ms"]),
        max_sim_ms=60_000.0,
    )
    workload = random_workload(rng, p["clients"], p["commands"], p["conflict_rate"])
    return config, workload, [LinkFault("*", "*", drop=p["drop"])]


def pairwise_conflict_violations(records) -> list[tuple[str, frozenset]]:
    """Reference for check_history's dependency-invariant and
    conflicting-order checks, as (kind, {a, b}): materialise every
    conflicting vertex pair, probe each pair's deps, and walk every pair
    again for each pair of replicas. Quadratic in the conflicting history."""
    proposals = {}
    execs: dict[str, list] = {}
    for rec in records:
        ev = rec[2]
        if isinstance(ev, (CommitSeen, ChosenEvent)):
            proposals.setdefault(ev.v, ev.proposal)
        elif isinstance(ev, ExecEvent):
            execs.setdefault(ev.replica, []).append(ev)

    readers: dict[bytes, list] = {}
    writers: dict[bytes, list] = {}
    for v, p in proposals.items():
        for key, is_write in footprint(p.cmd):
            (writers if is_write else readers).setdefault(key, []).append(v)
    pairs: set[frozenset] = set()
    for key, ws in writers.items():
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                if a != b:
                    pairs.add(frozenset((a, b)))
            for b in readers.get(key, ()):
                if a != b:
                    pairs.add(frozenset((a, b)))

    found = []
    for pair in pairs:
        a, b = tuple(pair)
        if a not in proposals[b].deps and b not in proposals[a].deps:
            found.append(("dependency-invariant", pair))
    positions = {}
    for replica, evs in execs.items():
        pos: dict = {}
        for ev in evs:
            if ev.applied and ev.v not in pos:
                pos[ev.v] = ev.position
        positions[replica] = pos
    names = sorted(positions)
    for i, r1 in enumerate(names):
        for r2 in names[i + 1 :]:
            p1, p2 = positions[r1], positions[r2]
            for pair in pairs:
                a, b = tuple(pair)
                if a in p1 and b in p1 and a in p2 and b in p2:
                    if (p1[a] < p1[b]) != (p2[a] < p2[b]):
                        found.append(("conflicting-order", pair))
    return found


def conflicting_pairs(writers: list, readers: list):
    """Every conflicting pair on one key as (earlier, later), given its
    writers and the readers that do not also write it, each in vertex order:
    each writer with every earlier writer and then with every reader."""
    for i, w in enumerate(writers):
        split = bisect_left(readers, w)
        for a in writers[:i]:
            yield a, w
        for a in readers[:split]:
            yield a, w
        for b in readers[split:]:
            yield w, b


def ordered_unlinked_pairs(records) -> list[tuple[VertexId, VertexId]]:
    """Reference for the order of check_history's dependency-invariant
    violations: keys in sorted order, each key's unlinked pairs in
    conflicting_pairs order, and a pair that conflicts on several keys kept
    where it first appears."""
    proposals = {}
    for rec in records:
        ev = rec[2]
        if isinstance(ev, (CommitSeen, ChosenEvent)):
            proposals.setdefault(ev.v, ev.proposal)
    index: dict[bytes, tuple[list, list]] = {}
    for v in sorted(proposals, key=VertexId.sort_key):
        for key, is_write in key_access(proposals[v].cmd).items():
            index.setdefault(key, ([], []))[0 if is_write else 1].append(v)
    found: list[tuple[VertexId, VertexId]] = []
    for key in sorted(index):
        writers, readers = index[key]
        unlinked = [
            (a, b) for a, b in conflicting_pairs(writers, readers)
            if a not in proposals[b].deps and b not in proposals[a].deps
        ]
        found.extend(pair for pair in unlinked if pair not in found)
    return found


def reference_execute_eligible(replica) -> list:
    """Reference for Replica.execute_eligible: Tarjan over every waiting
    vertex on every call, with no shortcut for the vertex just committed.
    Install it on an instance to drive a replica's commits through it."""
    waiting = replica.graph.waiting
    out: list = []
    roots = sorted(waiting, key=VertexId.sort_key)
    for comp in _tarjan_sccs(roots, replica._waiting_on):
        members = set(comp)
        if all(v in waiting and members.issuperset(replica._waiting_on(v)) for v in comp):
            for v in sorted(comp, key=VertexId.sort_key):
                replica._execute_vertex(v, out)
    return out


def commit_holes(result, faults=(), settle_ms=0.0) -> list[tuple[str, VertexId]]:
    """(replica, vertex) for each chosen vertex that a live replica never
    committed, in a run that went on for settle_ms after its last reply
    (Simulation.run(settle_ms)). A replica is live if no crash takes it
    before the run's end. A leader's vertices above the highest seq of it
    that a replica committed are exempt when that leader or its proposer
    crashed: only the leader's later vertices or its tail resends, through
    its proposer, reveal those."""
    horizon = result.end_ms + settle_ms
    crashed = {f.node for f in faults if isinstance(f, Crash) and f.at_ms <= horizon}
    lay = result.layout
    chosen = {ev.v for _, _, ev in result.history if isinstance(ev, ChosenEvent)}
    holes = []
    for name in lay.replicas:
        if name in crashed:
            continue
        committed = result.roles[name].graph.committed
        highest: dict[int, int] = {}
        for v in committed:
            highest[v.leader_index] = max(v.seq, highest.get(v.leader_index, -1))
        for v in sorted(chosen - committed.keys(), key=VertexId.sort_key):
            silenced = {lay.leaders[v.leader_index], lay.proposers[v.leader_index]} & crashed
            if silenced and v.seq > highest.get(v.leader_index, -1):
                continue
            holes.append((name, v))
    return holes


def run_fingerprint(result) -> str:
    """sha256 over a run's history text, wire trace, sorted sent and
    received counts, end time, completion and panic: equal digests mean the
    run is byte-identical in everything it reports."""
    h = hashlib.sha256()
    h.update(export_history(result.history).encode())
    h.update(result.wire_trace)
    h.update(repr(sorted(result.sent.items())).encode())
    h.update(repr(sorted(result.received.items())).encode())
    h.update(repr((result.end_ms, result.completed, result.panic)).encode())
    return h.hexdigest()
