"""Rounds, output checks and metrics.

A run repeats rounds until its time is up. A round sets up, simulates and
checks every scenario of the workload once. Wall metrics are medians over
every scenario run; simulated metrics and counts must be the same in every
round, which the run checks.
"""

from __future__ import annotations

import hashlib
import heapq
import resource
import statistics
import struct
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import graphsmr.modelcheck as modelcheck
import graphsmr.wire as wire
from graphsmr.bench import bottleneck_model, percentile
from graphsmr.harness import check_history, role_loads
from graphsmr.harness.history import Record
from graphsmr.harness.sim import Simulation, SimResult
from graphsmr.leader import AssignEvent
from graphsmr.replica import CommitSeen
from graphsmr.consensus import ChosenEvent

from tracing import Tracer
from workloads import MODELCHECK_STATES, Scenario, model_config

SETUP_REPS = 5  # set-ups timed before the simulation and again after the check
# check_history is a pure function of the history, so a scenario run times
# it at least twice and until CHECK_MIN_S have passed: more checker samples
# per run, and a cheap check (0.1 s on commute) is not drowned in noise
CHECK_MIN_REPS = 2
CHECK_MIN_S = 0.5
# decode every 8th wire frame: a faults scenario delivers about 26k frames,
# most carrying an exact dependency set of about 175 vertices, and decoding
# all of them would take longer than the simulation
WIRE_SAMPLE_STRIDE = 8

# The host's speed drifts by up to 30 % between runs of identical work, in
# phases that outlast a run. Every scenario times a fixed reference workload
# next to its stages, and a run scales its wall times (units s and us) by
# REFERENCE_NOMINAL_S / (median reference time of the run), so they read as
# on this host at its usual speed (Python 3.11, 2 cores). In three ten-seed
# sets per workload the spread of sim_us_per_cmd was 0.04-0.12 scaled and
# 0.08-0.29 unscaled. The checker's speed does not follow the reference
# (in one set scaling widened its spread from 0.05-0.13 to 0.10-0.24), so
# checker times stay unscaled. Every run prints the factor and the unscaled
# values. Simulated times are in ms and are never scaled.
REFERENCE_NOMINAL_S = 0.060
WALL_UNITS = ("s", "us")
UNSCALED = ("check_us_per_cmd", "history.check_us_per_record")


@dataclass(frozen=True)
class _Key:
    a: int
    b: int


def reference_seconds() -> float:
    """Time one pass of frozen-dataclass, set, frozenset, dict and heap
    churn, the kind of work the checker and the simulator do."""
    t0 = time.perf_counter()
    keys = [_Key(i & 1, i) for i in range(6000)]
    position = {k: n for n, k in enumerate(keys)}
    pairs, heap, hits = set(), [], 0
    for n in range(0, len(keys), 4):
        window = frozenset(keys[max(0, n - 60) : n])
        for k in keys[n : n + 4]:
            pairs.add(frozenset((k, keys[n // 2])))
            hits += len(window & {keys[n // 3], keys[n // 5]})
            heapq.heappush(heap, (position[k] % 97, n, k))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def at_reference_speed(metrics: dict, refs: list[float]) -> tuple[dict, str]:
    """Scale the wall-time metrics, except the checker's, by the run's speed
    factor; returns the scaled metrics and a line with the factor and the
    unscaled values."""
    factor = REFERENCE_NOMINAL_S / statistics.median(refs)

    def scaled(name, unit):
        return unit in WALL_UNITS and name not in UNSCALED

    out = {
        name: (value * factor if scaled(name, unit) else value, unit)
        for name, (value, unit) in metrics.items()
    }
    raw = ", ".join(f"{n} {v:.6g}" for n, (v, u) in metrics.items() if scaled(n, u))
    line = (f"host speed: reference {statistics.median(refs) * 1e3:.2f} ms (median of "
            f"{len(refs)}) vs {REFERENCE_NOMINAL_S * 1e3:.2f} ms nominal; wall times "
            f"scaled by {factor:.4f}; unscaled: {raw}")
    return out, line


ROLE_EVENT_SPANS = tuple(
    f"{layer}.{method}"
    for layer in (
        "leader", "depservice", "consensus.proposer", "consensus.acceptor",
        "replica", "cluster.client",
    )
    for method in ("on_message", "on_timer")
)


@dataclass
class ScenarioOutcome:
    """What one scenario produced in one round."""

    commands: int
    answered: int
    setups: list[float]
    sim_s: float
    checks: list[float]  # wall time of each check_history call
    latencies: list[float]
    end_ms: float
    outage_ms: float
    history_len: int
    sent: int
    client_sends: int
    loads: dict[str, float]
    assigned: int
    fingerprint: tuple
    refs: list[float]  # reference times around this scenario's stages
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    dep_edges: int = 0
    vertices: int = 0
    recovery_instances: int = 0
    wire_msgs: int = 0
    wire_decoded: int = 0
    wire_bytes: int = 0
    encode_s: float = 0.0
    decode_s: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def longest_silence_ms(result: SimResult) -> float:
    """Longest simulated interval, from the start of the run, in which no
    client received a reply."""
    replies = sorted(done for c in result.clients for _sent, done in c.reply_times)
    return max((b - a for a, b in zip([0.0] + replies, replies)), default=0.0)


def _vertex_proposals(history: list[Record]) -> dict:
    proposals = {}
    for _t, _n, ev in history:
        if isinstance(ev, (CommitSeen, ChosenEvent)):
            proposals.setdefault(ev.v, ev.proposal)
    return proposals


def _iter_trace_records(data: bytes):
    pos = 0
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        yield data[pos : pos + 4 + length]
        pos += 4 + length


def check_wire_trace(result: SimResult) -> list[str]:
    """The captured frames name each destination exactly as often as the
    simulator delivered to it, and every WIRE_SAMPLE_STRIDE-th frame decodes
    and re-encodes to the same bytes."""
    per_dst: Counter = Counter()
    for i, record in enumerate(_iter_trace_records(result.wire_trace)):
        # [u32 length][u32 n][src: n bytes][u32 m][dst: m bytes][message]
        (src_len,) = struct.unpack_from(">I", record, 4)
        (dst_len,) = struct.unpack_from(">I", record, 8 + src_len)
        dst = record[12 + src_len : 12 + src_len + dst_len].decode()
        per_dst[dst] += 1
        if i % WIRE_SAMPLE_STRIDE == 0:
            ((src, decoded_dst, msg),) = wire.decode_trace(record)
            if decoded_dst != dst or wire.encode_trace_record(src, dst, msg) != record:
                return [f"wire: frame {i} ({src}->{dst}) does not round-trip"]
    if per_dst != Counter(result.received):
        return ["wire: the captured frames differ from the delivered messages"]
    return []


@contextmanager
def _patched(module, name: str, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def _set_up(sc: Scenario, setups: list[float]) -> Simulation:
    """SETUP_REPS timed set-ups appended to setups; returns the last."""
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        sim = Simulation(sc.sim_config(), sc.generate(), list(sc.faults))
        setups.append(time.perf_counter() - start)
    return sim


def run_scenario(sc: Scenario, tracer: Tracer | None = None, verify_wire: bool = False) -> ScenarioOutcome:
    refs = [reference_seconds()]
    setups: list[float] = []
    sim = _set_up(sc, setups)

    if tracer is None:
        t0 = time.perf_counter()
        result = sim.run()
        t1 = time.perf_counter()
        refs.append(reference_seconds())
        checks = []
        while len(checks) < CHECK_MIN_REPS or sum(checks) < CHECK_MIN_S:
            t2 = time.perf_counter()
            verdict = check_history(result.history)
            checks.append(time.perf_counter() - t2)
    else:
        tracer.instrument(sim.roles)
        encode = tracer.wrap("wire.encode_trace_record", wire.encode_trace_record)
        with _patched(wire, "encode_trace_record", encode):
            t0 = time.perf_counter()
            with tracer.span("harness.sim.run"):
                result = sim.run()
            t1 = time.perf_counter()
        refs.append(reference_seconds())
        t2 = time.perf_counter()
        with tracer.span("harness.history.check_history"):
            verdict = check_history(result.history)
        checks = [time.perf_counter() - t2]
    refs.append(reference_seconds())
    _set_up(sc, setups)

    failures = []
    if not verdict.ok:
        failures.append(f"check_history: {str(verdict)[:400]}")
    if result.panic:
        failures.append(f"replica panic: {result.panic}")
    if not result.completed:
        failures.append("not every client is done")
    if verify_wire and sc.capture_wire_trace:
        failures.extend(check_wire_trace(result))

    latencies = sorted(result.latencies_ms())
    client_names = {c.name for c in result.clients}
    out = ScenarioOutcome(
        commands=sc.commands,
        answered=len(latencies),
        setups=setups,
        sim_s=t1 - t0,
        checks=checks,
        latencies=latencies,
        end_ms=result.end_ms,
        outage_ms=longest_silence_ms(result),
        history_len=len(result.history),
        sent=sum(result.sent.values()),
        client_sends=sum(n for node, n in result.sent.items() if node in client_names),
        loads={k: float(v) for k, v in role_loads(result).items()},
        assigned=sum(1 for _t, _n, ev in result.history if isinstance(ev, AssignEvent)),
        fingerprint=(
            len(latencies),
            result.end_ms,
            len(result.history),
            tuple(sorted(result.sent.items())),
            hashlib.sha256(repr(latencies).encode()).hexdigest(),
            hashlib.sha256(result.wire_trace).hexdigest(),
        ),
        refs=refs,
        failures=failures,
    )
    if tracer is not None:
        out.tracer = tracer
        _measure_layers(out, result, tracer)
    return out


def _measure_layers(out: ScenarioOutcome, result: SimResult, tracer: Tracer) -> None:
    """The traced-only measurements: dependency-set sizes from the history,
    recovery state, and the wire codec on the delivered messages (encode
    every one, decode every WIRE_SAMPLE_STRIDE-th)."""
    proposals = _vertex_proposals(result.history)
    out.vertices = len(proposals)
    out.dep_edges = sum(len(p.deps.expand() - {v}) for v, p in proposals.items())
    out.recovery_instances = sum(
        len(role.recovery.instances)
        for role in result.roles.values()
        if getattr(role, "recovery", None) is not None
    )
    delivered = tracer.delivered
    t0 = time.perf_counter()
    records = [wire.encode_trace_record(src, dst, msg) for src, dst, msg in delivered]
    t1 = time.perf_counter()
    sample = records[::WIRE_SAMPLE_STRIDE]
    decoded = [wire.decode_trace(record)[0] for record in sample]
    t2 = time.perf_counter()
    out.encode_s, out.decode_s = t1 - t0, t2 - t1
    out.wire_msgs, out.wire_decoded = len(records), len(sample)
    out.wire_bytes = sum(len(r) for r in records)
    if decoded != delivered[::WIRE_SAMPLE_STRIDE]:
        out.failures.append("wire: delivered messages do not survive encode/decode")
    if result.config.capture_wire_trace and b"".join(records) != result.wire_trace:
        out.failures.append("wire: the captured trace is not the delivered messages")
    tracer.delivered = []


# -- rounds ------------------------------------------------------------------


@dataclass
class RunTally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, outcome: ScenarioOutcome) -> None:
        self.attempted += outcome.commands
        if outcome.failures:
            self.failed += outcome.commands
            self.failures.extend(outcome.failures)
        else:
            self.failed += outcome.commands - outcome.answered


def _round(scenarios, tally: RunTally, reference: list | None, traced: bool, verify_wire: bool):
    outcomes = []
    for i, sc in enumerate(scenarios):
        o = run_scenario(sc, Tracer() if traced else None, verify_wire=verify_wire)
        if reference is not None and o.fingerprint != reference[i]:
            o.failures.append(f"scenario {i}: a repeated round gave different results")
        tally.add(o)
        outcomes.append(o)
    return outcomes


def _pooled(outcomes: list[ScenarioOutcome]) -> dict[str, float]:
    answered = sum(o.answered for o in outcomes)
    latencies = sorted(x for o in outcomes for x in o.latencies)
    return {
        "sim_tput_cps": answered / (sum(o.end_ms for o in outcomes) / 1000.0),
        "sim_p50_ms": percentile(latencies, 0.50),
        "sim_p99_ms": percentile(latencies, 0.99),
    }


def _median_us_per_cmd(rounds: list[list[ScenarioOutcome]], samples) -> float:
    """Median over every timed call of the run of its wall time per
    answered command; samples(outcome) gives one scenario run's calls."""
    return statistics.median(t / o.answered for r in rounds for o in r for t in samples(o)) * 1e6


def _pooled_load(outcomes: list[ScenarioOutcome], role: str) -> float:
    """harness.role_loads over several scenarios: messages per node of the
    role per assigned vertex."""
    return sum(o.loads[role] * o.assigned for o in outcomes) / sum(o.assigned for o in outcomes)


def measure_sim(scenarios: list[Scenario], seconds: float) -> tuple[dict, RunTally, list[str]]:
    """Untraced rounds until the time is up. Returns the end-to-end metrics,
    the tally, and human-readable lines."""
    tally = RunTally()
    start = time.perf_counter()
    rounds = [_round(scenarios, tally, None, traced=False, verify_wire=True)]
    rss = peak_rss_mb()
    reference = [o.fingerprint for o in rounds[0]]
    while time.perf_counter() - start < seconds:
        rounds.append(_round(scenarios, tally, reference, traced=False, verify_wire=False))

    first = rounds[0]
    pooled = _pooled(first)
    metrics = {
        "setup_s": (statistics.median(t for r in rounds for o in r for t in o.setups), "s"),
        "sim_us_per_cmd": (_median_us_per_cmd(rounds, lambda o: [o.sim_s]), "us"),
        "check_us_per_cmd": (_median_us_per_cmd(rounds, lambda o: o.checks), "us"),
        "sim_tput_cps": (pooled["sim_tput_cps"], "cmd/s"),
        "sim_p50_ms": (pooled["sim_p50_ms"], "ms"),
        "sim_p99_ms": (pooled["sim_p99_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics, speed_line = at_reference_speed(metrics, [t for r in rounds for o in r for t in o.refs])
    answered = sum(o.answered for o in first)
    lines = [
        speed_line,
        f"rounds: {len(rounds)} of {len(scenarios)} scenario(s), "
        f"{answered} answered commands per round, "
        f"p99 over {answered} latencies",
        f"failed_frac = {tally.failed / tally.attempted:.6f} "
        f"({tally.failed} of {tally.attempted} commands attempted)",
        f"sim_outage_ms = {max(o.outage_ms for o in first):.3f} ms "
        "(longest simulated interval with no client reply)",
    ]
    lines.extend(model_lines(scenarios[0], first))
    return metrics, tally, lines


def model_lines(sc: Scenario, outcomes: list[ScenarioOutcome]) -> list[str]:
    """Measured per-role messages per assigned vertex beside the analytic
    model in graphsmr.bench.bottleneck_model."""
    L, N, R = sc.bench.leaders, 2 * sc.bench.f + 1, sc.bench.replicas
    m = bottleneck_model(L, N, R)
    predicted = {"leader": 1 / m.single_leader, "proposer": L / m.multileader}
    assigned = sum(o.assigned for o in outcomes)
    lines = []
    for role, model in predicted.items():
        measured = _pooled_load(outcomes, role)
        lines.append(
            f"model: {role} {measured:.3f} msgs per vertex measured vs "
            f"{model} predicted (N={N}, R={R}); ratio {measured / float(model):.3f} "
            f"on a base of {assigned} assigned vertices"
        )
    return lines


def measure_sim_traced(scenarios: list[Scenario], seconds: float) -> tuple[dict, RunTally, list[str], Tracer]:
    """One untraced round as the overhead base, then traced rounds until the
    time is up. Returns the per-layer metrics, the tally, human-readable
    lines and the tracer of the first traced scenario (for the span dump)."""
    tally = RunTally()
    start = time.perf_counter()
    base = _round(scenarios, tally, None, traced=False, verify_wire=True)
    reference = [o.fingerprint for o in base]
    rounds = [_round(scenarios, tally, reference, traced=True, verify_wire=False)]
    while time.perf_counter() - start < seconds:
        rounds.append(_round(scenarios, tally, reference, traced=True, verify_wire=False))

    per_round = [_layer_metrics(r) for r in rounds]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_v, unit) in per_round[0].items()
    }
    base_sim = sum(o.sim_s for o in base)
    traced_sim = statistics.median(sum(o.sim_s for o in r) for r in rounds)
    metrics, speed_line = at_reference_speed(metrics, [t for r in rounds for o in r for t in o.refs])
    metrics["trace.overhead_ratio"] = (traced_sim / base_sim, "x")

    lines = [
        f"tracing overhead: Simulation.run {traced_sim:.3f} s traced (median of "
        f"{len(rounds)} rounds) vs {base_sim:.3f} s untraced; "
        f"ratio {traced_sim / base_sim:.3f} (unscaled wall times)",
        speed_line,
    ]
    lines.extend(_self_time_lines(_sum_totals(rounds[0])))
    lines.extend(model_lines(scenarios[0], rounds[0]))
    return metrics, tally, lines, rounds[0][0].tracer


def _sum_totals(outcomes: list[ScenarioOutcome]) -> dict[str, list]:
    """Span totals summed over scenarios."""
    totals: dict[str, list] = {}
    for o in outcomes:
        for name, (calls, incl, self_ns) in o.tracer.totals().items():
            acc = totals.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_ns
    return totals


def _self_time_lines(totals: dict) -> list[str]:
    """One line per span name: calls, inclusive and self time."""
    lines = ["span                                       calls   incl_ms   self_ms"]
    for name, (calls, incl, self_ns) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:40s} {calls:8d} {incl / 1e6:9.1f} {self_ns / 1e6:9.1f}")
    return lines


def _layer_metrics(outcomes: list[ScenarioOutcome]) -> dict[str, tuple[float, str]]:
    totals = _sum_totals(outcomes)
    answered = sum(o.answered for o in outcomes)

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def incl_us(name):
        return totals.get(name, (0, 0, 0))[1] / 1e3

    def self_us(prefix):
        return sum(t[2] for n, t in totals.items() if n.startswith(prefix)) / 1e3

    def load(role):
        return _pooled_load(outcomes, role)

    exec_calls = sum(o.tracer.exec_calls for o in outcomes)
    dep_calls = calls("depservice.handle_dep_request")
    history_len = sum(o.history_len for o in outcomes)
    wire_msgs = sum(o.wire_msgs for o in outcomes)
    return {
        "sim.loop_self_us_per_cmd": (self_us("harness.sim.run") / answered, "us"),
        "sim.events_per_cmd": (sum(calls(n) for n in ROLE_EVENT_SPANS) / answered, "count"),
        "sim.msgs_per_cmd": (sum(o.sent for o in outcomes) / answered, "count"),
        "replica.commit_us_per_cmd": (self_us("replica.on_") / answered, "us"),
        "replica.execute_us_per_call": (incl_us("replica.execute_eligible") / max(exec_calls, 1), "us"),
        "replica.execute_calls_per_cmd": (exec_calls / answered, "count"),
        "replica.exec_per_call": (sum(o.tracer.exec_vertices for o in outcomes) / max(exec_calls, 1), "count"),
        "replica.backlog_mean": (sum(o.tracer.exec_backlog for o in outcomes) / max(exec_calls, 1), "count"),
        "replica.msgs_per_cmd": (load("replica"), "count"),
        "core.dep_edges_per_vertex": (
            sum(o.dep_edges for o in outcomes) / max(sum(o.vertices for o in outcomes), 1), "count"),
        "depservice.us_per_call": (incl_us("depservice.handle_dep_request") / max(dep_calls, 1), "us"),
        "depservice.calls_per_cmd": (dep_calls / answered, "count"),
        "depservice.cached_replies": (float(sum(o.tracer.cached_dep_replies for o in outcomes)), "count"),
        "depservice.msgs_per_cmd": (load("dep"), "count"),
        "leader.us_per_cmd": (self_us("leader.") / answered, "us"),
        "leader.msgs_per_cmd": (load("leader"), "count"),
        "consensus.proposer_us_per_cmd": (
            (self_us("consensus.proposer.") + self_us("consensus.recovery.")) / answered, "us"),
        "consensus.acceptor_us_per_cmd": (self_us("consensus.acceptor.") / answered, "us"),
        "consensus.proposer_msgs_per_cmd": (load("proposer"), "count"),
        "consensus.acceptor_msgs_per_cmd": (load("acceptor"), "count"),
        "consensus.recovery_instances": (float(sum(o.recovery_instances for o in outcomes)), "count"),
        "cluster.client_us_per_cmd": (self_us("cluster.client.") / answered, "us"),
        "cluster.client_retries_per_cmd": (
            sum(o.client_sends - o.answered for o in outcomes) / answered, "count"),
        "cluster.outage_ms": (max(o.outage_ms for o in outcomes), "ms"),
        "history.records_per_cmd": (history_len / answered, "count"),
        "history.check_us_per_record": (incl_us("harness.history.check_history") / history_len, "us"),
        "wire.encode_us_per_msg": (sum(o.encode_s for o in outcomes) / wire_msgs * 1e6, "us"),
        "wire.decode_us_per_msg": (
            sum(o.decode_s for o in outcomes) / sum(o.wire_decoded for o in outcomes) * 1e6, "us"),
        "wire.bytes_per_cmd": (sum(o.wire_bytes for o in outcomes) / answered, "B"),
    }


# -- model checker -------------------------------------------------------------


def _explore_once(tally: RunTally, tracer: Tracer | None = None):
    """One exploration: (set-up s, explore s, report, reference times)."""
    refs = [reference_seconds()]
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cfg = model_config()
        modelcheck.initial_state(cfg)
        setups.append(time.perf_counter() - t0)
    if tracer is None:
        t0 = time.perf_counter()
        report = modelcheck.explore(cfg)
        elapsed = time.perf_counter() - t0
    else:
        invariants = tuple(
            (name, tracer.wrap(f"modelcheck.invariant.{name}", check))
            for name, check in modelcheck.STATE_INVARIANTS
        )
        successors = tracer.wrap("modelcheck.successors", modelcheck.successors)
        with _patched(modelcheck, "STATE_INVARIANTS", invariants), \
                _patched(modelcheck, "successors", successors):
            t0 = time.perf_counter()
            with tracer.span("modelcheck.explore"):
                report = modelcheck.explore(cfg)
            elapsed = time.perf_counter() - t0
    refs.append(reference_seconds())
    tally.attempted += 1
    problems = []
    if not report.ok:
        problems.append(f"model checker: {report.summary()}")
    if report.states != MODELCHECK_STATES:
        problems.append(f"model checker: {report.states} states, expected {MODELCHECK_STATES}")
    if problems:
        tally.failed += 1
        tally.failures.extend(problems)
    return statistics.median(setups), elapsed, report, refs


def measure_modelcheck(seconds: float) -> tuple[dict, RunTally, list[str]]:
    tally = RunTally()
    start = time.perf_counter()
    samples = [_explore_once(tally)]
    rss = peak_rss_mb()
    while time.perf_counter() - start < seconds:
        samples.append(_explore_once(tally))
    report = samples[0][2]
    metrics = {
        "setup_s": (statistics.median(s[0] for s in samples), "s"),
        "mc_us_per_state": (statistics.median(s[1] for s in samples) / report.states * 1e6, "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics, speed_line = at_reference_speed(metrics, [t for s in samples for t in s[3]])
    lines = [
        speed_line,
        f"explorations: {len(samples)}; {report.states} states, "
        f"{report.transitions} transitions, complete={report.complete}",
    ]
    return metrics, tally, lines


def measure_modelcheck_traced(seconds: float) -> tuple[dict, RunTally, list[str], Tracer]:
    tally = RunTally()
    start = time.perf_counter()
    _setup, base_s, _report, _refs = _explore_once(tally)
    runs = []
    while not runs or time.perf_counter() - start < seconds:
        tracer = Tracer()
        _setup, elapsed, report, refs = _explore_once(tally, tracer)
        runs.append((tracer, elapsed, refs))
    tracer = runs[0][0]

    def per_state_us(run, prefix):
        self_ns = sum(t[2] for n, t in run[0].totals().items() if n.startswith(prefix))
        return self_ns / 1e3 / report.states

    traced_s = statistics.median(r[1] for r in runs)
    metrics = {
        "modelcheck.states": (float(report.states), "count"),
        "modelcheck.transitions": (float(report.transitions), "count"),
        "modelcheck.us_per_transition": (traced_s / report.transitions * 1e6, "us"),
        "modelcheck.successors_us_per_state": (
            statistics.median(per_state_us(r, "modelcheck.successors") for r in runs), "us"),
        "modelcheck.invariants_us_per_state": (
            statistics.median(per_state_us(r, "modelcheck.invariant.") for r in runs), "us"),
        "modelcheck.search_self_us_per_state": (
            statistics.median(per_state_us(r, "modelcheck.explore") for r in runs), "us"),
    }
    metrics, speed_line = at_reference_speed(metrics, [t for r in runs for t in r[2]])
    metrics["trace.overhead_ratio"] = (traced_s / base_s, "x")
    lines = [
        speed_line,
        f"tracing overhead: explore {traced_s:.3f} s traced (median of {len(runs)}) "
        f"vs {base_s:.3f} s untraced; ratio {traced_s / base_s:.3f}",
    ]
    lines.extend(_self_time_lines(tracer.totals()))
    return metrics, tally, lines, tracer
