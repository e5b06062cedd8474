"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import measure  # noqa: E402
from graphsmr.harness import Mutations  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIM_WORKLOADS, Scenario, model_config, scenarios  # noqa: E402

RUN_PY = Path(run.__file__).resolve()


def small(sc: Scenario) -> Scenario:
    return replace(sc, bench=replace(sc.bench, commands_per_client=4))


def bench_json(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), *args], capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_same_seed_gives_identical_outcomes(workload):
    a = [measure.run_scenario(small(sc), Tracer()) for sc in scenarios(workload, 7)]
    b = [measure.run_scenario(small(sc), Tracer()) for sc in scenarios(workload, 7)]
    for x, y in zip(a, b):
        assert not x.failures and not y.failures
        assert x.fingerprint == y.fingerprint
        assert (x.loads, x.assigned, x.outage_ms, x.dep_edges, x.wire_bytes) == (
            y.loads, y.assigned, y.outage_ms, y.dep_edges, y.wire_bytes)
    det = ("sim.events_per_cmd", "sim.msgs_per_cmd", "core.dep_edges_per_vertex",
           "depservice.cached_replies", "consensus.recovery_instances",
           "cluster.client_retries_per_cmd", "cluster.outage_ms", "wire.bytes_per_cmd")
    la, lb = measure._layer_metrics(a), measure._layer_metrics(b)
    assert {k: la[k] for k in det} == {k: lb[k] for k in det}
    assert measure._pooled(a) == measure._pooled(b)


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_another_seed_changes_the_workload(workload):
    one = [small(sc) for sc in scenarios(workload, 1)]
    two = [small(sc) for sc in scenarios(workload, 2)]
    assert [sc.generate() for sc in one] == [small(sc).generate() for sc in scenarios(workload, 1)]
    if workload != "commute":
        # conflict-free streams are the same reads for every seed; there the
        # seed draws only the network delays
        assert [sc.generate() for sc in one] != [sc.generate() for sc in two]
    assert [sc.sim_config().seed for sc in one] != [sc.sim_config().seed for sc in two]
    assert [measure.run_scenario(sc).fingerprint for sc in one] != [
        measure.run_scenario(sc).fingerprint for sc in two]


def test_scenarios_of_a_round_use_distinct_seeds():
    seeds = [sc.bench.seed for sc in scenarios("faults", 1)]
    assert seeds[0] == 1 and len(set(seeds)) == len(seeds)


def test_model_is_the_cli_default():
    cfg = model_config()
    assert (len(cfg.commands), cfg.dep_nodes, cfg.quorum_size) == (2, 3, 2)
    assert len(cfg.conflicts) == 2


def test_failed_history_check_counts_every_command():
    @dataclass(frozen=True)
    class Mutated(Scenario):
        def sim_config(self):
            return replace(super().sim_config(), mutations=Mutations(replica_skip_scc=True))

    base = scenarios("faults", 1)[0]
    sc = Mutated(replace(base.bench, commands_per_client=30), base.faults, False)
    tally = measure.RunTally()
    tally.add(measure.run_scenario(sc))
    assert tally.failures
    assert tally.failed == tally.attempted == sc.commands


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [[0, 0, 100, -1], [1, 10, 40, 0], [1, 50, 60, 0], [0, 70, 80, 0]]
    totals = tracer.totals()
    assert totals["outer"] == (2, 110, 60)
    assert totals["inner"] == (2, 40, 40)


def test_same_seed_runs_print_identical_deterministic_metrics():
    det = ("sim_tput_cps", "sim_p50_ms", "sim_p99_ms")
    code_a, a = bench_json("--workload", "hotspot", "--seed", "5", "--seconds", "0", "--trace", "0")
    code_b, b = bench_json("--workload", "hotspot", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert code_a == code_b == 0
    assert a["correct"] and a["failed"] == 0
    assert all(m["value"] > 0 for m in a["metrics"].values())
    assert (a["attempted"], {k: a["metrics"][k] for k in det}) == (
        b["attempted"], {k: b["metrics"][k] for k in det})
    _code, c = bench_json("--workload", "hotspot", "--seed", "6", "--seconds", "0", "--trace", "0")
    assert {k: c["metrics"][k] for k in det} != {k: a["metrics"][k] for k in det}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "commute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
