#!/usr/bin/env python3
"""Byte-identity fingerprints of 164 seeded simulation runs.

Prints one `name digest verdict` line per run, where the digest covers the
run's history text, wire trace, sent and received counts, end time,
completion and panic (tests/fuzz_helpers.run_fingerprint), and the verdict
is the sha256 of the text of check_history's verdict on the run's history.
A change meant to keep same-seed runs, or the checker's verdicts, identical
saves the output of the parent commit (or runs this script in a copy of
it) and checks itself against it with --compare. The runs:

- bench: the benchmark's commute, hotspot and faults rounds at seeds 1-3
  (12 scenarios, from perfbench/workloads.py);
- grid: exact/compact deps x batch 1/4 x conflict 0/0.5/1 x seeds 1-6,
  6 clients x 20 commands, delays U[1,3] ms, drop and dup 0.05 on every
  link, leader-1 crashed at 40 ms on even seeds, wire trace captured so the
  digest covers the codec on both deps formats and on batches (72 runs);
- fuzz: tests/fuzz_helpers.fuzz_config seeds 0-59, f=2 on every fifth,
  conflict 0/0.5/1 in turn;
- mutation: mutation_config seeds 0-4 for each ALL_MUTATIONS entry.

--quick runs a subset of the grid, fuzz and mutation runs in a few seconds.

Usage: python scripts/fingerprint.py [--quick] > parent.txt
       python scripts/fingerprint.py [--quick] --compare parent.txt

--compare runs every run, names on stderr each one whose run digest or
verdict digest differs and each run of the file that no longer runs, and
exits 1 if any did.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from fuzz_helpers import fuzz_config, mutation_config, run_fingerprint
from graphsmr.bench import BenchConfig, generate_workload
from graphsmr.harness import ALL_MUTATIONS, Crash, LinkFault, check_history, run_simulation
from workloads import SIM_WORKLOADS, scenarios


def bench_runs(seeds):
    for workload in SIM_WORKLOADS:
        for seed in seeds:
            for i, sc in enumerate(scenarios(workload, seed)):
                yield (f"bench/{workload}/{seed}/{i}",
                       (sc.sim_config(), sc.generate(), list(sc.faults)))


def grid_runs(seeds, batches=(1, 4), conflicts=(0.0, 0.5, 1.0)):
    for deps in ("exact", "compact"):
        for batch in batches:
            for conflict in conflicts:
                for seed in seeds:
                    config = BenchConfig(
                        clients=6, commands_per_client=20, conflict_rate=conflict,
                        batch_size=batch, compact_deps=deps == "compact",
                        min_delay_ms=1.0, max_delay_ms=3.0, capture_wire_trace=True,
                        seed=seed,
                    )
                    faults = [Crash("leader-1", 40.0)] if seed % 2 == 0 else []
                    faults.append(LinkFault("*", "*", drop=0.05, dup=0.05))
                    yield (f"grid/{deps}/b{batch}/c{conflict}/{seed}",
                           (config, generate_workload(config), faults))


def fuzz_runs(seeds):
    for seed in seeds:
        f = 2 if seed % 5 == 4 else 1
        yield f"fuzz/{seed}", fuzz_config(seed, f, (0.0, 0.5, 1.0)[seed % 3])


def mutation_runs(seeds):
    for name, mutations in ALL_MUTATIONS.items():
        for seed in seeds:
            yield f"mutation/{name}/{seed}", mutation_config(name, seed, mutations)


def all_runs(quick: bool):
    if quick:
        yield from grid_runs((1, 2), batches=(1, 4), conflicts=(0.5,))
        yield from fuzz_runs(range(4))
        yield from mutation_runs((0,))
        return
    yield from bench_runs((1, 2, 3))
    yield from grid_runs(range(1, 7))
    yield from fuzz_runs(range(60))
    yield from mutation_runs(range(5))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run a small subset")
    parser.add_argument("--compare", metavar="FILE",
                        help="name every run whose run or verdict digest differs "
                             "from FILE's, and every run of FILE not run, then exit 1 "
                             "if any")
    args = parser.parse_args()
    expected = None
    if args.compare:
        lines = Path(args.compare).read_text().splitlines()
        expected = {name: digests for name, *digests in map(str.split, lines) if digests}
    runs = differing = 0
    for name, (config, workload, faults) in all_runs(args.quick):
        result = run_simulation(config, workload, faults)
        digests = [
            run_fingerprint(result),
            hashlib.sha256(str(check_history(result.history)).encode()).hexdigest(),
        ]
        print(name, *digests, flush=True)
        runs += 1
        if expected is None:
            continue
        want = (expected.pop(name, []) + ["no entry"] * 2)[:2]
        for what, got, was in zip(("run", "verdict"), digests, want):
            if got != was:
                print(f"differs: {name} {what} (expected {was})", file=sys.stderr, flush=True)
        if digests != want:
            differing += 1
    # what is left of FILE's runs did not run
    for name in expected or ():
        print(f"missing: {name}", file=sys.stderr)
    if differing:
        print(f"{differing} of {runs} runs differ", file=sys.stderr)
    if expected:
        print(f"expected runs missing: {len(expected)}", file=sys.stderr)
    return 1 if differing or expected else 0


if __name__ == "__main__":
    sys.exit(main())
