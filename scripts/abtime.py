#!/usr/bin/env python3
"""In-process A/B timing of the simulator: two source trees, one process.

Loads OLD/src/graphsmr and NEW/src/graphsmr as two packages under their own
module names (graphsmr_old and graphsmr_new), and each tree's
perfbench/workloads.py against its own package, so both sides build their
scenarios from their own code; perfbench/ is only read. After one untimed
round per tree, each pair runs every scenario of the workload's round once
per tree, the old tree first in even pairs and the new tree first in odd
ones, with gc.collect() before each timed Simulation.run(). A side's sample
of a pair is the wall time of its runs per command, in microseconds,
unscaled.

Alternating within one process cancels most of the host's slow drift that
separate benchmark processes pick up between them, so a difference of a
few percent shows in fewer pairs.

The two trees must produce the same runs: the script exits 1 if any run's
history text or wire trace differs between them, 0 otherwise.

Usage: python scripts/abtime.py OLD NEW --workload hotspot --seed 7 --pairs 20
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("commute", "hotspot", "faults")


def load_tree(root: Path, tag: str):
    """(graphsmr_<tag> package, its workloads module) from one tree."""
    name = f"graphsmr_{tag}"
    pkg_dir = root / "src" / "graphsmr"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    if spec is None or not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"abtime: no graphsmr package under {root / 'src'}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("bench", "core", "harness", "harness.sim", "modelcheck"):
        importlib.import_module(f"{name}.{sub}")

    # workloads.py imports graphsmr by its own name: point that name at
    # this tree's package while the module loads, and at nothing after
    aliases = {
        "graphsmr" + key[len(name):]: module
        for key, module in list(sys.modules.items())
        if key == name or key.startswith(name + ".")
    }
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{tag}", root / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for key in aliases:
            del sys.modules[key]
    return package, workloads


def run_round(package, workloads, workload: str, seed: int):
    """(wall seconds of Simulation.run over the round, commands, the
    history text and wire trace of each scenario)."""
    export_history = package.harness.export_history
    elapsed, commands, outputs = 0.0, 0, []
    for sc in workloads.scenarios(workload, seed):
        sim = package.harness.sim.Simulation(sc.sim_config(), sc.generate(), list(sc.faults))
        gc.collect()
        start = time.perf_counter()
        result = sim.run()
        elapsed += time.perf_counter() - start
        commands += sc.commands
        outputs.append((export_history(result.history), result.wire_trace))
    return elapsed, commands, outputs


def summary(samples: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return f"median {median:.2f}  quartiles {q1:.2f}-{q3:.2f}  min {min(samples):.2f}"


def main() -> int:
    sys.dont_write_bytecode = True  # leave both trees as they are, caches too
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path, help="root of the baseline tree")
    ap.add_argument("new", type=Path, help="root of the tree under test")
    ap.add_argument("--workload", choices=WORKLOADS, default="hotspot")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"old": load_tree(args.old.resolve(), "old"),
             "new": load_tree(args.new.resolve(), "new")}
    samples: dict[str, list[float]] = {"old": [], "new": []}
    mismatches = 0
    for side in sides.values():  # the process's first rounds warm it up, untimed
        run_round(*side, args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: Simulation.run wall us/cmd, unscaled")
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        outputs = {}
        for side in order:
            elapsed, commands, outputs[side] = run_round(*sides[side], args.workload, args.seed)
            samples[side].append(elapsed / commands * 1e6)
        for i, (old, new) in enumerate(zip(outputs["old"], outputs["new"])):
            if old[0] != new[0]:
                mismatches += 1
                print(f"differs: pair {pair} scenario {i} history text", file=sys.stderr)
            if old[1] != new[1]:
                mismatches += 1
                print(f"differs: pair {pair} scenario {i} wire trace", file=sys.stderr)
        print(f"pair {pair} ({order[0]} first): old {samples['old'][-1]:.2f}  "
              f"new {samples['new'][-1]:.2f}")

    wins = sum(n < o for o, n in zip(samples["old"], samples["new"]))
    change = statistics.median(samples["new"]) / statistics.median(samples["old"]) - 1
    print(f"old: {summary(samples['old'])}")
    print(f"new: {summary(samples['new'])}")
    print(f"new lower in {wins} of {args.pairs} pairs; median {change * 100:+.1f} %")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
