#!/usr/bin/env python3
"""graphsmr benchmark.

    python3 perfbench/run.py --workload commute --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload per process, so peak RSS belongs to that workload. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run, whose spans are written to perfbench/out/. The
package is imported from src/ of the checkout that holds this file.
`--workload all` runs every workload untraced and traced, each in a fresh
process, and prints one table. The exit code is 0 only if every output
check passed and every command was answered.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("commute", "hotspot", "faults", "modelcheck")


def use_checkout_source() -> None:
    """Import graphsmr from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphsmr" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no graphsmr package under {src}")
    sys.path.insert(0, str(src))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import measure
    from workloads import scenarios

    tracer = None
    if workload == "modelcheck":
        if trace:
            metrics, tally, lines, tracer = measure.measure_modelcheck_traced(seconds)
        else:
            metrics, tally, lines = measure.measure_modelcheck(seconds)
    else:
        plan = scenarios(workload, seed)
        if trace:
            metrics, tally, lines, tracer = measure.measure_sim_traced(plan, seconds)
        else:
            metrics, tally, lines = measure.measure_sim(plan, seconds)

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in tally.failures[:20]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload}-trace.json"
        tracer.dump(path, {
            "workload": workload,
            "seed": seed,
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "layer_fields": ["calls", "inclusive_ns", "self_ns"],
            "layers": tracer.totals(),
        })
        print(f"spans of the first traced scenario: {path.relative_to(ROOT)}")

    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and tally.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, in fresh processes."""
    status = 0
    table = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.stderr:
                print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                table.append((workload, trace, name, m["value"], m["unit"]))
    print("== summary (trace=0: end-to-end, trace=1: per layer)")
    for workload, trace, name, value, unit in table:
        print(f"{workload:10s} {trace} {name:38s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
