"""Command-line entry points.

Subcommands:
  run    stand up a cluster on loopback sockets and push a smoke workload
  bench  closed-loop benchmark (simulated or socket transport), CSV output
  sim    deterministic simulation with an optional fault schedule file,
         followed by the history safety checker
  check  explicit-state model checker

Exit codes: 0 = success / ok verdict, 1 = invariant violation or
counterexample found, 2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from .bench import (CSV_HEADER, BenchConfig, BenchReport, IncompleteRun, bottleneck_model,
                    generate_workload, run_bench)
from .harness.cluster import ConfigError
from .harness.history import check_history, export_history
from .harness.sim import Crash, LinkFault, Partition, run_simulation
from .modelcheck import ModelConfig, explore, full_conflicts, no_conflicts

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def load_config_file(path: str, parsed: dict) -> dict:
    """Plain-text key=value defaults for one subcommand; '#' starts a
    comment. Keys name the flag destinations found in `parsed`, the
    subcommand's namespace. On/off switches become booleans; other values
    stay strings, which argparse converts with the flag's own type."""
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in parsed or key in ("command", "command_parser", "config"):
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} for {parsed['command']}; "
                    "keys name flag destinations, such as batch_size for --batch"
                )
            if isinstance(parsed[key], bool):
                if value.lower() not in _BOOLEANS:
                    raise ConfigError(f"{path}:{lineno}: {key} must be on or off")
                values[key] = _BOOLEANS[value.lower()]
            else:
                values[key] = value
    return values


def parse_fault_file(path: str) -> list:
    """One fault per line:
    crash <node> <time_ms>
    partition <node,node,...> <start_ms> <end_ms>
    drop <src>-><dst> <prob>          ('*' wildcards allowed)
    duplicate <src>-><dst> <prob>
    """
    faults = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "crash" and len(parts) == 3:
                    faults.append(Crash(parts[1], float(parts[2])))
                elif parts[0] == "partition" and len(parts) == 4:
                    faults.append(
                        Partition(
                            frozenset(parts[1].split(",")),
                            float(parts[2]),
                            float(parts[3]),
                        )
                    )
                elif parts[0] in ("drop", "duplicate") and len(parts) == 3:
                    src, _, dst = parts[1].partition("->")
                    if not dst:
                        raise ValueError("link must look like src->dst")
                    prob = float(parts[2])
                    if parts[0] == "drop":
                        faults.append(LinkFault(src, dst, drop=prob))
                    else:
                        faults.append(LinkFault(src, dst, dup=prob))
                else:
                    raise ValueError(f"unrecognised fault {parts[0]!r}")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return faults


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", type=int, default=1, help="tolerated crash failures")
    p.add_argument("--leaders", type=int, default=2)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--clients", type=int, default=5)
    p.add_argument("--commands-per-client", type=int, default=20)
    p.add_argument("--conflict-rate", type=float, default=0.0)
    p.add_argument("--batch", type=int, default=1, dest="batch_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compact-deps", action="store_true")
    p.add_argument("--coupled", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsmr",
        description="multileader dependency-graph state machine replication",
    )
    parser.add_argument("--config", help="key=value file supplying defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stand up a socket cluster and smoke it")
    _add_cluster_args(p_run)
    p_run.add_argument("--wall-limit-ms", type=float, default=30_000.0)

    p_bench = sub.add_parser("bench", help="closed-loop benchmark")
    _add_cluster_args(p_bench)
    p_bench.add_argument("--transport", choices=["sim", "socket"], default="sim")
    p_bench.add_argument("--no-thrifty", dest="thrifty", action="store_false")
    p_bench.set_defaults(thrifty=True)
    p_bench.add_argument("--duration-ms", type=float, default=300_000.0)
    p_bench.add_argument("--min-delay-ms", type=float, default=1.0)
    p_bench.add_argument("--max-delay-ms", type=float, default=1.0)
    p_bench.add_argument("--service-cost-ms", type=float, default=0.0)
    p_bench.add_argument("--config-id", default="run")
    p_bench.add_argument("--out", help="append the CSV row to this file")
    p_bench.add_argument("--model", action="store_true",
                         help="also print the analytic bottleneck model")

    p_sim = sub.add_parser("sim", help="deterministic simulation + checker")
    _add_cluster_args(p_sim)
    p_sim.add_argument("--drop", type=float, default=0.0)
    p_sim.add_argument("--dup", type=float, default=0.0)
    p_sim.add_argument("--min-delay-ms", type=float, default=1.0)
    p_sim.add_argument("--max-delay-ms", type=float, default=1.0)
    p_sim.add_argument("--max-sim-ms", type=float, default=60_000.0)
    p_sim.add_argument("--thrifty", action="store_true")
    p_sim.add_argument("--faults", help="fault schedule file")
    p_sim.add_argument("--dump-history", help="write the history to this file")
    p_sim.add_argument("--dump-trace",
                       help="write delivered messages as binary wire frames")

    p_check = sub.add_parser("check", help="explicit-state model checker")
    p_check.add_argument("--commands", type=int, default=2)
    p_check.add_argument("--conflict", choices=["full", "none", "pairs"],
                         default="full")
    p_check.add_argument("--pairs", default="",
                         help="comma-separated a:b conflict pairs")
    p_check.add_argument("--dep-nodes", type=int, default=3)
    p_check.add_argument("--quorum-size", type=int, default=2)
    p_check.add_argument("--vertex-bound", type=int, default=None)
    p_check.add_argument("--max-states", type=int, default=5_000_000)

    # main() sets a subcommand's config-file defaults through this
    for p in (p_run, p_bench, p_sim, p_check):
        p.set_defaults(command_parser=p)
    return parser


_BENCH_FIELDS = {f.name for f in dataclasses.fields(BenchConfig)}


def _bench_config(args, **overrides) -> BenchConfig:
    """A subcommand's BenchConfig: flag destinations name its fields, and
    overrides fill the fields a subcommand's flags name otherwise, such as
    --duration-ms for max_sim_ms."""
    fields = {k: v for k, v in vars(args).items() if k in _BENCH_FIELDS}
    return BenchConfig(**{**fields, **overrides})


def _checked_run(config: BenchConfig, what: str) -> Optional[BenchReport]:
    """run_bench's report, or None after saying why the run failed."""
    try:
        return run_bench(config)
    except AssertionError as exc:
        print(f"safety check failed:\n{exc}", file=sys.stderr)
    except IncompleteRun as exc:
        print(f"{what} did not complete: {exc}", file=sys.stderr)
    return None


def cmd_run(args) -> int:
    config = _bench_config(args, transport="socket", max_sim_ms=args.wall_limit_ms)
    report = _checked_run(config, "smoke run")
    if report is None:
        return EXIT_VIOLATION
    print(f"cluster: f={args.f} leaders={args.leaders} replicas={args.replicas} "
          f"dep_nodes={2 * args.f + 1} acceptors={2 * args.f + 1}")
    print(f"commands answered: {report.commands}, history checked ok, "
          f"{report.throughput:.1f} per wall second")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _bench_config(args, max_sim_ms=args.duration_ms)
    report = _checked_run(config, "bench run")
    if report is None:
        return EXIT_VIOLATION
    row = report.csv_row()
    print(CSV_HEADER)
    print(row)
    if args.out:
        _append_csv(args.out, row)
    unit = "wall" if config.transport == "socket" else "simulated"
    print(f"# throughput is commands per {unit} second; "
          f"simulated numbers validate trends, not hardware")
    loads = ", ".join(f"{k}={v}" for k, v in sorted(report.role_loads.items()))
    print(f"# per-role messages per command: {loads}")
    if args.model:
        m = bottleneck_model(config.leaders, 2 * config.f + 1, config.replicas)
        print(f"# model: multileader {m.multileader} vs single-leader "
              f"{m.single_leader}; saturation at L={m.saturation_leaders}")
    return EXIT_OK


def _append_csv(path: str, row: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            has_header = fh.readline().strip() == CSV_HEADER
    except FileNotFoundError:
        has_header = False
    with open(path, "a", encoding="utf-8") as fh:
        if not has_header:
            fh.write(CSV_HEADER + "\n")
        fh.write(row + "\n")


def cmd_sim(args) -> int:
    faults = parse_fault_file(args.faults) if args.faults else []
    if args.drop or args.dup:
        # after the file's faults, so its lines win on the links they set
        faults.append(LinkFault("*", "*", drop=args.drop, dup=args.dup))
    config = _bench_config(args, capture_wire_trace=bool(args.dump_trace))
    result = run_simulation(config, generate_workload(config), faults)
    if args.dump_history:
        with open(args.dump_history, "w", encoding="utf-8") as fh:
            fh.write(export_history(result.history))
    if args.dump_trace:
        with open(args.dump_trace, "wb") as fh:
            fh.write(result.wire_trace)
    verdict = check_history(result.history)
    answered = sum(c.idx for c in result.clients)
    total = config.clients * config.commands_per_client
    print(f"simulated {result.end_ms:.1f} ms, {answered}/{total} commands answered, "
          f"{len(result.history)} history events")
    if result.panic:
        print(f"replica panic: {result.panic}", file=sys.stderr)
    if not result.completed:
        print(f"simulation did not complete: {answered}/{total} commands answered "
              f"within {config.max_sim_ms:g} ms", file=sys.stderr)
    print(f"verdict: {verdict}")
    return EXIT_OK if verdict.ok and result.completed and not result.panic else EXIT_VIOLATION


def cmd_check(args) -> int:
    commands = tuple(chr(ord("a") + i) for i in range(args.commands))
    if args.conflict == "full":
        conflicts = full_conflicts(commands)
    elif args.conflict == "none":
        conflicts = no_conflicts()
    elif args.conflict == "pairs":
        pairs = set()
        for chunk in filter(None, args.pairs.split(",")):
            a, _, b = chunk.partition(":")
            if not b:
                raise ConfigError(f"bad conflict pair {chunk!r}, expected a:b")
            pairs.add((a, b))
            pairs.add((b, a))
        conflicts = frozenset(pairs)
    else:
        raise ConfigError(f"unknown conflict mode {args.conflict!r}")
    try:
        cfg = ModelConfig(
            commands=commands,
            conflicts=conflicts,
            dep_nodes=args.dep_nodes,
            quorum_size=args.quorum_size,
            vertex_bound=args.vertex_bound,
            max_states=args.max_states,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = explore(cfg)
    print(report.summary())
    if report.violations or not report.fairness_ok:
        return EXIT_VIOLATION
    if not report.complete:
        print("WARNING: state bound exceeded; report incomplete", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            defaults = load_config_file(args.config, vars(args))
        except (OSError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # subparser defaults, unlike a pre-filled namespace, survive the
        # subcommand's own parse; explicit flags still win over them
        args.command_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "sim":
            return cmd_sim(args)
        if args.command == "check":
            return cmd_check(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
