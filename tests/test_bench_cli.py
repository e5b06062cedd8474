import random
from fractions import Fraction

import pytest

from fuzz_helpers import conflicts
from graphsmr.bench import (
    CSV_HEADER,
    BenchConfig,
    HOT_KEY,
    bottleneck_model,
    generate_workload,
    percentile,
    run_bench,
)
from graphsmr import bench, cli
from graphsmr.cli import main, parse_fault_file
from graphsmr.core import Set, Command
from graphsmr.harness.history import Verdict, Violation
from graphsmr.harness.sim import Crash, LinkFault, Partition


class TestWorkload:
    def test_zero_conflict_rate_has_no_conflicting_pairs(self):
        cfg = BenchConfig(clients=4, commands_per_client=10, conflict_rate=0.0)
        streams = generate_workload(cfg, random.Random(1))
        ops = [op for stream in streams for op in stream]
        cmds = [Command(f"c{i}", 1, op) for i, op in enumerate(ops)]
        assert not any(
            conflicts(a, b) for i, a in enumerate(cmds) for b in cmds[i + 1 :]
        )

    def test_full_conflict_rate_all_hot_key_writes(self):
        cfg = BenchConfig(clients=3, commands_per_client=8, conflict_rate=1.0)
        streams = generate_workload(cfg, random.Random(1))
        for stream in streams:
            for op in stream:
                assert isinstance(op, Set) and op.key == HOT_KEY

    def test_low_conflict_rate_within_three_sigma(self):
        # 10^4 draws at p = 0.02: sigma = sqrt(n p (1-p)) = 14
        cfg = BenchConfig(clients=10, commands_per_client=1000, conflict_rate=0.02)
        streams = generate_workload(cfg, random.Random(7))
        writes = sum(
            1 for stream in streams for op in stream if isinstance(op, Set)
        )
        assert abs(writes - 200) <= 3 * 14

    def test_keys_and_values_are_eight_bytes(self):
        cfg = BenchConfig(clients=2, commands_per_client=20, conflict_rate=0.5)
        for stream in generate_workload(cfg, random.Random(3)):
            for op in stream:
                assert len(op.key) == 8
                if isinstance(op, Set):
                    assert len(op.value) == 8


class TestBottleneckModel:
    def test_substitution_example(self):
        m = bottleneck_model(L=1, N=3, R=2)
        assert m.multileader == Fraction(1, 9)  # L / (2N + R + 1)
        assert m.single_leader == Fraction(1, 8)  # 1 / (2N + 2)

    def test_doubling_leaders_doubles_model(self):
        base = bottleneck_model(L=2, N=3, R=2).multileader
        assert bottleneck_model(L=4, N=3, R=2).multileader == 2 * base

    def test_growing_n_lowers_both_models(self):
        for L, R in ((1, 2), (5, 3)):
            prev = bottleneck_model(L, 3, R)
            bigger = bottleneck_model(L, 5, R)
            assert bigger.multileader < prev.multileader
            assert bigger.single_leader < prev.single_leader

    def test_saturation_point(self):
        # N=3, R=2: heavy role carries 9 messages; 2-message roles bind
        # once 9/L <= 2, so L = ceil(9/2) = 5
        assert bottleneck_model(1, 3, 2).saturation_leaders == 5

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            bottleneck_model(0, 3, 2)


class TestPercentile:
    def test_p50_le_p99(self):
        for values in ([1.0], [3.0, 1.0, 2.0], list(map(float, range(100)))):
            s = sorted(values)
            assert percentile(s, 0.5) <= percentile(s, 0.99)


class TestRunBench:
    def test_sim_bench_deterministic(self):
        cfg = dict(clients=3, commands_per_client=5, conflict_rate=0.1, seed=9,
                   max_delay_ms=4.0, thrifty=False)
        a = run_bench(BenchConfig(**cfg))
        b = run_bench(BenchConfig(**cfg))
        assert (a.throughput, a.p50_ms, a.p99_ms) == (b.throughput, b.p50_ms, b.p99_ms)

    def test_csv_row_schema(self):
        report = run_bench(
            BenchConfig(clients=2, commands_per_client=3, config_id="t1")
        )
        assert CSV_HEADER == (
            "config_id,f,leaders,clients,conflict_rate,batch,throughput,p50_ms,p99_ms"
        )
        row = report.csv_row()
        assert row.startswith("t1,1,2,2,0.0,1,")
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_thrifty_bench_runs(self):
        report = run_bench(
            BenchConfig(clients=2, commands_per_client=3, thrifty=True)
        )
        assert report.commands == 6

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_bench(BenchConfig(conflict_rate=1.5))

    @pytest.mark.parametrize("delays", [
        dict(min_delay_ms=-1.0, max_delay_ms=1.0),
        dict(min_delay_ms=3.0, max_delay_ms=2.0),
        dict(service_cost_ms=-0.5),
    ], ids=["negative-delay", "inverted-delays", "negative-service-cost"])
    def test_bad_delays_rejected(self, delays):
        with pytest.raises(ValueError, match="delay|service_cost"):
            BenchConfig(**delays).validate()


class TestCli:
    def test_sim_ok_exit_zero(self, capsys):
        rc = main(["sim", "--clients", "2", "--commands-per-client", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: ok" in out

    @pytest.mark.parametrize("flags", [["--conflict-rate", "1.5"], ["--clients", "0"],
                                       ["--min-delay-ms", "-2"],
                                       ["--min-delay-ms", "3", "--max-delay-ms", "2"],
                                       ["--f", "-1"], ["--commands-per-client", "-1"],
                                       ["--max-sim-ms", "-5"]],
                             ids=["conflict-rate", "clients", "negative-delay", "inverted-delays",
                                  "negative-f", "negative-commands", "negative-cap"])
    def test_sim_invalid_config_exit_two(self, flags, capsys):
        rc = main(["sim", "--commands-per-client", "2", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        if "--max-sim-ms" in flags:
            assert "got -5 ms" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--service-cost-ms", "-1"],
        # sockets have no service-time model to spend a cost in
        ["--transport", "socket", "--service-cost-ms", "0.1"],
        ["--f", "-1"],
        ["--commands-per-client", "0"],
        ["--duration-ms", "0"],
        # nor link delays of its own choosing
        ["--transport", "socket", "--min-delay-ms", "50", "--max-delay-ms", "50"],
        # nor roles fused onto one machine
        ["--transport", "socket", "--coupled", "--leaders", "3", "--replicas", "3",
         "--clients", "2", "--commands-per-client", "3"],
    ], ids=["negative", "socket", "negative-f", "no-commands", "zero-cap", "socket-delay",
            "socket-coupled"])
    def test_bench_negative_service_cost_exit_two(self, capsys, flags):
        rc = main(["bench", "--commands-per-client", "2", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error: ")
        if "--duration-ms" in flags:
            assert "got 0 ms" in captured.err
        if "socket" in flags:
            assert "the socket transport cannot honour" in captured.err

    def test_sim_incomplete_run_exit_one(self, capsys):
        rc = main(["sim", "--clients", "2", "--commands-per-client", "5", "--max-sim-ms", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "verdict: ok" in captured.out
        assert captured.err.startswith("simulation did not complete: ")
        assert "/10 commands answered within 3 ms" in captured.err

    def test_sim_flags_build_the_hand_written_config(self, tmp_path, monkeypatch):
        seen = []
        real_run_simulation = cli.run_simulation

        def run_simulation(config, workload, faults):
            seen.append((config, workload, faults))
            return real_run_simulation(config, workload, faults)

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        trace = tmp_path / "trace.bin"
        schedule = tmp_path / "faults.txt"
        schedule.write_text("drop leader-0->dep-1 0.5\n")
        rc = main(["sim", "--clients", "2", "--commands-per-client", "2", "--seed", "4",
                   "--leaders", "3", "--conflict-rate", "0.5", "--min-delay-ms", "0.5",
                   "--max-delay-ms", "2", "--drop", "0.1", "--dup", "0.05", "--thrifty",
                   "--batch", "3", "--compact-deps", "--max-sim-ms", "5000",
                   "--dump-trace", str(trace), "--faults", str(schedule)])
        assert rc == 0
        [(config, workload, faults)] = seen
        assert config == BenchConfig(
            seed=4, f=1, leaders=3, replicas=2, coupled=False, min_delay_ms=0.5,
            max_delay_ms=2.0, compact_deps=True, thrifty=True, batch_size=3,
            max_sim_ms=5000.0, capture_wire_trace=True, clients=2,
            commands_per_client=2, conflict_rate=0.5,
        )
        assert workload == generate_workload(config, random.Random("4/workload"))
        # --drop and --dup are one run-wide fault, after the file's, so the
        # file's lines win on the links they set
        assert faults == [LinkFault("leader-0", "dep-1", drop=0.5),
                          LinkFault("*", "*", drop=0.1, dup=0.05)]

    def test_sim_without_loss_flags_runs_the_file_faults_alone(self, tmp_path, monkeypatch):
        seen = []
        real_run_simulation = cli.run_simulation

        def run_simulation(config, workload, faults):
            seen.append(faults)
            return real_run_simulation(config, workload, faults)

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        schedule = tmp_path / "faults.txt"
        schedule.write_text("crash leader-1 30\n")
        assert main(["sim", "--clients", "1", "--commands-per-client", "1",
                     "--faults", str(schedule)]) == 0
        assert seen == [[Crash("leader-1", 30.0)]]

    def test_run_checks_its_history(self, monkeypatch, capsys):
        checked = []
        real_check = bench.check_history
        monkeypatch.setattr(bench, "check_history",
                            lambda history: checked.append(len(history)) or real_check(history))
        rc = main(["run", "--clients", "2", "--commands-per-client", "2"])
        assert rc == 0
        assert len(checked) == 1 and checked[0] > 0
        assert "commands answered: 4, history checked ok" in capsys.readouterr().out

    def test_run_safety_violation_exit_one(self, monkeypatch, capsys):
        violation = Violation("exactly-once", "planted")
        monkeypatch.setattr(bench, "check_history", lambda history: Verdict(False, [violation]))
        rc = main(["run", "--clients", "1", "--commands-per-client", "1"])
        assert rc == 1
        assert "exactly-once: planted" in capsys.readouterr().err

    def test_run_incomplete_exit_one(self, capsys):
        rc = main(["run", "--clients", "1", "--commands-per-client", "1",
                   "--wall-limit-ms", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("smoke run did not complete: ")

    def test_check_ok_exit_zero(self, capsys):
        rc = main(["check", "--commands", "1", "--conflict", "none",
                   "--vertex-bound", "1"])
        assert rc == 0
        assert "violations: none" in capsys.readouterr().out

    def test_check_counterexample_exit_one(self, capsys):
        rc = main(["check", "--commands", "2", "--quorum-size", "1",
                   "--vertex-bound", "2"])
        assert rc == 1
        assert "DepServiceConflicts" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--quorum-size", "5"], ["--quorum-size", "0"],
                                       ["--dep-nodes", "0"]],
                             ids=["quorum-above-nodes", "zero-quorum", "no-dep-nodes"])
    def test_check_invalid_model_exit_two(self, flags, capsys):
        """A quorum no set of dependency nodes can meet would pass vacuously."""
        rc = main(["check", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: ")

    def test_bench_csv_written(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["bench", "--clients", "2", "--commands-per-client", "2",
                   "--config-id", "c1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("c1,")

    @pytest.mark.parametrize(
        "args",
        [
            ["--clients", "2", "--commands-per-client", "5", "--duration-ms", "3"],
            ["--transport", "socket", "--clients", "1", "--commands-per-client", "1",
             "--duration-ms", "1"],
        ],
        ids=["sim", "socket"],
    )
    def test_bench_incomplete_run_exit_one(self, args, capsys):
        rc = main(["bench", *args])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("bench run did not complete: ")
        assert captured.err.count("\n") == 1

    def test_usage_error_exit_two(self, capsys):
        rc = main(["check", "--conflict", "pairs", "--pairs", "nonsense"])
        assert rc == 2

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "defaults.conf"
        conf.write_text("clients = 3\nconflict_rate = 1.0\n")
        rc = main(["--config", str(conf), "sim", "--commands-per-client", "2"])
        assert rc == 0
        assert "6/6 commands answered" in capsys.readouterr().out

    def test_config_file_keys_name_flag_destinations(self, tmp_path, monkeypatch):
        conf = tmp_path / "defaults.conf"
        conf.write_text("batch_size = 4\ncompact-deps = on\nclients = 3\n")
        seen = {}
        monkeypatch.setattr(cli, "cmd_sim", lambda args: seen.update(vars(args)) or 0)
        assert main(["--config", str(conf), "sim", "--clients", "7"]) == 0
        assert (seen["batch_size"], seen["compact_deps"], seen["clients"]) == (4, True, 7)

    @pytest.mark.parametrize(
        "command, line",
        [
            ("sim", "clientz = 3"),
            ("sim", "batch = 8"),
            ("sim", "compact_deps = maybe"),
            ("sim", "command = run"),
            ("check", "conflict = bogus"),
        ],
    )
    def test_config_file_unknown_key_or_bad_choice_exit_two(
        self, tmp_path, capsys, command, line
    ):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        assert main(["--config", str(conf), command]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_bad_value_exit_two(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("clients = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(conf), "sim"])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_fault_file_parsing(self, tmp_path):
        path = tmp_path / "faults.txt"
        path.write_text(
            "# schedule\n"
            "crash leader-0 25.5\n"
            "partition rep-0,acc-1 10 90\n"
            "drop leader-0->dep-1 0.5\n"
            "duplicate *->rep-0 0.25\n"
        )
        faults = parse_fault_file(str(path))
        assert faults == [
            Crash("leader-0", 25.5),
            Partition(frozenset({"rep-0", "acc-1"}), 10.0, 90.0),
            LinkFault("leader-0", "dep-1", drop=0.5),
            LinkFault("*", "rep-0", dup=0.25),
        ]

    def test_bad_fault_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "faults.txt"
        path.write_text("explode everything\n")
        rc = main(["sim", "--faults", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["drop *->* 1.5", "duplicate leader-0->dep-0 -0.1"])
    def test_fault_probability_outside_unit_interval_exit_two(self, tmp_path, capsys, line):
        path = tmp_path / "faults.txt"
        path.write_text(line + "\n")
        rc = main(["sim", "--clients", "2", "--commands-per-client", "2",
                   "--faults", str(path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_sim_with_fault_schedule(self, tmp_path, capsys):
        path = tmp_path / "faults.txt"
        path.write_text("crash leader-1 30\n")
        rc = main(["sim", "--clients", "2", "--commands-per-client", "3",
                   "--faults", str(path), "--max-sim-ms", "120000"])
        assert rc == 0

    def test_history_dump(self, tmp_path):
        dump = tmp_path / "history.txt"
        rc = main(["sim", "--clients", "1", "--commands-per-client", "2",
                   "--dump-history", str(dump)])
        assert rc == 0
        lines = dump.read_text().splitlines()
        assert len(lines) > 4
        assert all("\t" in line for line in lines)
