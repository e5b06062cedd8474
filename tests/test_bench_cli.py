import random
from fractions import Fraction

import pytest

from graphsmr.bench import (
    CSV_HEADER,
    BenchConfig,
    HOT_KEY,
    bottleneck_model,
    generate_workload,
    percentile,
    run_bench,
)
from graphsmr import cli
from graphsmr.cli import main, parse_fault_file
from graphsmr.core import Set, conflicts, Command
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
        assert a.checked

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


class TestCli:
    def test_sim_ok_exit_zero(self, capsys):
        rc = main(["sim", "--clients", "2", "--commands-per-client", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: ok" in out

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
