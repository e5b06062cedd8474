import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_safety_fuzz_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "safety_fuzz.py"), "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: 2 seeded runs clean")


def test_growth_prints_one_row_per_deps_and_conflict_rate(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "growth.py"), "--sizes", "20", "40"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth, codec = proc.stdout.split("\n\n")
    header, rule, *rows = growth.splitlines()
    assert header == "| deps | conflict | sim ms/cmd @20 → @40 | checker s @20 → @40 |"
    assert [row.split(" | ")[:2] for row in rows] == [
        ["| exact", "0.0"], ["| exact", "1.0"], ["| compact", "0.1"], ["| compact", "1.0"],
    ]
    header, rule, row = codec.splitlines()
    assert header == ("| trace codec | B/record @20 → @40 | encode us/record @20 → @40 "
                      "| decode us/record @20 → @40 |")
    name, *cells = row.strip("| ").split(" | ")
    assert name == "exact 1.0"
    assert all(float(x) > 0 for cell in cells for x in cell.split(" → "))


def test_fingerprint_quick_is_reproducible(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def fingerprint(*args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "fingerprint.py"), "--quick", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    first, second = fingerprint(), fingerprint()
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines and all(len(line.split()) == 3 for line in lines)

    (tmp_path / "same.txt").write_text(first.stdout)
    assert fingerprint("--compare", "same.txt").returncode == 0
    # the run digest of one run and the verdict digest of another
    tampered = {1: "run", len(lines) - 1: "verdict"}
    for i, what in tampered.items():
        name, run, verdict = lines[i].split()
        lines[i] = f"{name} {'0' * 64} {verdict}" if what == "run" else f"{name} {run} {'0' * 64}"
    (tmp_path / "other.txt").write_text("\n".join(lines) + "\n")
    proc = fingerprint("--compare", "other.txt")
    assert proc.returncode == 1
    assert proc.stdout == first.stdout  # every run still ran
    differs = [line for line in proc.stderr.splitlines() if line.startswith("differs: ")]
    assert [line.split()[1:3] for line in differs] == [
        [lines[i].split()[0], what] for i, what in tampered.items()
    ]
    assert proc.stderr.splitlines()[-1] == f"2 of {len(lines)} runs differ"

    # a run the file expects that the script no longer runs
    gone = f"mutation/gone/0 {'0' * 64} {'0' * 64}"
    (tmp_path / "more.txt").write_text(first.stdout + gone + "\n")
    proc = fingerprint("--compare", "more.txt")
    assert proc.returncode == 1
    assert proc.stdout == first.stdout
    assert proc.stderr.splitlines() == ["missing: mutation/gone/0", "expected runs missing: 1"]
