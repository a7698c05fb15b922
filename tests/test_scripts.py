"""The helper scripts in scripts/ run on ordinary input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapembed

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = str(Path(gapembed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, argv",
    [
        ("param_table.py", ["--m", "0"]),
        ("param_table.py", ["--m", "1" + "0" * 200]),
    ],
    ids=["m-zero", "m-huge"],
)
def test_scripts_reject_bad_input_with_exit_two(script, argv):
    proc = run_script(script, *argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_param_table_prints_past_the_float_range():
    proc = run_script("param_table.py", "--levels", "1300")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].split()[:3] == ["1300", "inf", "inf"]
    assert lines[-1].startswith("feasibility horizon: level ")


def test_param_table_lists_each_violation_once():
    proc = run_script("param_table.py", "--m", "2", "--levels", "3")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:-1]
    notes = [row.split()[-1].split(";") for row in rows]
    assert "q-tri-cap" in notes[1] and "q-tri" not in notes[1]
    assert all(len(set(row)) == len(row) for row in notes)


@pytest.mark.parametrize(
    "m, levels, horizon",
    # At m = 10 level 1 already fails the delta ratio and level 2 the slope
    # product; the horizon grows only with m.
    [("10", "8", 0), ("1000", "12", 1), ("10000", "6", 6)],
)
def test_param_table_prints_the_feasibility_horizon(m, levels, horizon):
    proc = run_script("param_table.py", "--m", m, "--levels", levels)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + int(levels) + 1
    assert lines[-1] == f"feasibility horizon: level {horizon}"
    # the last level before the first row whose facts do not all hold
    facts = [row.split()[-1] for row in lines[1:-1]]
    assert facts[:horizon] == ["ok"] * horizon
    assert horizon == int(levels) or facts[horizon] != "ok"
