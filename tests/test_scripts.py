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


def test_run_sweep_takes_a_bare_integer_range():
    proc = run_script("run_sweep.py", "--m-range", "3", "--L-range", "16..48", "--trials", "50")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",")[:2] for line in proc.stdout.splitlines()[2:]]
    assert rows == [["3", "16"], ["3", "32"], ["3", "48"]]


@pytest.mark.parametrize(
    "script, argv",
    [
        ("run_sweep.py", ["--m-range", "3..x"]),
        ("run_sweep.py", ["--m-range", "2", "--L-range", "4", "--step", "0"]),
        ("param_table.py", ["--m", "0"]),
        ("param_table.py", ["--m", "1" + "0" * 200]),
    ],
    ids=["malformed-range", "zero-step", "m-zero", "m-huge"],
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
