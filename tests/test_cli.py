import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import engine
from gapembed.cli import main
from gapembed.experiments import CSV_HEADER
from gapembed.params import DEFAULT_EXPONENTS

DATA = Path(__file__).parent / "data"


def write_seq(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text + "\n", encoding="ascii")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- embed


def test_embed_negative(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "000000")
    y = write_seq(tmp_path, "y.txt", "1")
    code, out, _ = run_cli(capsys, "embed", "--x", x, "--y", y, "--m", "3")
    assert code == 1
    assert "not embeddable" in out


def test_embed_witness_json(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "10")
    y = write_seq(tmp_path, "y.txt", "1")
    code, out, _ = run_cli(
        capsys, "embed", "--x", x, "--y", y, "--m", "2", "--witness", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["embeddable"] is True
    assert doc["path"] == {"m": 2, "steps": [1]}
    assert doc["frontier"] == {"row": 1, "positions": [1]}
    assert doc["meta"]["version"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_embed_witness_runs_one_dp(tmp_path, capsys, monkeypatch, fmt):
    x = write_seq(tmp_path, "x.txt", "0110100111010")
    y = write_seq(tmp_path, "y.txt", "01101")
    calls = []
    dp = engine._frontier_masks
    monkeypatch.setattr(engine, "_frontier_masks", lambda *a, **k: calls.append(a) or dp(*a, **k))
    argv = ["embed", "--x", x, "--y", y, "--m", "2", "--format", fmt]
    _, plain, _ = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--witness")
    assert code == 0 and len(calls) == 2
    if fmt == "json":
        doc, base = json.loads(out), json.loads(plain)
        assert doc["frontier"] == base["frontier"] and doc["embeddable"] is True
        assert doc["path"] == {"m": 2, "steps": [1, 2, 3, 4, 5]}
    else:
        assert out == plain + "steps 1 2 3 4 5\n"


def test_embed_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"01x1\n")
    y = write_seq(tmp_path, "y.txt", "1")
    code, _, err = run_cli(capsys, "embed", "--x", str(p), "--y", y, "--m", "2")
    assert code == 2
    assert "offset 2" in err


def test_embed_L_out_of_range(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "10")
    y = write_seq(tmp_path, "y.txt", "1")
    code, _, err = run_cli(capsys, "embed", "--x", x, "--y", y, "--m", "2", "--L", "5")
    assert code == 2
    assert "L=5" in err


def test_embed_golden_corpus(tmp_path, capsys):
    golden = json.loads((DATA / "golden_embed.json").read_text())
    for i, inst in enumerate(golden["instances"]):
        x = write_seq(tmp_path, f"x{i}.txt", inst["x"])
        y = write_seq(tmp_path, f"y{i}.txt", inst["y"])
        code, out, _ = run_cli(
            capsys,
            "embed", "--x", x, "--y", y, "--m", str(inst["m"]),
            "--L", str(inst["L"]), "--witness", "--format", "json",
        )
        doc = json.loads(out)
        assert code == (0 if inst["embeddable"] else 1)
        assert doc["embeddable"] == inst["embeddable"]
        expected = {"m": inst["m"], "steps": inst["steps"]} if inst["steps"] else None
        assert doc["path"] == expected


# ------------------------------------------------------------- analyze


def test_analyze_alternating_zero_walls(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "01010101")
    code, out, _ = run_cli(capsys, "analyze", "--x", x, "--m", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "meta" in json.loads(lines[0])
    assert len(lines) == 1  # no wall records


def test_analyze_wall_schema(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "0101110101")
    code, out, _ = run_cli(capsys, "analyze", "--x", x, "--m", "3")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")[1:]]
    assert records, "expected at least one wall record"
    for rec in records:
        assert set(rec) == {"orientation", "left", "right", "rank", "kind"}
        assert rec["orientation"] == "v" and rec["kind"] == "base-run"
        assert rec["rank"] == 6


def test_analyze_holes_requires_y(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "0101110101")
    code, _, err = run_cli(capsys, "analyze", "--x", x, "--m", "3", "--holes")
    assert code == 2 and "--holes requires --y" in err


def test_analyze_holes_and_span(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "01010" + "111" + "0101010")
    y = write_seq(tmp_path, "y.txt", "0011010")
    code, out, _ = run_cli(
        capsys, "analyze", "--x", x, "--y", y, "--m", "3", "--holes", "--span",
        "--delta", "2",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")[1:]]
    kinds = {rec.get("kind") for rec in records}
    assert "hole" in kinds and "span" in kinds


# ------------------------------------------------------------- params


def test_params_default_pass(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "params", "--m", "4", "--levels", "3")
    assert code == 0
    lines = out.split("\n")
    assert lines[1] == "level,R,T,Δ,Γ,Φ,Ψ,w,qtri,qinv,sigx,sigy"
    assert lines[2].startswith("1,")
    report = json.loads(lines[-2] if lines[-1] == "" else lines[-1])
    assert all(entry["ok"] for entry in report)
    assert len(report) == 13


def test_params_bad_exponents_exit_one(tmp_path, capsys):
    expfile = tmp_path / "exp.json"
    expfile.write_text(
        json.dumps(
            {
                "delta": "0.15", "gamma": "0.19", "phi": "0.24",
                "tau": "1.75", "tau_prime": "2.5", "omega": "4.5", "chi": "0.015",
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "params", "--m", "4", "--levels", "2", "--exponents", str(expfile)
    )
    assert code == 1
    report = json.loads(out.strip().split("\n")[-1])
    bad = [e["constraint"] for e in report if not e["ok"]]
    assert bad == ["gamma-spacing"]


def test_params_files(tmp_path, capsys):
    out_csv = tmp_path / "p.csv"
    out_json = tmp_path / "c.json"
    code, _, _ = run_cli(
        capsys, "params", "--m", "4", "--levels", "2",
        "--out", str(out_csv), "--report", str(out_json),
    )
    assert code == 0
    assert out_csv.read_text().splitlines()[1].startswith("level,")
    assert json.loads(out_json.read_text())


_DEFAULT_EXPONENTS_JSON = {k: str(v) for k, v in asdict(DEFAULT_EXPONENTS).items()}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "",
        json.dumps([1, 2]),
        json.dumps({**_DEFAULT_EXPONENTS_JSON, "tau": "abc"}),
        json.dumps({**_DEFAULT_EXPONENTS_JSON, "omega": None}),
        json.dumps({**_DEFAULT_EXPONENTS_JSON, "chi": [1]}),
        json.dumps({**_DEFAULT_EXPONENTS_JSON, "phi": "1/0"}),
    ],
    ids=["malformed", "empty", "list", "word", "null", "array", "zero-denominator"],
)
def test_params_bad_exponents_file_exits_two(tmp_path, capsys, text):
    expfile = tmp_path / "bad.json"
    expfile.write_text(text)
    code, out, err = run_cli(
        capsys, "params", "--m", "4", "--levels", "2", "--exponents", str(expfile)
    )
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("m", [4, 10])
def test_params_deep_levels_print_inf(capsys, m):
    code, out, _ = run_cli(capsys, "params", "--m", str(m), "--levels", "1300")
    assert code == 0
    rows = [line.split(",") for line in out.split("\n")[2:1302]]
    assert [int(row[0]) for row in rows] == list(range(1, 1301))
    R = [float(row[1]) for row in rows]
    assert R == sorted(R) and R[-1] == math.inf and R[0] < math.inf


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--m", "4", "--levels", "0"),
        ("params", "--m", "4", "--levels", "-3"),
        ("simulate", "--trials", "5", "--jobs", "0"),
        ("simulate", "--trials", "5", "--jobs", "-1"),
    ],
)
def test_nonpositive_counts_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


# ------------------------------------------------------------- simulate


def test_simulate_deterministic_bytes(capsys):
    args = ("simulate", "--m-range", "1..2", "--L-range", "3..4",
            "--trials", "40", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 4


def test_simulate_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAPEMBED_SEED", "77")
    _, out_env, _ = run_cli(capsys, "simulate", "--m-range", "1", "--L-range", "2",
                            "--trials", "20")
    _, out_flag, _ = run_cli(capsys, "simulate", "--m-range", "1", "--L-range", "2",
                             "--trials", "20", "--seed", "77")
    assert out_env == out_flag
    monkeypatch.setenv("GAPEMBED_SEED", "notanint")
    code, _, err = run_cli(capsys, "simulate", "--m-range", "1", "--L-range", "2",
                           "--trials", "20")
    assert code == 2 and "GAPEMBED_SEED" in err


def test_simulate_checks(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--check", "walls", "--m-check", "4", "--l", "4",
        "--samples", "20000", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert {"rate", "z_counted", "z_nominal"} <= set(doc)
    code, out, _ = run_cli(
        capsys, "simulate", "--check", "holes", "--m-check", "3",
        "--samples", "300", "--seed", "1",
    )
    assert code == 0
    assert 0.3 <= json.loads(out)["rate"] <= 0.7


def test_simulate_check_walls_size_one(capsys):
    # m = l = 1: every sample is a wall, p_counted is 1 and has no spread.
    code, out, _ = run_cli(
        capsys, "simulate", "--check", "walls", "--m-check", "1", "--l", "1", "--samples", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == doc["p_counted"] == 1.0 and doc["z_counted"] == 0.0


def _golden_simulate_argv(case, jobs):
    argv = [
        "simulate", "--m-range", "1..6", "--L-range", f"{case['L']}..{case['L']}",
        "--trials", str(case["trials"]), "--seed", str(case["seed"]),
        "--format", case["format"], "--jobs", str(jobs),
    ]
    if case["x_length"] is not None:
        argv += ["--x-length", str(case["x_length"])]
    return argv


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_golden_corpus(capsys, jobs):
    # sha256 of `simulate` stdout, recorded with the per-trial big-int DP
    # before trials became bit lanes: seeds below 2^63, m 1..6, L 0/1/16/40,
    # x_length unset/0/7/24, trials on both sides of a 64-lane word and of
    # a 1024-trial chunk, CSV and JSON.
    golden = json.loads((DATA / "golden_simulate.json").read_text())
    for case in golden["cases"]:
        code, out, _ = run_cli(capsys, *_golden_simulate_argv(case, jobs))
        assert code == 0
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case
    cases = golden["cases"]
    assert {c["trials"] for c in cases} == {63, 64, 65, 1025}
    assert {c["format"] for c in cases} == {"csv", "json"}


# ------------------------------------------------------------- config, selftest


def test_config_file_and_flag_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("trials=30\nseed=9\nm-range=1..1\nL-range=2..2\n")
    _, out_conf, _ = run_cli(capsys, "simulate", "--config", str(conf))
    _, out_expl, _ = run_cli(capsys, "simulate", "--m-range", "1..1",
                             "--L-range", "2..2", "--trials", "30", "--seed", "9")
    assert out_conf == out_expl
    # explicit flag beats the file
    _, out_override, _ = run_cli(capsys, "simulate", "--config", str(conf),
                                 "--trials", "10")
    assert ",10," in out_override.strip().split("\n")[2]
    # an explicit flag equal to its default still beats the file
    _, out_default, _ = run_cli(capsys, "simulate", "--config", str(conf),
                                "--trials", "1000")
    assert ",1000," in out_default.strip().split("\n")[2]


def test_config_supplies_required_flags(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "0110100110")
    y = write_seq(tmp_path, "y.txt", "101")
    conf = tmp_path / "embed.conf"
    conf.write_text(f"x={x}\ny={y}\nm=2\nwitness=true\nformat=json\n")
    code_conf, out_conf, _ = run_cli(capsys, "embed", "--config", str(conf))
    code_expl, out_expl, _ = run_cli(capsys, "embed", "--x", x, "--y", y, "--m", "2",
                                     "--witness", "--format", "json")
    assert code_conf == code_expl == 0
    assert out_conf == out_expl
    conf.write_text(f"x={x}\ny={y}\nm=2\nwitness=false\n")
    _, out_off, _ = run_cli(capsys, "embed", "--config", str(conf))
    assert out_off.split("\n")[1] == "embeddable" and "steps" not in out_off


@pytest.mark.parametrize("line", ["bogus=1", "config=other.conf", "witness=maybe", "m 2"])
def test_config_bad_line_exits_two(tmp_path, capsys, line):
    x = write_seq(tmp_path, "x.txt", "10")
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{line}\n")
    code, out, err = run_cli(capsys, "embed", "--config", str(conf),
                             "--x", x, "--y", x, "--m", "2")
    assert code == 2
    assert out == "" and err.startswith("error:") and "bad.conf:1" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 4


# ------------------------------------------------------------- golden analyze


def test_analyze_golden_corpus(tmp_path, capsys):
    # sha256 of `analyze --holes --span` stdout, recorded from the list-based
    # wall search before wall queries read the sequence text.
    golden = json.loads((DATA / "golden_analyze.json").read_text())
    ms = set()
    for i, case in enumerate(golden["cases"]):
        x = write_seq(tmp_path, f"x{i}.txt", case["x"])
        y = write_seq(tmp_path, f"y{i}.txt", case["y"])
        argv = ["analyze", "--x", x, "--y", y, "--m", str(case["m"]), "--holes", "--span"]
        if case["delta"] is not None:
            argv += ["--delta", case["delta"]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case
        ms.add(case["m"])
    assert ms == {1, 2, 3, 4}


# ------------------------------------------------------------- exit-code fuzz


def test_simulate_negative_x_length_exits_two(capsys):
    code, out, err = run_cli(capsys, "simulate", "--trials", "3", "--x-length", "-5")
    assert code == 2
    assert out == "" and err.startswith("error:") and "x_length" in err


_SMALL = ["-3", "-1", "0", "1", "2", "3", "4", "6", "", "x", "1.5", "1e3"]
_RANGE = ["1", "1..3", "2..2", "1..2", "0..2", "-1..1", "3..1", "a..b", ""]
_SEQ_BYTES = st.one_of(
    st.text("01", max_size=30).map(str.encode),
    st.text("01", max_size=30).map(lambda t: t.encode() + b"\n"),
    st.binary(max_size=8),
)
_EXPONENTS = st.sampled_from([
    json.dumps({k: str(v) for k, v in asdict(DEFAULT_EXPONENTS).items()}),
    "{", "[]", "{}", '{"delta": "x"}', "null",
])
# Value lists per flag of each subcommand: None marks a file, () a switch.
_FLAGS = {
    "embed": {"--x": None, "--y": None, "--m": _SMALL, "--L": ["-2", "0", "3", "12", "x"],
              "--witness": (), "--format": ["json", "text", "xml"], "--config": None},
    "analyze": {"--x": None, "--y": None, "--m": _SMALL, "--holes": (), "--span": (),
                "--delta": ["0", "2.5", "-1", "nan", "inf", "x"], "--config": None},
    "params": {"--m": ["-2", "0", "1", "4", "12", "x"], "--levels": _SMALL,
               "--exponents": None, "--config": None},
    "simulate": {"--m-range": _RANGE, "--L-range": _RANGE, "--seed": _SMALL,
                 "--x-length": ["-5", "-1", "0", "3", "20", "x"],
                 "--format": ["csv", "json", "tsv"], "--check": ["walls", "holes", "both"],
                 "--m-check": _SMALL, "--l": _SMALL, "--config": None},
}
_CONFIG_LINES = {
    "embed": ["m=2", "witness=true", "witness=maybe", "format=json"],
    "analyze": ["m=2", "holes=yes", "span=0", "delta=1"],
    "params": ["m=3", "levels=2"],
    "simulate": ["m-range=1..2", "L_range=2", "seed=4", "x-length=-2"],
}
_FILES = {"--x": "x.txt", "--y": "y.txt", "--exponents": "exp.json", "--config": "run.conf"}


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_main_exit_codes_are_contract(data):
    command = data.draw(st.sampled_from(["embed", "analyze", "params", "simulate", "simulate"]))
    flags = _FLAGS[command]
    chosen = data.draw(st.permutations([f for f in flags if data.draw(st.booleans())]))
    with tempfile.TemporaryDirectory() as d:
        argv = [command]
        for flag in chosen:
            values = flags[flag]
            if flag in _FILES:
                path = os.path.join(d, _FILES[flag])
                if data.draw(st.integers(0, 9)):  # else the file is missing
                    if flag == "--config":
                        extra = ["bogus=1", "noequals", "# note", ""]
                        lines = st.sampled_from(_CONFIG_LINES[command] + extra)
                        raw = "\n".join(data.draw(st.lists(lines, max_size=3))).encode()
                    elif flag == "--exponents":
                        raw = data.draw(_EXPONENTS).encode()
                    else:
                        raw = data.draw(_SEQ_BYTES)
                    with open(path, "wb") as fh:
                        fh.write(raw)
                argv.append(f"{flag}={path}")
            elif values == ():
                argv.append(flag)
            else:
                argv.append(f"{flag}={data.draw(st.sampled_from(values))}")
        # The counts that set the amount of work stay small, and --jobs stays
        # 1, so no process pool starts.
        if command == "simulate":
            argv += ["--jobs=1", f"--trials={data.draw(st.integers(-1, 12))}",
                     f"--samples={data.draw(st.integers(-1, 40))}"]
        if command == "params" and "--levels" not in chosen:
            argv.append(f"--levels={data.draw(st.integers(-1, 4))}")
        if data.draw(st.integers(0, 19)) == 0:
            argv.append("--bogus")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = 0 if exc.code is None else exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
