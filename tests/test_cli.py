import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import Future
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapembed
from gapembed import cli, engine, experiments
from gapembed.cli import main
from gapembed.experiments import CSV_HEADER
from gapembed.params import DEFAULT_EXPONENTS
from gapembed.sequences import BinarySequence
from gapembed.walls import find_fitting_hole, find_walls

DATA = Path(__file__).parent / "data"


def write_seq(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text + "\n", encoding="ascii")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, limit_bytes=None):
    """`python -m gapembed.cli argv` in a new process, with the address space
    of that process alone capped at `limit_bytes` when given."""
    src = str(Path(gapembed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    cap = None
    if limit_bytes is not None:
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    return subprocess.run(
        [sys.executable, "-m", "gapembed.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap,
    )


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
    # One DP over the whole of X per run: a witness is not a decision plus
    # a trace.  The trace's band re-runs read shorter windows of X.
    assert code == 0 and sum(len(a[0]) == 13 for a in calls) == 2
    if fmt == "json":
        doc, base = json.loads(out), json.loads(plain)
        assert doc["frontier"] == base["frontier"] and doc["embeddable"] is True
        assert doc["path"] == {"m": 2, "steps": [1, 2, 3, 4, 5]}
    else:
        assert out == plain + "steps 1 2 3 4 5\n"


HUGE_M = "99999999999999999999"


@pytest.mark.parametrize("witness", [False, True])
def test_embed_smear_never_exceeds_len_x(tmp_path, capsys, monkeypatch, witness):
    # Gaps longer than X land past its end, so a row's smear stops at len(X);
    # the spy refuses a longer smear before it allocates.
    x = write_seq(tmp_path, "x.txt", "0110")
    y = write_seq(tmp_path, "y.txt", "0110")
    steps = []
    window_or = engine._window_or

    def spy(mask, step):
        steps.append(step)
        if step > 4:
            raise AssertionError(f"smear of {step} positions on a 4-symbol X")
        return window_or(mask, step)

    monkeypatch.setattr(engine, "_window_or", spy)
    argv = ["embed", "--x", x, "--y", y, "--m", HUGE_M] + ["--witness"] * witness
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "embeddable\n" in out
    assert steps and max(steps) <= 4


def test_embed_huge_m_equals_m_len_x(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "0110100111010")
    for y_text in ("01101", "1111", "000000000000"):
        y = write_seq(tmp_path, "y.txt", y_text)
        for extra in ([], ["--witness"]):
            argv = ["embed", "--x", x, "--y", y, *extra, "--m"]
            want = run_cli(capsys, *argv, "13")
            assert run_cli(capsys, *argv, HUGE_M) == want, (y_text, extra)


def test_embed_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"01x1\n")
    y = write_seq(tmp_path, "y.txt", "1")
    code, _, err = run_cli(capsys, "embed", "--x", str(p), "--y", y, "--m", "2")
    assert code == 2
    assert "offset 2" in err


@pytest.mark.parametrize("y_text, L", [("1", "0"), ("", None)], ids=["L-zero", "empty-y"])
def test_embed_empty_witness_is_a_path(tmp_path, capsys, y_text, L):
    # The empty embedding is a witness with no steps, not a missing one.
    x = write_seq(tmp_path, "x.txt", "10")
    y = write_seq(tmp_path, "y.txt", y_text)
    argv = ["embed", "--x", x, "--y", y, "--m", "2", "--witness", "--format", "json"]
    if L is not None:
        argv += ["--L", L]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["embeddable"] is True and doc["L"] == 0
    assert doc["path"] == {"m": 2, "steps": []}


@pytest.mark.parametrize("y_text, L", [("1", "0"), ("", None)], ids=["L-zero", "empty-y"])
def test_embed_empty_text_witness_has_no_trailing_space(tmp_path, capsys, y_text, L):
    x = write_seq(tmp_path, "x.txt", "10")
    y = write_seq(tmp_path, "y.txt", y_text)
    argv = ["embed", "--x", x, "--y", y, "--m", "2", "--witness"]
    if L is not None:
        argv += ["--L", L]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.split("\n")[1:] == ["embeddable", "steps", ""]


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


@pytest.mark.parametrize("delta, via_config", [("nan", False), ("-1", False), ("nan", True)],
                         ids=["nan", "negative", "config-nan"])
def test_analyze_rejects_bad_delta(tmp_path, capsys, delta, via_config):
    # NaN joins every wall into one cluster and a negative threshold splits
    # overlapping walls; both are refused, while 0 and inf stay valid.
    x = write_seq(tmp_path, "x.txt", "1110101010000101")
    argv = ["analyze", "--x", x, "--m", "3", "--span"]
    if via_config:
        conf = tmp_path / "analyze.conf"
        conf.write_text(f"delta={delta}\n", encoding="utf-8")
        argv += ["--config", str(conf)]
    else:
        argv += ["--delta", delta]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--delta" in captured.err and "Traceback" not in captured.err
    for ok in ("0", "inf"):
        assert run_cli(capsys, "analyze", "--x", x, "--m", "3", "--span", "--delta", ok)[0] == 0


_SHORT_Y_WALLS = (
    '{"meta": {"version": "0.1.0", "rng_id": "numpy-philox4x64-10"}}\n'
    '{"orientation": "v", "left": 0, "right": 2, "rank": 4, "kind": "base-run"}\n'
    '{"orientation": "v", "left": 2, "right": 4, "rank": 4, "kind": "base-run"}\n'
    '{"orientation": "v", "left": 2, "right": 5, "rank": 4, "kind": "base-run"}\n'
    '{"orientation": "v", "left": 3, "right": 5, "rank": 4, "kind": "base-run"}\n'
    '{"orientation": "v", "left": 5, "right": 7, "rank": 4, "kind": "base-run"}\n'
)


@pytest.mark.parametrize(
    "y_text, holes",
    [
        ("", ""),
        (
            "1",
            '{"kind": "hole", "orientation": "h", "left": 0, "right": 1, "through_left": 2, "through_right": 4}\n'
            '{"kind": "hole", "orientation": "h", "left": 0, "right": 1, "through_left": 2, "through_right": 5}\n'
            '{"kind": "hole", "orientation": "h", "left": 0, "right": 1, "through_left": 3, "through_right": 5}\n',
        ),
    ],
    ids=["empty-y", "one-symbol-y"],
)
def test_analyze_holes_short_y(tmp_path, capsys, y_text, holes):
    # The golden corpus has no Y shorter than 6 symbols; these bytes pin the
    # hole starts 0..len(Y)-1 at its edge.  No wall of X (]0,2] is zeros, the
    # rest ones) has a hole through an empty Y.
    x = write_seq(tmp_path, "x.txt", "0011100")
    y = write_seq(tmp_path, "y.txt", y_text)
    code, out, _ = run_cli(capsys, "analyze", "--x", x, "--y", y, "--m", "2", "--holes")
    assert code == 0
    assert out == _SHORT_Y_WALLS + holes


@pytest.mark.parametrize("y_bytes", [None, b"0120\n"], ids=["missing-y", "bad-byte-y"])
@pytest.mark.parametrize("extra", [(), ("--holes", "--span")], ids=["walls", "holes-span"])
def test_analyze_bad_y_leaves_stdout_empty(tmp_path, capsys, y_bytes, extra):
    # X's walls are written as they are made, so Y must be read before the
    # first line: an input error exits 2 with nothing on stdout.
    x = write_seq(tmp_path, "x.txt", "0011100")
    y = tmp_path / "y.txt"
    if y_bytes is not None:
        y.write_bytes(y_bytes)
    code, out, err = run_cli(capsys, "analyze", "--x", x, "--y", str(y), "--m", "2", *extra)
    assert code == 2 and err.startswith("error: ")
    assert out == ""


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 6),
    x_runs=st.lists(st.integers(1, 14), max_size=20),
    y_runs=st.lists(st.integers(1, 14), max_size=12),
    first=st.sampled_from("01"),
)
def test_analyze_lines_match_json_dumps(m, x_runs, y_runs, first):
    # The wall and hole lines are written as f-strings; they must be the
    # bytes `json.dumps` gives for the records `find_walls` and the hole
    # search describe, in the same order.
    def run_text(runs, first):
        return "".join(str((int(first) + i) % 2) * n for i, n in enumerate(runs))

    X = BinarySequence.from_string(run_text(x_runs, first))
    Y = BinarySequence.from_string(run_text(y_runs, first))
    x_walls = find_walls(X, m, "v")
    lines = [json.dumps({"meta": cli._meta()})]
    lines += [json.dumps(w.to_json()) for w in x_walls + find_walls(Y, m, "h")]
    for w in x_walls:
        hole = find_fitting_hole(w, range(len(Y)), X, Y)
        if hole is not None:
            lines.append(json.dumps({
                "kind": "hole", "orientation": "h", "left": hole.left, "right": hole.right,
                "through_left": w.body.left, "through_right": w.body.right,
            }))
    with tempfile.TemporaryDirectory() as d:
        x, y = os.path.join(d, "x.txt"), os.path.join(d, "y.txt")
        for path, seq in ((x, X), (y, Y)):
            with open(path, "w", encoding="ascii") as fh:
                fh.write(seq.text + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--x", x, "--y", y, "--m", str(m), "--holes"])
    assert code == 0
    assert out.getvalue() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("extra, calls", [((), 0), (("--holes", "--span"), 1)],
                         ids=["walls", "holes-span"])
def test_analyze_builds_wall_objects_only_for_holes_and_spans(tmp_path, capsys, monkeypatch,
                                                               extra, calls):
    # Wall lines come from the run scan; `find_walls` runs once, on X, and
    # only when holes or spans read the wall list.
    x = write_seq(tmp_path, "x.txt", "0111000110100001111001011100")
    y = write_seq(tmp_path, "y.txt", "0010111010")
    argv = ["analyze", "--x", x, "--y", y, "--m", "3", *extra]
    want = run_cli(capsys, *argv)
    seen = []

    def counting(seq, m, orientation="v"):
        if not extra:
            raise AssertionError("find_walls called for plain wall lines")
        seen.append(orientation)
        return find_walls(seq, m, orientation)

    monkeypatch.setattr(cli, "find_walls", counting)
    assert run_cli(capsys, *argv) == want
    assert seen == ["v"] * calls


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


def test_params_report_dash_is_stdout(tmp_path, capsys, monkeypatch):
    # `--report -` means stdout, like `--out -`, not a file named "-".
    monkeypatch.chdir(tmp_path)
    argv = ["params", "--m", "4", "--levels", "2"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--report", "-")
    assert code == 0 and out == plain
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("field, code", [("delta", 1), ("omega", 0)])
def test_params_huge_exponent_reports_without_traceback(tmp_path, field, code):
    # 1e400 is past the float range: the report sides saturate at +-inf,
    # written as the strings "inf" and "-inf" so the report is strict JSON.
    expfile = tmp_path / "e.json"
    expfile.write_text(json.dumps({**_DEFAULT_EXPONENTS_JSON, field: "1e400"}))
    proc = run_fresh("params", "--m", "4", "--levels", "2", "--exponents", str(expfile))
    assert proc.returncode == code
    assert proc.stderr == ""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(proc.stdout.rstrip("\n").split("\n")[-1], parse_constant=reject)
    sides = {e["constraint"]: (e["lhs"], e["rhs"]) for e in report}
    if field == "delta":
        assert sides["exponent-order"][0][0] == "inf"
        assert sides["chi-delta-cap"][1] == "-inf"
    else:
        assert sides["omega-trap-floor"][1] == "inf"
        assert proc.stdout.split("\n")[3].startswith("2,")


def test_params_golden_corpus(tmp_path, capsys):
    # sha256 of `params` stdout, recorded before the unused LevelParams and
    # base_params knobs were cut: m 2/4/10/40, --levels 1/3/12/1300; plus
    # the --out and --report file bytes of one case.
    golden = json.loads((DATA / "golden_params.json").read_text(encoding="utf-8"))
    for case in golden["cases"]:
        code, out, _ = run_cli(
            capsys, "params", "--m", str(case["m"]), "--levels", str(case["levels"])
        )
        assert code == case["exit"]
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case
    assert {(c["m"], c["levels"]) for c in golden["cases"]} == {
        (m, k) for m in (2, 4, 10, 40) for k in (1, 3, 12, 1300)
    }
    files = golden["files"]
    out_csv, out_json = tmp_path / "p.csv", tmp_path / "c.json"
    code, out, _ = run_cli(
        capsys, "params", "--m", str(files["m"]), "--levels", str(files["levels"]),
        "--out", str(out_csv), "--report", str(out_json),
    )
    assert code == files["exit"] and out == files["stdout"]
    assert out_csv.read_text(encoding="utf-8") == files["out"]
    assert out_json.read_text(encoding="utf-8") == files["report"]


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--m", "4", "--levels", "0"),
        ("params", "--m", "4", "--levels", "-3"),
        ("simulate", "--trials", "5", "--jobs", "0"),
        ("simulate", "--trials", "5", "--jobs", "-1"),
        ("analyze", "--x", "x.txt", "--m", "0"),
        ("analyze", "--x", "x.txt", "--m", "-1"),
    ],
)
def test_nonpositive_counts_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be >= 1" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "check", [["--check", "walls", "--l", "5"], ["--check", "holes"], []]
)
def test_simulate_out_takes_every_report(tmp_path, capsys, check):
    argv = ["simulate", "--m-check", "3", "--samples", "300", "--seed", "4",
            "--m-range", "1..2", "--trials", "30", *check]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and want
    out_file = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_bytes() == want.encode()


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


def test_simulate_pool_is_capped_at_cpu_count(capsys, monkeypatch):
    # A fork pool starts all of its workers at the first submit, so --jobs
    # must not set the pool size unchecked.  The trial split still uses
    # --jobs, and no output byte depends on it.  The stand-in pool runs each
    # piece at submit and starts no process.
    workers = []

    class InlineExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlineExecutor)
    argv = ["simulate", "--m-range", "1..2", "--L-range", "4..4", "--trials", "5"]
    _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
    code, out, _ = run_cli(capsys, *argv, "--jobs", "100000")
    assert code == 0 and out == serial
    assert len(workers) == 1 and 1 <= workers[0] <= (os.cpu_count() or 1)


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


def test_config_not_utf8_exits_two(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "10")
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"m=\xff\xfe\n")
    code, out, err = run_cli(capsys, "analyze", "--x", x, "--m", "2", "--config", str(conf))
    assert code == 2
    assert out == "" and err.startswith("error:") and "bad.conf" in err
    assert err.count("\n") == 1


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


def test_check_holes_golden_corpus(capsys):
    # sha256 of `simulate --check holes` stdout, recorded while each sample
    # still ran the rect_reachable hole search: m 2..5, two seeds, 1 and 2000
    # samples.
    golden = json.loads((DATA / "golden_check_holes.json").read_text())
    for case in golden["cases"]:
        code, out, _ = run_cli(
            capsys, "simulate", "--check", "holes", "--m-check", str(case["m"]),
            "--samples", str(case["samples"]), "--seed", str(case["seed"]),
        )
        assert code == 0
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case
    assert {c["m"] for c in golden["cases"]} == {2, 3, 4, 5}


def test_check_walls_golden_corpus(capsys):
    # sha256 of `simulate --check walls` stdout, recorded before the report
    # derived its JSON from its fields: l = 1, an l <= 32 and an l > 32 (numpy
    # draws these through different paths), two seeds, 1 and 5000 samples.
    golden = json.loads((DATA / "golden_check_walls.json").read_text())
    for case in golden["cases"]:
        code, out, _ = run_cli(
            capsys, "simulate", "--check", "walls", "--m-check", str(case["m"]),
            "--l", str(case["l"]), "--samples", str(case["samples"]),
            "--seed", str(case["seed"]),
        )
        assert code == 0
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case
    assert {c["l"] for c in golden["cases"]} == {1, 5, 40}


def test_hole_paths_run_no_dp(tmp_path, capsys, monkeypatch):
    # Level-1 holes are read off Y's text: no reachability DP may run.
    def no_dp(*args, **kwargs):
        raise AssertionError("reachability DP on a hole path")

    monkeypatch.setattr(engine, "_frontier_masks", no_dp)
    x = write_seq(tmp_path, "x.txt", "0111000110100001111001011100")
    y = write_seq(tmp_path, "y.txt", "0010111010")
    code, out, _ = run_cli(capsys, "analyze", "--x", x, "--y", y, "--m", "3", "--holes", "--span")
    assert code == 0
    assert '"kind": "hole"' in out
    code, out, _ = run_cli(capsys, "simulate", "--check", "holes", "--samples", "500")
    assert code == 0
    assert 0 < json.loads(out)["occurrences"] < 500


def test_analyze_holes_search_once_per_symbol(tmp_path, capsys, monkeypatch):
    # A wall's first hole depends only on its symbol, so `analyze --holes`
    # searches at most once per symbol, not once per wall.  Y's first 1 sits
    # 2000 symbols in, where a search per wall would rescan every time.  The
    # sha256 is that of the stdout of one search per wall, recorded before.
    rng = random.Random(19)
    x = write_seq(tmp_path, "x.txt", format(rng.getrandbits(3000), "03000b"))
    y = write_seq(tmp_path, "y.txt", "0" * 2000 + "1" + format(rng.getrandbits(500), "0500b"))
    calls = []

    def counting(*args):
        calls.append(args[0])
        return find_fitting_hole(*args)

    monkeypatch.setattr(cli, "find_fitting_hole", counting)
    code, out, _ = run_cli(capsys, "analyze", "--x", x, "--y", y, "--m", "3", "--holes")
    assert code == 0
    assert len(calls) <= 2
    assert out.count('"kind": "hole"') == 1277
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "55c7612c035a408d0236e232fc0153adcbb1244e4a6e7e0fdacee630412e0276"
    )


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 6),
    first=st.sampled_from("01"),
    runs=st.lists(st.integers(1, 14), max_size=30),
    delta=st.sampled_from([None, "0", "1", "inf"]),
)
def test_analyze_span_records_only_spans(m, first, runs, delta):
    # Every wall cluster starts and ends with a size-m wall, so each one has
    # a spanning sequence: `analyze --span` prints only walls and spans.
    text = "".join(str((int(first) + i) % 2) * n for i, n in enumerate(runs))
    with tempfile.TemporaryDirectory() as d:
        x = os.path.join(d, "x.txt")
        with open(x, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        argv = ["analyze", "--x", x, "--m", str(m), "--span"]
        if delta is not None:
            argv += ["--delta", delta]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
    assert {r["kind"] for r in records} <= {"base-run", "span"}
    spans = [r for r in records if r["kind"] == "span"]
    assert bool(spans) == any(r["kind"] == "base-run" for r in records)


# ------------------------------------------------------------- numpy, numpy.random

# Importing numpy costs about 0.1 s and 14 MB of resident memory, and
# numpy.random about 6 MB more.  Only simulate and selftest need numpy, and
# only commands that draw a single stream through a numpy Generator need
# numpy.random: no other command may pay for them.
_PROBE = (
    "import sys\n"
    "from gapembed.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, 'numpy.random' in sys.modules, 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "argv, loads_random, loads_numpy",
    [
        (["embed", "--x", "{x}", "--y", "{y}", "--m", "4"], False, False),
        (["embed", "--x", "{x}", "--y", "{y}", "--m", "4", "--witness"], False, False),
        (["analyze", "--x", "{x}", "--y", "{y}", "--m", "3", "--holes", "--span"], False, False),
        (["params", "--m", "4", "--levels", "3"], False, False),
        (["simulate", "--m-range", "1..3", "--L-range", "8..8", "--trials", "100"], False, True),
        # The wall check draws raw words from numpy.random's Philox: the probe
        # sees it.
        (["simulate", "--check", "walls", "--samples", "10"], True, True),
    ],
    ids=["embed-text", "embed", "analyze", "params", "simulate", "check-walls"],
)
def test_numpy_random_stays_unloaded(tmp_path, argv, loads_random, loads_numpy):
    files = {
        "x": write_seq(tmp_path, "x.txt", "0111000110100001111001011100"),
        "y": write_seq(tmp_path, "y.txt", "0010111010"),
    }
    src = str(Path(gapembed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *(a.format(**files) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_random} {loads_numpy}"


# ------------------------------------------------------------- exit-code fuzz


def test_simulate_negative_x_length_exits_two(capsys):
    code, out, err = run_cli(capsys, "simulate", "--trials", "3", "--x-length", "-5")
    assert code == 2
    assert out == "" and err.startswith("error:") and "x_length" in err


@pytest.mark.parametrize(
    "argv",
    [
        # Sizes no array or string can index: refused before anything is drawn.
        ["simulate", "--m-range", "99999999999999999999"],
        ["simulate", "--L-range", "99999999999999999999", "--m-range", "1"],
        ["simulate", "--m-range", "1..99999999999999999999"],
        ["simulate", "--check", "holes", "--m-check", "99999999999999999999"],
        ["simulate", "--check", "holes", "--samples", "99999999999999999999"],
        # Sizes past the memory limit: MemoryError becomes one error line.
        ["simulate", "--m-range", "100000000000"],
        ["simulate", "--check", "holes", "--m-check", "10000000000"],
    ],
    ids=["m-range", "L-range", "m-range-span", "m-check", "samples", "m-range-mem",
         "m-check-mem"],
)
def test_huge_simulate_sizes_exit_two(argv):
    proc = run_fresh(*argv, limit_bytes=1536 << 20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_main_builds_one_parser(tmp_path, capsys):
    x = write_seq(tmp_path, "x.txt", "0111000110100001111001011100")
    y = write_seq(tmp_path, "y.txt", "0010111010")
    embed_conf = tmp_path / "embed.conf"
    embed_conf.write_text(f"x={x}\ny={y}\nm=4\nwitness=true\n", encoding="utf-8")
    sim_conf = tmp_path / "simulate.conf"
    sim_conf.write_text("m-range=1..3\nL_range=6\ntrials=40\nseed=5\n", encoding="utf-8")
    runs = [
        ["embed", "--config", str(embed_conf)],
        ["simulate", "--config", str(sim_conf), "--format", "json"],
        ["embed", "--config", str(embed_conf), "--m", "1"],
    ]
    cli._parser.cache_clear()
    in_process = [run_cli(capsys, *argv)[:2] for argv in runs]
    assert cli._parser.cache_info().misses == 1
    fresh = [run_fresh(*argv) for argv in runs]
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [code for code, _ in in_process] == [0, 0, 1]


_SMALL = ["-3", "-1", "0", "1", "2", "3", "4", "6", "", "x", "1.5", "1e3"]
_GAP = _SMALL + [HUGE_M]  # gap bounds far past len(X) cost no more than len(X)
_RANGE = ["1", "1..3", "2..2", "1..2", "0..2", "-1..1", "3..1", "a..b", ""]
_SEQ_BYTES = st.one_of(
    st.text("01", max_size=30).map(str.encode),
    st.text("01", max_size=30).map(lambda t: t.encode() + b"\n"),
    st.binary(max_size=8),
)
_EXPONENTS_TEXT = json.dumps({k: str(v) for k, v in asdict(DEFAULT_EXPONENTS).items()})
_EXPONENTS = st.sampled_from([_EXPONENTS_TEXT, "{", "[]", "{}", '{"delta": "x"}', "null"])
# Value lists per flag of each subcommand: None marks a file, () a switch.
_FLAGS = {
    "embed": {"--x": None, "--y": None, "--m": _GAP, "--L": ["-2", "0", "3", "12", "x"],
              "--witness": (), "--format": ["json", "text", "xml"], "--config": None},
    "analyze": {"--x": None, "--y": None, "--m": _GAP, "--holes": (), "--span": (),
                "--delta": ["0", "2.5", "-1", "nan", "inf", "x"], "--config": None},
    "params": {"--m": ["-2", "0", "1", "4", "12", "x"], "--levels": _SMALL,
               "--exponents": None, "--config": None},
    "simulate": {"--m-range": _RANGE, "--L-range": _RANGE, "--seed": _SMALL,
                 "--x-length": ["-5", "-1", "0", "3", "20", "x"],
                 "--format": ["csv", "json", "tsv"], "--check": ["walls", "holes", "both"],
                 "--m-check": _SMALL, "--l": _SMALL, "--config": None},
}
# Config lines each command accepts, and lines every command rejects.
_CONFIG_LINES = {
    "embed": ["m=2", "witness=true", "format=json"],
    "analyze": ["m=2", "holes=yes", "span=0", "delta=1"],
    "params": ["m=3", "levels=2"],
    "simulate": ["m-range=1..2", "L_range=2", "seed=4"],
}
_BAD_CONFIG_LINES = ["bogus=1", "noequals", "witness=maybe", "x-length=-2"]
_FILES = {"--x": "x.txt", "--y": "y.txt", "--exponents": "exp.json", "--config": "run.conf"}
# The flags that let each command reach its work, with values it accepts:
# the files it reads (None) and the gap bound.
_READS = {
    "embed": {"--x": None, "--y": None, "--m": ["1", "2", "4", HUGE_M]},
    "analyze": {"--x": None, "--y": None, "--m": ["1", "2", "4", HUGE_M]},
    "params": {"--m": ["2", "4", "12"], "--exponents": None},
    "simulate": {"--config": None},
}
# Contents that each file flag must reject, besides no file and a directory.
_BAD_FILES = {
    "--x": [b"01x", b"0\n1", b"\xff"],
    "--y": [b"01x", b"0\n1", b"\xff"],
    "--exponents": [b"{", b"[]", b'{"delta": "x"}', b"\xff"],
    "--config": [b"bogus=1", b"noequals", b"m=\xff"],
}


def _file_contents(data, flag, command, wanted):
    """Bytes of the file behind `flag`, None for a missing file, or "dir".

    `wanted` is "good" for a file the command reads without complaint, "bad"
    for one it must reject, or None for either, a missing file one time in
    ten."""
    if wanted == "bad":
        return data.draw(st.sampled_from([None, "dir", *_BAD_FILES[flag]]))
    if wanted is None and not data.draw(st.integers(0, 9)):
        return None
    if flag == "--config":
        pool = _CONFIG_LINES[command]
        if wanted is None:
            pool = pool + _BAD_CONFIG_LINES + ["# note", ""]
        return "\n".join(data.draw(st.lists(st.sampled_from(pool), max_size=3))).encode()
    if flag == "--exponents":
        return (data.draw(_EXPONENTS) if wanted is None else _EXPONENTS_TEXT).encode()
    return data.draw(_SEQ_BYTES if wanted is None else st.text("01", max_size=30).map(str.encode))


def _strict_json(line):
    """`json.loads`, failing on the non-standard NaN and Infinity tokens."""
    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name} in {line!r}")

    return json.loads(line, parse_constant=reject)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_main_exit_codes_are_contract(data):
    command = data.draw(st.sampled_from(["embed", "analyze", "params", "simulate", "simulate"]))
    flags = _FLAGS[command]
    chosen = data.draw(st.permutations([f for f in flags if data.draw(st.booleans())]))
    # Half the draws give the command every file it reads and a valid gap
    # bound, with every file valid but one, so output written before the bad
    # file is read shows on stdout.
    bad = None
    if data.draw(st.booleans()):
        flags = {**flags, **_READS[command]}
        chosen = [*(f for f in _READS[command] if f not in chosen), *chosen]
        bad = data.draw(st.sampled_from([f for f in chosen if f in _FILES]))
    with tempfile.TemporaryDirectory() as d:
        argv = [command]
        for flag in chosen:
            values = flags[flag]
            if flag in _FILES:
                path = os.path.join(d, _FILES[flag])
                wanted = None if bad is None else "bad" if flag == bad else "good"
                raw = _file_contents(data, flag, command, wanted)
                if raw == "dir":
                    os.mkdir(path)
                elif raw is not None:
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
        if code == 2:
            assert out.getvalue() == "", (argv, err.getvalue())
        for line in out.getvalue().splitlines():
            if line.startswith("{"):
                _strict_json(line)
