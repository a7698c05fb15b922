"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench``.  The
reference checks are compared with brute force on small inputs, and
negative controls show that a corrupted output makes the run report
failures.
"""

from __future__ import annotations

import io
import itertools
import json
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Workload, long_embed, structure_scan, sweep  # noqa: E402

import gapembed.cli  # noqa: E402
from gapembed.experiments import TrialPlan, estimate_embed_prob  # noqa: E402
from gapembed.sequences import BinarySequence  # noqa: E402
from gapembed.engine import extract_embedding  # noqa: E402
from gapembed.walls import find_walls  # noqa: E402


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def brute_rows(x, y, m, L):
    """Reachable sets of rows 0..L by depth-first search over gap choices."""
    rows = [set() for _ in range(L + 1)]

    def visit(pos, row):
        if pos in rows[row]:
            return
        rows[row].add(pos)
        if row < L:
            for d in range(1, m + 1):
                if pos + d <= len(x) and x[pos + d - 1] == y[row]:
                    visit(pos + d, row + 1)

    visit(0, 0)
    return rows


def seq(bits):
    return BinarySequence.from_string("".join(map(str, bits)))


def runs_sequence(rng, n):
    """0/1 array built from runs of length 1..7, so walls are common."""
    out, sym = [], int(rng.integers(0, 2))
    while len(out) < n:
        out += [sym] * int(rng.integers(1, 8))
        sym ^= 1
    return np.array(out[:n], dtype=np.uint8)


# ---------------------------------------------------------------- references


def test_trial_bits_match_generator_bytes():
    seed, t, m, L = 12345, 7, 3, 16
    nbits = m * L + L
    raw = np.random.Generator(np.random.Philox(key=[seed, 0], counter=[0, t, m, L])).bytes(
        (nbits + 7) // 8
    )
    want = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:nbits]
    assert np.array_equal(checks.trial_bits(seed, t, m, L, nbits), want)


def test_embeddable_batch_matches_brute_force():
    rng = np.random.default_rng(0)
    for m, L in [(1, 3), (2, 5), (3, 6)]:
        n = m * L
        x = rng.integers(0, 2, (60, n), dtype=np.uint8)
        y = rng.integers(0, 2, (60, L), dtype=np.uint8)
        got = checks.embeddable_batch(x, y, m)
        want = [bool(brute_rows(x[t], y[t], m, L)[L]) for t in range(60)]
        assert got.tolist() == want


def test_sweep_successes_match_brute_force_and_program():
    seed, m, L, trials = 99, 2, 6, 80
    want = 0
    for t in range(trials):
        bits = checks.trial_bits(seed, t, m, L, m * L + L)
        want += bool(brute_rows(bits[: m * L], bits[m * L :], m, L)[L])
    assert checks.sweep_successes(seed, m, L, trials) == want
    assert estimate_embed_prob(TrialPlan(seed, trials, m, L)).successes == want


def test_final_frontier_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        n, L = int(rng.integers(1, 16)), int(rng.integers(0, 7))
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, L, dtype=np.uint8)
        want = sorted(brute_rows(x, y, m, L)[L])
        assert checks.final_frontier(x, y, m, L).tolist() == want


def test_wall_bodies_match_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = runs_sequence(rng, int(rng.integers(0, 40)))
        m = int(rng.integers(1, 5))
        want = sorted(
            ((i, i + l) for i in range(len(x)) for l in range(m, 2 * m)
             if i + l <= len(x) and len(set(x[i : i + l].tolist())) == 1),
            key=lambda b: (b[0], b[1] - b[0]),
        )
        assert checks.wall_bodies(x, m) == want


def test_witness_trace_matches_brute_force_and_program():
    rng = np.random.default_rng(6)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n, L = int(rng.integers(1, 16)), int(rng.integers(0, 7))
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, L, dtype=np.uint8)
        rows = brute_rows(x, y, m, L)
        want = [] if L == 0 else None
        if L and rows[L]:
            want = [min(rows[L])]
            for j in range(L - 1, 0, -1):
                want.insert(0, min(p for p in rows[j] if 1 <= want[0] - p <= m))
        # every=2 makes the trace cross several checkpoint blocks
        assert checks.witness_trace(x, y, m, L, every=2) == want
        path = extract_embedding(seq(x), seq(y), m)
        assert (None if path is None else list(path.steps)) == want


def test_expected_holes_match_unpruned_search():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        x = runs_sequence(rng, int(rng.integers(1, 40)))
        y = rng.integers(0, 2, int(rng.integers(0, 12)), dtype=np.uint8)
        want = []
        for l, r in checks.wall_bodies(x, m):
            hole = next(
                ((a, a + s) for a in range(len(y)) for s in range(1, (r - l) * 2 * m + 1)
                 if a + s <= len(y)
                 and checks.rect_crossable(x, y, (l, a), (r, a + s), 3 * m, l, r)),
                None,
            )
            if hole:
                want.append({"kind": "hole", "orientation": "h", "left": hole[0],
                             "right": hole[1], "through_left": l, "through_right": r})
        assert checks.expected_holes(x, y, m) == want


def test_expected_spans_match_program():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        x = runs_sequence(rng, int(rng.integers(0, 120)))
        delta = 2.0 ** (3 * m / 20)
        got = list(gapembed.cli._span_records(seq(x), find_walls(seq(x), m, "v"), m, delta))
        assert checks.expected_spans(x, m) == got


def test_rect_crossable_matches_path_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.integers(0, 2, 12, dtype=np.uint8)
        y = rng.integers(0, 2, 6, dtype=np.uint8)
        u0, u1 = int(rng.integers(0, 6)), int(rng.integers(0, 3))
        v0, v1 = int(rng.integers(u0 + 1, 13)), int(rng.integers(u1 + 1, 7))
        step = int(rng.integers(1, 5))
        want = False
        for gaps in itertools.product(range(1, step + 1), repeat=v1 - u1):
            xs = np.cumsum(gaps) + u0
            if xs[-1] == v0 and all(x[p - 1] == y[u1 + k] for k, p in enumerate(xs)):
                want = True
                break
        assert checks.rect_crossable(x, y, (u0, u1), (v0, v1), step, u0, v0) == want


def test_check_walls_accepts_program_walls_and_rejects_fakes():
    rng = np.random.default_rng(4)
    x = runs_sequence(rng, 200)
    records = [w.to_json() for w in find_walls(seq(x), 3, "v")]
    assert records and checks.check_walls(records, x, 3, "v") == []
    assert checks.check_walls(records[:-1], x, 3, "v")
    assert checks.check_walls(records + records[-1:], x, 3, "v")
    bad = dict(records[0], right=records[0]["left"] + 5, left=records[0]["left"] - 1)
    assert checks.check_walls([bad] + records[1:], x, 3, "v")


# ---------------------------------------------------------------- whole runs


SMALL = {
    "mc": Workload("mc_small", sweep(range(1, 3), 6, 40), ("rng",), 0.0),
    "embed": Workload("embed_small", long_embed(400, 40, 3), ("engine",), 0.0),
    "structure": Workload(
        "structure_small", structure_scan(600, 3, 300, 60, 2), ("walls",), 0.0
    ),
}


def run_small(key, trace, capsys, monkeypatch, tmp_path, seconds=0.0):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    assert run.run_workload(SMALL[key], seed=5, seconds=seconds, trace=trace) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


@pytest.mark.parametrize("key", sorted(SMALL))
def test_small_workloads_pass(key, capsys, monkeypatch, tmp_path):
    result, _ = run_small(key, False, capsys, monkeypatch, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wall_rel_is_round_time_over_reference_time(capsys, monkeypatch, tmp_path):
    result, _ = run_small("mc", False, capsys, monkeypatch, tmp_path, seconds=0.3)
    record = json.loads((tmp_path / "results" / "mc_small-seed5-trace0.json").read_text())
    rounds, ref_s = record["samples"]["untraced_round_s"], record["samples"]["reference_s"]
    assert len(ref_s) >= len(rounds) + 1  # before every round and after the last
    expected = statistics.median(rounds) / statistics.median(ref_s)
    assert result["metrics"]["wall_rel"]["value"] == pytest.approx(expected)


def test_traced_run_reports_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    result, lines = run_small("structure", True, capsys, monkeypatch, tmp_path)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.per_layer_units()
    assert abs(result["metrics"]["trace.self_sum_share"]["value"] - 1) < 0.05
    assert (tmp_path / "traces" / "structure_small-seed5.jsonl").is_file()


def corrupt(mutate):
    """A cli.main whose stdout is passed through `mutate(argv, text)`."""
    original = gapembed.cli.main

    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = original(argv)
        sys.stdout.write(mutate(argv, buf.getvalue()))
        return rc

    return main


def shift_success_count(argv, text):
    lines = text.splitlines(keepends=True)
    f = lines[2].split(",")
    f[3] = str(int(f[3]) + (1 if int(f[3]) < int(f[2]) else -1))
    lines[2] = ",".join(f)
    return "".join(lines)


def mutate_witness(argv, text):
    if "--witness" not in argv:
        return text
    doc = json.loads(text)
    doc["path"]["steps"][0] = doc["m"] + 1  # first gap exceeds m
    return json.dumps(doc) + "\n"


def fake_wall_record(argv, text):
    lines = text.splitlines()
    lines.insert(2, lines[1])  # a repeated wall record
    return "\n".join(lines) + "\n"


def other_valid_witness(argv, text):
    """Replace the witness by the valid path that takes the largest final
    position and largest predecessors, which breaks the documented tie."""
    if "--witness" not in argv:
        return text
    x, y = (np.array([int(c) for c in Path(argv[argv.index(k) + 1]).read_text().strip()])
            for k in ("--x", "--y"))
    doc = json.loads(text)
    m, L = doc["m"], doc["L"]
    rows = brute_rows(x, y, m, L)
    steps = [max(rows[L])]
    for j in range(L - 1, 0, -1):
        steps.insert(0, max(p for p in rows[j] if 1 <= steps[0] - p <= m))
    assert checks.check_witness(steps, x, y, m, L) == [] and steps != doc["path"]["steps"]
    doc["path"]["steps"] = steps
    return json.dumps(doc) + "\n"


def drop_kind(kind):
    """Drop the records of one kind, as a program that skips a search would."""

    def mutate(argv, text):
        kept = [line for line in text.splitlines() if f'"kind": "{kind}"' not in line]
        assert len(kept) < len(text.splitlines()) or "--holes" not in argv
        return "\n".join(kept) + "\n"

    return mutate


def greedy_off_by_one(argv, text):
    """Move the second wall of the first multi-wall span one step right."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc.get("kind") == "span" and len(doc["walls"]) > 2:
            doc["walls"][1] = [doc["walls"][1][0] + 1, doc["walls"][1][1] + 1]
            lines[i] = json.dumps(doc)
            return "\n".join(lines) + "\n"
    return text


@pytest.mark.parametrize(
    "key, mutate",
    [
        ("mc", shift_success_count),
        ("embed", mutate_witness),
        ("embed", other_valid_witness),
        ("structure", fake_wall_record),
        ("structure", drop_kind("hole")),
        ("structure", drop_kind("span")),
        ("structure", greedy_off_by_one),
    ],
)
def test_negative_controls_raise_fail_ratio(key, mutate, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(gapembed.cli, "main", corrupt(mutate))
    result, _ = run_small(key, True, capsys, monkeypatch, tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_repeated_wrong_answer_fails_every_run(capsys, monkeypatch, tmp_path):
    """A deterministic wrong answer must lower pass_ratio by more than its
    bound however many rounds a run holds, not only in the warm-up round."""
    monkeypatch.setattr(gapembed.cli, "main", corrupt(shift_success_count))
    result, _ = run_small("mc", False, capsys, monkeypatch, tmp_path, seconds=0.5)
    assert result["attempted"] > 10  # warm-up, many timed rounds, fresh process
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "pass_ratio")
    assert result["metrics"]["pass_ratio"]["value"] < 1 - bound
    assert result["failed"] == result["attempted"]


def test_refuses_without_sources(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "mc_short", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""


def test_benchmark_json_lists_the_reported_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
