import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import RNG_ID, BinarySequence, __version__, experiments, find_walls
from gapembed.errors import InputBoundsError, UnderpoweredError
from gapembed.experiments import (
    CSV_HEADER,
    EstimateRow,
    TrialPlan,
    estimate_embed_prob,
    hole_frequency_check,
    rows_to_csv,
    sweep,
    wall_frequency_check,
    wilson_interval,
)
from gapembed.rng import stream_bits, stream_words
from gapembed.walls import Interval, WallValue, find_fitting_hole


def test_plan_defaults_and_bounds():
    plan = TrialPlan(master_seed=1, trials=10, m=3, L=5)
    assert plan.x_length == 15
    with pytest.raises(InputBoundsError):
        TrialPlan(master_seed=1, trials=-1, m=3, L=5)


def test_subseed_purity():
    plan = TrialPlan(master_seed=42, trials=10, m=2, L=8)
    again = TrialPlan(master_seed=42, trials=99, m=2, L=8)  # trials irrelevant
    assert plan.trial_sequences(3) == again.trial_sequences(3)
    assert plan.trial_sequences(3) != plan.trial_sequences(4)
    other_seed = TrialPlan(master_seed=43, trials=10, m=2, L=8)
    assert plan.trial_sequences(3) != other_seed.trial_sequences(3)
    # disjoint cells draw from disjoint streams
    other_cell = TrialPlan(master_seed=42, trials=10, m=3, L=8, x_length=16)
    assert plan.trial_sequences(3) != other_cell.trial_sequences(3)


def test_stream_bits_width():
    for nbits in (0, 1, 7, 64, 200):
        val = stream_bits(7, (1, 2, 3), nbits)
        assert 0 <= val < (1 << max(nbits, 1))


def test_L_zero_probability_one():
    row = estimate_embed_prob(TrialPlan(master_seed=5, trials=50, m=2, L=0, x_length=4))
    assert row.p_hat == 1.0 and row.successes == 50


def test_zero_trials_rejected():
    with pytest.raises(UnderpoweredError):
        estimate_embed_prob(TrialPlan(master_seed=5, trials=0, m=2, L=1))


def test_estimate_deterministic_and_m1_rate():
    plan = TrialPlan(master_seed=123, trials=2000, m=1, L=3)
    row1 = estimate_embed_prob(plan)
    row2 = estimate_embed_prob(plan)
    assert row1 == row2
    # analytic rate 2^-3 = 0.125
    sigma = math.sqrt(0.125 * 0.875 / plan.trials)
    assert abs(row1.p_hat - 0.125) < 4 * sigma
    assert row1.ci_low <= row1.p_hat <= row1.ci_high
    assert row1.rng_id == RNG_ID


def test_parallel_equals_serial():
    assert sweep([2], [10], trials=120, master_seed=9, jobs=2) == sweep(
        [2], [10], trials=120, master_seed=9
    )


def test_sweep_builds_one_pool(monkeypatch):
    built = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    serial = sweep([1, 2, 3], [0, 8, 16], trials=70, master_seed=5)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    assert sweep([1, 2, 3], [0, 8, 16], trials=70, master_seed=5, jobs=2) == serial
    assert built == [2]
    assert sweep([1, 2, 3], [0, 8, 16], trials=70, master_seed=5, jobs=1) == serial
    assert built == [2]


def test_sweep_rows_and_csv():
    rows = sweep([1, 2], [2, 4], trials=50, master_seed=7)
    assert [(r.m, r.L) for r in rows] == [(1, 2), (1, 4), (2, 2), (2, 4)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == f"# gapembed {__version__} rng_id={RNG_ID}"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(rows)
    assert rows_to_csv(rows) == text  # byte stable


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_wall_frequency_event_matches_find_walls():
    # the sampled event is exactly "a size-l wall value occurs at the fixed
    # body" in the sense of find_walls
    rng = random.Random(0)
    m, l = 2, 3
    for _ in range(300):
        seq = BinarySequence(rng.getrandbits(l), l)
        direct = seq.constant_on(0, l)
        walls = [(w.body.left, w.body.right) for w in find_walls(seq, m)]
        assert direct == ((0, l) in walls)


def test_wall_frequency_report():
    rep = wall_frequency_check(4, 4, samples=200_000, seed=3)
    assert rep.p_counted == 0.125 and rep.p_nominal == 0.0625
    assert abs(rep.rate - 0.125) < 5 * math.sqrt(0.125 * 0.875 / rep.samples)
    assert abs(rep.z_counted) < 5
    assert rep.z_nominal > 20  # clearly distinguishable from 2^-l
    again = wall_frequency_check(4, 4, samples=200_000, seed=3)
    assert again == rep
    with pytest.raises(InputBoundsError):
        wall_frequency_check(4, 9, samples=10)


def _constant_top_bits(words, l, samples):
    """Reference for the wall check: sample i is the top l bits of 32-bit
    half i (low half of each word first) for l <= 32, else of word i; count
    the constant samples."""
    if l <= 32:
        draws = [h >> (32 - l) for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
    else:
        draws = [w >> (64 - l) for w in words]
    return sum(d in (0, (1 << l) - 1) for d in draws[:samples])


# Chunk sizes: the program's, and two that put chunk boundaries inside
# Philox blocks (5 words; 1 and 7 hole samples per chunk).
CHUNK_BYTES = [experiments._CHUNK_BYTES, 40, 224]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.sampled_from([0, 1, 99, 12345, -1, -7, 2**63 + 5]),
    l=st.integers(1, 62),
    samples=st.integers(1, 300),
    chunk_bytes=st.sampled_from(CHUNK_BYTES),
)
def test_wall_check_reads_raw_philox_words(seed, l, samples, chunk_bytes):
    m = l // 2 + 1
    words = [int(w) for w in stream_words(seed, (0, m, l), samples)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
        got = wall_frequency_check(m, l, samples, seed).occurrences
    assert got == _constant_top_bits(words, l, samples)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_wall_check_on_chosen_words(data):
    # Real streams almost never show a wall for large l; feed words whose
    # samples are often constant instead.
    l = data.draw(st.integers(1, 62))
    samples = data.draw(st.integers(1, 40))
    bits = 32 if l <= 32 else 64
    free = bits - l
    value = st.one_of(
        st.integers(0, (1 << free) - 1),  # top l bits all 0
        st.integers((1 << bits) - (1 << free), (1 << bits) - 1),  # all 1
        st.integers(0, (1 << bits) - 1),
    )
    values = data.draw(st.lists(value, min_size=samples, max_size=samples))
    if bits == 32:
        values += [0] * (samples % 2)
        words = [lo | hi << 32 for lo, hi in zip(values[::2], values[1::2])]
    else:
        words = values

    m = l // 2 + 1
    chunk_bytes = data.draw(st.sampled_from([experiments._CHUNK_BYTES, 8, 40]))
    pieces = []

    def block(seed, ts, c2, c3, nwords, first=0):  # the stream (0, m, l) of seed 5
        assert (seed, list(ts), c2, c3) == (5, [0], m, l)
        pieces.append((first, nwords))
        return np.array([words[first : first + nwords]], dtype=np.uint64)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "stream_block", block)
        patch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
        got = wall_frequency_check(m, l, samples, 5).occurrences
    assert got == _constant_top_bits(words, l, samples)
    # The pieces read every word the samples need, in order, each once.
    assert [first for first, _ in pieces] == [0, *itertools.accumulate(n for _, n in pieces)][:-1]
    assert sum(n for _, n in pieces) == len(words)


def per_sample_holes(m, samples, seed):
    """The hole check before chunking: one Y and one finder call per sample."""
    X = BinarySequence.from_string("00" + "1" * m + "0101")
    wall = WallValue(Interval(2, 2 + m), 2 * m, "v")
    occurrences = 0
    for t in range(samples):
        word = int(stream_words(seed, (t, m, 0x410), 1)[0])
        Y = BinarySequence(word & 0b111, 3)
        occurrences += find_fitting_hole(wall, range(2, 3), X, Y) is not None
    return occurrences


@pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
@pytest.mark.parametrize(
    "m, samples, seed", [(2, 1, 0), (3, 50, 11), (4, 1000, 3), (7, 777, 9), (5, 64, -1)]
)
def test_hole_check_equals_one_finder_call_per_sample(monkeypatch, chunk_bytes, m, samples, seed):
    want = per_sample_holes(m, samples, seed)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
    rep = hole_frequency_check(m, samples, seed)
    assert (rep.samples, rep.occurrences) == (samples, want)


def test_hole_frequency_smoke():
    rep = hole_frequency_check(3, samples=400, seed=11)
    assert 0.35 <= rep.rate <= 0.65
    assert rep.expected == 0.5
    assert hole_frequency_check(3, samples=400, seed=11) == rep


def test_estimate_row_invariants():
    with pytest.raises(AssertionError):
        EstimateRow(1, 1, 10, 11, 1.1, 0.0, 1.0, RNG_ID, 0)


def test_sweep_monotone_in_m_up_to_ci_overlap():
    # the estimated curve rises with m; intervals may only overlap upward
    rows = sweep([1, 2, 3, 4], [64], trials=2000, master_seed=31)
    for lo, hi in zip(rows, rows[1:]):
        assert hi.ci_high >= lo.ci_low
        assert hi.p_hat >= lo.p_hat - (lo.ci_high - lo.ci_low)
