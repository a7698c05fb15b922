"""Philox streams: exact keys for every seed, bytes unchanged for the seeds
that were already exact, draws that threads can make at once, and a
vectorised block whose rows, from any word offset, equal numpy.random's
Philox (`stream_words`)."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import experiments
from gapembed.experiments import wall_frequency_check
from gapembed.rng import stream_bits, stream_block, stream_words

COORDS = [(0, 0, 0), (1, 2, 16), (999, 8, 128), (2**63 - 1, 7, 5)]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 + 7, 2**62, 2**63 - 1])
def test_bytes_match_a_fresh_generator_below_two_to_the_63(seed):
    for coords in COORDS:
        for n in range(1, 200):
            gen = np.random.Generator(
                np.random.Philox(counter=[0, *coords], key=[seed, 0])
            )
            want = int.from_bytes(gen.bytes(n), "little")
            assert stream_bits(seed, coords, 8 * n) == want, (coords, n)


def test_distinct_seeds_mod_two_to_the_64_give_distinct_streams():
    seeds = [0, 1, -1, -7, 2**63, 2**63 + 5, 2**64 - 2]
    streams = {seed: stream_bits(seed, (3, 2, 16), 256) for seed in seeds}
    assert len(set(streams.values())) == len(seeds)
    for seed in seeds:
        assert stream_bits(seed + 2**64, (3, 2, 16), 256) == streams[seed]
        assert stream_bits(seed - 2**64, (3, 2, 16), 256) == streams[seed]
    assert stream_bits(-1, (3, 2, 16), 256) == stream_bits(2**64 - 1, (3, 2, 16), 256)


def test_wall_check_keys_every_seed_exactly():
    # Unchanged below 2^63: the same draws as a list-keyed generator.
    seed, m, l = 99, 3, 4
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, m, l], key=[seed, 0]))
    words = gen.integers(0, 1 << l, size=5000, dtype=np.uint64)
    want = int(((words == 0) | (words == (1 << l) - 1)).sum())
    assert wall_frequency_check(m, l, 5000, seed).occurrences == want
    counts = {s: wall_frequency_check(m, l, 5000, s).occurrences for s in (-1, -7, 0, 2**63)}
    assert len(set(counts.values())) == len(counts)
    assert counts[-1] == wall_frequency_check(m, l, 5000, 2**64 - 1).occurrences


def test_no_warning_for_any_seed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-1, -7, 2**63, 2**63 + 5, 2**64 - 1, 2**80 + 3):
            stream_bits(seed, (0, 2, 16), 48)
            wall_frequency_check(2, 2, 100, seed)
            experiments.sweep([2], [8], trials=10, master_seed=seed)


def test_stream_views_agree():
    words = stream_words(5, (7, 3, 40), 3)
    assert np.array_equal(stream_block(5, [7], 3, 40, 3)[0], words)
    raw = words.astype("<u8").tobytes()
    assert stream_bits(5, (7, 3, 40), 150) == int.from_bytes(raw, "little") & ((1 << 150) - 1)


def test_threads_share_the_generator():
    # More threads than cores, a short switch interval: a draw that another
    # thread repositions mid-way would differ from the single-thread value.
    coords = [(t, 2, 16) for t in range(200)]
    want = {c: stream_bits(17, c, 320) for c in coords}
    bad = []

    def worker(offset):
        for i in range(400):
            c = coords[(i * 7 + offset) % len(coords)]
            if stream_bits(17, c, 320) != want[c]:
                bad.append(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


BLOCK_SEEDS = [0, 3, 2**63 - 1, 2**63, 2**64 - 1, -1, -7]
BLOCK_TS = [0, 1, 2, 63, 64, 199, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 7, 2**64 - 1]
BLOCK_CELLS = [(2, 16), (8, 128), (2**63, 5), (3, 2**63 + 7), (2**64 - 1, 2**64 - 1)]


def assert_rows_are_streams(seed, ts, c2, c3, nwords, first=0):
    block = stream_block(seed, ts, c2, c3, nwords, first=first)
    assert block.dtype == np.uint64 and block.shape == (len(ts), nwords)
    for row, t in zip(block, ts):
        want = stream_words(seed, (int(t), c2, c3), first + nwords)[first:]
        assert np.array_equal(row, want), (seed, int(t), c2, c3, nwords, first)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_block_rows_equal_stream_words(seed):
    # nwords 1..9 covers one to three Philox blocks, whole and cut short.
    for c2, c3 in BLOCK_CELLS:
        for nwords in range(1, 10):
            assert_rows_are_streams(seed, BLOCK_TS, c2, c3, nwords)


def test_block_takes_arrays_and_wraps_every_coordinate():
    ts = [0, 5, 2**63, 2**64 - 1]
    want = stream_block(9, ts, 2, 16, 6)
    assert np.array_equal(stream_block(9, np.array(ts, dtype=np.uint64), 2, 16, 6), want)
    assert np.array_equal(stream_block(9, np.array([0, 5, -(2**63), -1]), 2, 16, 6), want)
    assert np.array_equal(stream_block(9 + 2**64, [t - 2**64 for t in ts], 2, 16, 6), want)
    assert np.array_equal(stream_block(9, ts, 2 - 2**64, 16 + 2**64, 6), want)


def test_block_of_no_streams_or_no_words():
    assert stream_block(3, [], 2, 16, 5).shape == (0, 5)
    assert stream_block(3, np.arange(0, dtype=np.uint64), 2, 16, 5).shape == (0, 5)
    assert stream_block(3, [1, 2], 2, 16, 0).shape == (2, 0)


words64 = st.integers(-(2**64), 2**65)


@settings(max_examples=200, deadline=None)
@given(
    seed=words64,
    ts=st.lists(words64, max_size=12),
    c2=words64,
    c3=words64,
    nwords=st.integers(0, 13),
    first=st.integers(0, 41),  # offsets inside a Philox block too
)
def test_block_equals_stream_words_property(seed, ts, c2, c3, nwords, first):
    assert_rows_are_streams(seed, ts, c2, c3, nwords, first)


def test_block_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-1, 2**63, 2**64 - 1, 2**80 + 3):
            stream_block(seed, [0, 2**64 - 1], 2**64 - 1, 2**63, 9)
