"""The lane-parallel DP and the Monte Carlo path built on it.

`embeddable_lanes` decides many (X, Y) pairs at once, one pair per bit lane.
Every lane must decide exactly what `embeddable_prefix` decides for its
pair; the sweep built on it must count what the per-trial loop counted.
"""

import warnings

import numpy as np
import pytest

from gapembed import BinarySequence, brute_force_reachable, embeddable_prefix
from gapembed import experiments, rng
from gapembed.experiments import (
    TrialPlan,
    _count_successes,
    _trial_lanes,
    embeddable_lanes,
    sweep,
)


def pack_lanes(rows: list[int], lanes: int) -> np.ndarray:
    """Lane array from per-row ints (bit t of rows[i] is row i of lane t),
    built one word at a time with plain ints."""
    words = -(-lanes // 64)
    out = np.zeros((len(rows), words), dtype=np.uint64)
    for i, row in enumerate(rows):
        for w in range(words):
            out[i, w] = (row >> (64 * w)) & ((1 << 64) - 1)
    return out


def rows_of(pairs: list[tuple[int, int]], x_length: int, L: int) -> tuple[list[int], list[int]]:
    """Per-symbol rows of X and Y over the pairs (x_bits, y_bits), lane t = pairs[t]."""
    x_rows = [sum(((x >> i) & 1) << t for t, (x, _) in enumerate(pairs)) for i in range(x_length)]
    y_rows = [sum(((y >> j) & 1) << t for t, (_, y) in enumerate(pairs)) for j in range(L)]
    return x_rows, y_rows


def decide(pairs, x_length, L, m, lanes=None):
    lanes = len(pairs) if lanes is None else lanes
    x_rows, y_rows = rows_of(pairs, x_length, L)
    return embeddable_lanes(
        pack_lanes(x_rows, len(pairs)), pack_lanes(y_rows, len(pairs)), m, lanes
    )


def reference(x, y, x_length, L, m) -> bool:
    X, Y = BinarySequence(x, x_length), BinarySequence(y, L)
    return embeddable_prefix(X, Y, m)[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_every_pair_up_to_twelve_symbols(m):
    # All X/Y patterns with x_length + L <= 12, x_length 0 and L 0 included,
    # as one lane call per (x_length, L); brute force wherever its guard allows.
    for n in range(13):
        for x_length in range(n + 1):
            L = n - x_length
            pairs = [(p & ((1 << x_length) - 1), p >> x_length) for p in range(1 << n)]
            got = decide(pairs, x_length, L, m)
            assert got >> len(pairs) == 0
            for t, (x, y) in enumerate(pairs):
                want = reference(x, y, x_length, L, m)
                assert (got >> t) & 1 == want, (m, x_length, L, x, y)
                if L <= 10:
                    X, Y = BinarySequence(x, x_length), BinarySequence(y, L)
                    assert bool(brute_force_reachable(X, Y, m, L)[L]) == want


@pytest.mark.parametrize("lanes", [1, 63, 64, 65])
def test_pad_lanes_never_survive(lanes):
    # Pad lanes hold all-ones pairs, which embed; none may be counted, and
    # the real lanes must not change.
    rng = np.random.default_rng(lanes)
    x_length, L, m = 9, 4, 3
    pairs = [(int(rng.integers(1 << x_length)), int(rng.integers(1 << L))) for _ in range(lanes)]
    padded = pairs + [((1 << x_length) - 1, (1 << L) - 1)] * (-lanes % 64)
    got = decide(padded, x_length, L, m, lanes)
    want = sum(reference(x, y, x_length, L, m) << t for t, (x, y) in enumerate(pairs))
    assert got == want
    assert decide(padded, x_length, L, m, len(padded)) >> lanes == (1 << (len(padded) - lanes)) - 1


@pytest.mark.parametrize(
    "trials, x_length, L", [(1, None, 5), (63, 0, 3), (64, 7, 16), (65, None, 16), (130, 40, 20)]
)
def test_trial_lanes_hold_the_trial_sequences(trials, x_length, L):
    plan = TrialPlan(master_seed=2**63 - 5, trials=trials, m=3, L=L, x_length=x_length)
    lanes = _trial_lanes(plan, 0, trials)
    assert lanes.shape == (plan.x_length + L, -(-trials // 64))
    for t in range(trials):
        X, Y = plan.trial_sequences(t)
        lane = [int(lanes[i, t // 64]) >> (t % 64) & 1 for i in range(len(lanes))]
        want = [(X.bits >> i) & 1 for i in range(len(X))] + [(Y.bits >> j) & 1 for j in range(L)]
        assert lane == want


def unpack_pack_lanes(plan, start, stop):
    """The lane array built one trial stream at a time, then transposed 64
    trials at a time by unpacking to one byte per bit and packing along the
    trial axis."""
    nbits = plan.x_length + plan.L
    nwords = -(-nbits // 64)
    lanes = np.zeros((nbits, -(-(stop - start) // 64)), dtype=np.uint64)
    block = np.empty((64, nwords), dtype="<u8")
    for w, lo in enumerate(range(start, stop, 64)):
        hi = min(lo + 64, stop)
        for i, t in enumerate(range(lo, hi)):
            block[i] = rng.stream_words(plan.master_seed, (t, plan.m, plan.L), nwords)
        block[hi - lo :] = 0
        bits = np.unpackbits(block.view(np.uint8), axis=1, count=nbits, bitorder="little")
        packed = np.packbits(bits, axis=0, bitorder="little")
        lanes[:, w] = np.ascontiguousarray(packed.T).view("<u8")[:, 0]
    return lanes


@pytest.mark.parametrize("nwords", range(1, 21))
def test_trial_lanes_equal_unpack_pack(nwords):
    # Bit counts that end mid-word and at a word's end, trial ranges that end
    # mid-word and start off zero; pad lanes must be zero on both sides.
    for nbits, trials, start in [(64 * nwords - 13, 97, 0), (64 * nwords, 64, 5), (64 * nwords - 1, 1, 3)]:
        L = max(nbits // 4, 1)
        plan = TrialPlan(master_seed=nwords - 3, trials=trials, m=2, L=L, x_length=nbits - L)
        got = _trial_lanes(plan, start, start + trials)
        assert got.dtype == np.uint64
        assert np.array_equal(got, unpack_pack_lanes(plan, start, start + trials))
        if trials % 64:
            assert not (got[:, -1] >> np.uint64(trials % 64)).any()


def test_count_successes_draws_no_single_streams(monkeypatch):
    plan = TrialPlan(master_seed=2**64 - 1, trials=300, m=3, L=24)
    want = per_trial_successes(plan, 0, plan.trials)

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep chunk must draw its streams in one block")

    monkeypatch.setattr(experiments, "stream_words", forbidden, raising=False)
    monkeypatch.setattr(rng, "stream_words", forbidden)
    monkeypatch.setattr(rng, "philox", forbidden)
    assert _count_successes(plan, 0, plan.trials) == want


def test_lanes_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-1, -7, 2**63, 2**64 - 1):
            plan = TrialPlan(master_seed=seed, trials=130, m=2, L=40)
            _count_successes(plan, 0, plan.trials)


def per_trial_successes(plan, start, stop):
    """The sweep's count before lanes: one big-int DP per trial."""
    return sum(
        embeddable_prefix(*plan.trial_sequences(t), plan.m, plan.L)[0] for t in range(start, stop)
    )


@pytest.mark.parametrize(
    "m, L, x_length, trials",
    [(2, 16, None, 300), (4, 40, None, 1100), (3, 16, 7, 130), (1, 12, None, 200), (5, 1, 0, 65)],
)
def test_count_successes_equals_per_trial_dp(m, L, x_length, trials):
    plan = TrialPlan(master_seed=11, trials=trials, m=m, L=L, x_length=x_length)
    want = per_trial_successes(plan, 0, trials)
    assert _count_successes(plan, 0, trials) == want
    # Any split of the trial range sums to the same count.
    cut = trials // 3
    assert _count_successes(plan, 0, cut) + _count_successes(plan, cut, trials) == want


def test_chunk_shrinks_for_long_trials(monkeypatch):
    plan = TrialPlan(master_seed=4, trials=200, m=3, L=30)
    want = per_trial_successes(plan, 0, plan.trials)
    seen = []
    original = experiments.embeddable_lanes

    def spy(x_lanes, y_lanes, m, lanes):
        seen.append(x_lanes.nbytes + y_lanes.nbytes)
        return original(x_lanes, y_lanes, m, lanes)

    monkeypatch.setattr(experiments, "embeddable_lanes", spy)
    # 120 bits per trial: a 1024-byte budget allows one word of 64 lanes.
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1024)
    assert _count_successes(plan, 0, plan.trials) == want
    assert len(seen) == 4 and max(seen) <= 1024


def test_sweep_builds_no_sequences(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep must not build per-trial sequences or DPs")

    expected = sweep([1, 3], [0, 16], trials=70, master_seed=8)
    monkeypatch.setattr(experiments, "BinarySequence", forbidden)
    monkeypatch.setattr(experiments, "embeddable_prefix", forbidden)
    monkeypatch.setattr(TrialPlan, "trial_sequences", forbidden)
    assert sweep([1, 3], [0, 16], trials=70, master_seed=8) == expected
