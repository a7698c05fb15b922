import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    BinarySequence,
    EmbeddingPath,
    ReachFrontier,
    brute_force_reachable,
    check_embedding,
    embeddable_prefix,
    extract_embedding,
    rect_reachable,
)
from gapembed import engine
from gapembed.engine import _window_or
from gapembed.errors import InputBoundsError, OracleSizeError

from conftest import binary_sequences


def naive_window_or(mask: int, step: int) -> int:
    out = 0
    for d in range(1, step + 1):
        out |= mask << d
    return out


@given(st.integers(0, (1 << 200) - 1), st.integers(1, 40))
def test_window_or_matches_naive(mask, step):
    assert _window_or(mask, step) == naive_window_or(mask, step)


def test_window_or_fragmented_fallback():
    # A frontier of 80 one-bit runs: the smear must fill every gap exactly.
    mask = int("01" * 80, 2)
    for step in (2, 5, 17):
        assert _window_or(mask, step) == naive_window_or(mask, step)


@settings(max_examples=50)
@given(st.integers(0, (1 << 5000) - 1))
def test_positions_lists_set_bits_of_wide_masks(mask):
    frontier = ReachFrontier(0, mask)
    assert frontier.positions() == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_embeddable_trivial_cases():
    X = BinarySequence.from_string("000000")
    Y = BinarySequence.from_string("1")
    ok, frontier = embeddable_prefix(X, Y, 3, 0)
    assert ok and frontier.positions() == [0]
    ok, frontier = embeddable_prefix(X, Y, 3, 1)
    assert not ok and frontier.is_empty()
    with pytest.raises(InputBoundsError):
        embeddable_prefix(X, Y, 3, 2)


def test_extract_trivial_cases():
    X = BinarySequence.from_string("10")
    Y = BinarySequence.from_string("1")
    assert extract_embedding(X, Y, 2, 0).steps == ()
    path = extract_embedding(X, Y, 2, 1)
    assert path.steps == (1,)
    assert extract_embedding(BinarySequence.from_string("00"), Y, 2, 1) is None


def test_check_embedding_cases():
    X = BinarySequence.from_string("01")
    Y = BinarySequence.from_string("1")
    assert check_embedding(X, Y, EmbeddingPath((), 1))
    assert check_embedding(X, Y, EmbeddingPath((2,), 2))
    # gap 2 exceeds bound 1
    assert not check_embedding(X, Y, EmbeddingPath((2,), 1))
    # symbol mismatch
    assert not check_embedding(BinarySequence.from_string("00"), Y, EmbeddingPath((2,), 2))
    # non-increasing step sequences cannot even be constructed
    with pytest.raises(InputBoundsError):
        EmbeddingPath((2, 2), 3)


def test_brute_force_examples_and_guard():
    X = BinarySequence.from_string("11")
    Y = BinarySequence.from_string("11")
    assert brute_force_reachable(X, Y, 1, 0) == [{0}]
    assert brute_force_reachable(X, Y, 1, 2) == [{0}, {1}, {2}]
    with pytest.raises(OracleSizeError):
        brute_force_reachable(BinarySequence(0, 21), Y, 1, 1)
    with pytest.raises(OracleSizeError):
        brute_force_reachable(X, Y, 1, 11)


@settings(max_examples=150, deadline=None)
@given(
    binary_sequences(max_length=12),
    binary_sequences(max_length=6),
    st.integers(1, 3),
)
def test_oracle_equivalence(X, Y, m):
    L = min(len(Y), 5)
    reach = brute_force_reachable(X, Y, m, L)
    for row in range(L + 1):
        _, frontier = embeddable_prefix(X, Y, m, row)
        assert set(frontier.positions()) == reach[row]


@settings(max_examples=120, deadline=None)
@given(
    binary_sequences(min_length=1, max_length=14),
    binary_sequences(min_length=1, max_length=7),
    st.integers(1, 3),
)
def test_monotonicity(X, Y, m):
    L = len(Y)
    ok_m, _ = embeddable_prefix(X, Y, m, L)
    ok_m1, _ = embeddable_prefix(X, Y, m + 1, L)
    if ok_m:
        assert ok_m1
    if L >= 1:
        ok_shorter, _ = embeddable_prefix(X, Y, m, L - 1)
        if ok_m:
            assert ok_shorter


@settings(max_examples=80, deadline=None)
@given(
    binary_sequences(min_length=1, max_length=16),
    binary_sequences(min_length=1, max_length=8),
    st.integers(1, 4),
)
def test_frontier_slope_bound(X, Y, m):
    # Any reachable position p in row j satisfies j <= p <= j*m.
    for L in range(len(Y) + 1):
        _, frontier = embeddable_prefix(X, Y, m, L)
        for p in frontier.positions():
            assert L <= p <= L * m


@settings(max_examples=100, deadline=None)
@given(
    binary_sequences(min_length=1, max_length=14),
    binary_sequences(min_length=1, max_length=7),
    st.integers(1, 3),
)
def test_round_trip(X, Y, m):
    ok, _ = embeddable_prefix(X, Y, m)
    path = extract_embedding(X, Y, m)
    assert (path is not None) == ok
    if path is not None:
        assert check_embedding(X, Y, path)


def full_row_trace(X, Y, m, L):
    """(row L's frontier, path) from a trace that keeps every row of the DP.

    Oracle for `extract_embedding`: the same tie-break, the smallest final
    position and then the smallest valid predecessor at every row, read off
    full rows instead of checkpoints and re-run bands.
    """
    masks = [1, *engine._frontier_masks(X, Y.text[:L], m)]
    final = masks[-1]  # row L, or 0 when an earlier row was empty
    path = None
    if final:
        steps = [0] * L
        pos = (final & -final).bit_length() - 1
        for j in range(L, 0, -1):
            steps[j - 1] = pos
            if j > 1:
                lo = max(pos - m, 0)
                cands = (masks[j - 1] & ((1 << pos) - 1)) >> lo
                pos = lo + (cands & -cands).bit_length() - 1
        path = EmbeddingPath(tuple(steps), m)
    return ReachFrontier(L, final), path


@pytest.mark.parametrize("spacing", [2, 3, None], ids=["spacing2", "spacing3", "default"])
@settings(max_examples=300, deadline=None)
@given(
    binary_sequences(max_length=40),
    binary_sequences(max_length=20),
    st.data(),
    st.one_of(st.integers(1, 6), st.just(10**20)),
)
def test_witness_trace_matches_full_rows(spacing, X, Y, data, m):
    # Checkpoints every other row re-run the most bands; every third row
    # moves the band boundaries.
    L = data.draw(st.integers(0, len(Y)))
    with pytest.MonkeyPatch.context() as mp:
        if spacing is not None:
            mp.setattr(engine, "_checkpoint_spacing", lambda L: spacing)
        got = extract_embedding(X, Y, m, L, with_frontier=True)
    assert got == full_row_trace(X, Y, m, L)


def test_witness_trace_recomputes_past_dead_ends(monkeypatch):
    # Row j reaches j..min(3j, 1000) in the zeros, but only positions near
    # 1000 lead on into the ones: the lowest positions of the zero rows are
    # dead ends, so the trace runs far above them.  A band re-run from
    # checkpoint s at row j reads at most 3 (j - s) symbols of X.
    X = BinarySequence.from_string("0" * 1000 + "1" * 1000)
    Y = BinarySequence.from_string("0" * 400 + "1" * 400)
    expected = full_row_trace(X, Y, 3, len(Y))
    calls = []
    dp = engine._frontier_masks
    monkeypatch.setattr(engine, "_frontier_masks", lambda *a: calls.append(a) or dp(*a))
    got = extract_embedding(X, Y, 3, with_frontier=True)
    bands = [len(a[0]) for a in calls[1:]]
    assert bands and max(bands) <= 3 * engine._checkpoint_spacing(len(Y)), bands
    assert got == expected and got[1] is not None


def test_witness_trace_recomputes_just_past_the_window():
    # Rows 1..4 are {1, 2}, {2, 4}, {4, 5, 6}, {7}.  From 5 in row 3 the
    # predecessor in row 2 is 4, not 2: the smallest one within a gap of 2.
    X = BinarySequence.from_string("0010001")
    Y = BinarySequence.from_string("0001")
    assert extract_embedding(X, Y, 2).steps == (2, 4, 5, 7)


def test_determinism():
    rng = random.Random(4)
    for _ in range(30):
        X = BinarySequence(rng.getrandbits(20), 20)
        Y = BinarySequence(rng.getrandbits(6), 6)
        first = extract_embedding(X, Y, 3)
        second = extract_embedding(X, Y, 3)
        assert first == second


def test_truncation_at_end_of_x():
    # Reachability past len(X) is false, not an error.
    X = BinarySequence.from_string("11")
    Y = BinarySequence.from_string("111")
    ok, frontier = embeddable_prefix(X, Y, 5, 3)
    assert not ok and frontier.is_empty()


def test_rect_reachable_clipping():
    X = BinarySequence.from_string("0110")
    Y = BinarySequence.from_string("11")
    # <0,0> -> <2,1> -> <3,2> inside x-range ]0,3]
    assert rect_reachable(X, Y, (0, 0), (3, 2), 2)
    assert rect_reachable(X, Y, (1, 1), (1, 1), 3)
    assert not rect_reachable(X, Y, (2, 1), (1, 2), 3)


def dfs_rect_reachable(X, Y, u, v, step_max):
    """Independent oracle: DFS over points (x, row) with x in ]u0, min(v0, len(X))]."""
    (u0, u1), (v0, v1) = u, v
    stack, seen = [u], {u}
    while stack:
        x, row = stack.pop()
        if (x, row) == v:
            return True
        if row >= v1:
            continue
        for nx in range(x + 1, min(x + step_max, v0, len(X)) + 1):
            point = (nx, row + 1)
            if X.symbol(nx) == Y.symbol(row + 1) and point not in seen:
                seen.add(point)
                stack.append(point)
    return False


@settings(max_examples=60, deadline=None)
@given(
    binary_sequences(max_length=8),
    binary_sequences(max_length=5),
    st.integers(1, 4),
)
def test_rect_reachable_matches_dfs(X, Y, step_max):
    for u0 in range(len(X) + 1):
        for v0 in range(len(X) + 1):
            for u1 in range(len(Y) + 1):
                for v1 in range(len(Y) + 1):
                    u, v = (u0, u1), (v0, v1)
                    assert rect_reachable(X, Y, u, v, step_max) == dfs_rect_reachable(
                        X, Y, u, v, step_max
                    ), (u, v)


def test_rect_reachable_rejects_out_of_range_corners():
    X = BinarySequence.from_string("0110")
    Y = BinarySequence.from_string("11")
    for u, v in (
        ((-1, 0), (2, 1)),
        ((0, -1), (2, 1)),
        ((0, 0), (-2, 1)),
        ((0, 0), (2, -1)),
        ((0, 0), (4, 3)),
        ((0, 3), (0, 3)),
    ):
        with pytest.raises(InputBoundsError):
            rect_reachable(X, Y, u, v, 2)
    # Past the end of X is unreachable, not an error.
    assert not rect_reachable(X, Y, (0, 0), (5, 2), 2)


def test_decision_holds_one_row_at_a_time():
    rng = random.Random(82)
    X = BinarySequence(rng.getrandbits(20_000), 20_000)
    Y = BinarySequence(rng.getrandbits(2_000), 2_000)
    row_bytes = sys.getsizeof(X.match_mask(1))
    Y.text  # built once per sequence; not a row
    tracemalloc.start()
    try:
        ok, frontier = embeddable_prefix(X, Y, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every row was computed, so keeping them all would cost ~2,000 rows.
    assert ok and frontier.row == 2_000
    assert peak < 20 * row_bytes, (peak, row_bytes)


def test_witness_holds_few_rows():
    rng = random.Random(82)
    X = BinarySequence(rng.getrandbits(20_000), 20_000)
    Y = BinarySequence(rng.getrandbits(2_000), 2_000)
    row_bytes = sys.getsizeof(X.match_mask(1))
    Y.text
    tracemalloc.start()
    try:
        path = extract_embedding(X, Y, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Keeping every row would cost ~2,000 rows; the sqrt(L) checkpoints and
    # one re-run band of at most 12 sqrt(L) bits a row cost far fewer.
    assert path is not None and len(path.steps) == 2_000
    assert peak < 300 * row_bytes, (peak, row_bytes)


def test_frontier_json_shapes():
    _, frontier = embeddable_prefix(
        BinarySequence.from_string("10"), BinarySequence.from_string("1"), 2, 1
    )
    assert frontier.to_json() == {"row": 1, "positions": [1]}
    path = EmbeddingPath((1, 3), 2)
    assert path.to_json() == {"m": 2, "steps": [1, 3]}
