import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    BinarySequence,
    Interval,
    WallValue,
    construct_base_path,
    find_fitting_hole,
    find_walls,
    rect_reachable,
    slope_condition,
    spanning_sequence,
)
from gapembed.errors import InputBoundsError, StructureError

from conftest import binary_sequences, run_capped_sequence


# ------------------------------------------------------------- walls


def test_find_walls_alternating_empty():
    assert find_walls(BinarySequence.from_string("010101"), 2) == []


def test_find_walls_0000_m2():
    walls = find_walls(BinarySequence.from_string("0000"), 2)
    bodies = [(w.body.left, w.body.right) for w in walls]
    assert bodies == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert all(w.rank == 4 and w.kind == "base-run" for w in walls)


@pytest.mark.parametrize("m", [0, -1])
def test_find_walls_rejects_m_below_one(m):
    with pytest.raises(InputBoundsError, match="m must be >= 1"):
        find_walls(BinarySequence.from_string("0000"), m)


@settings(max_examples=100, deadline=None)
@given(binary_sequences(max_length=14), st.integers(1, 4))
def test_find_walls_matches_direct_enumeration(seq, m):
    expected = []
    for i in range(len(seq)):
        for l in range(m, 2 * m):
            if i + l <= len(seq) and seq.constant_on(i, i + l):
                expected.append((i, i + l))
    got = [(w.body.left, w.body.right) for w in find_walls(seq, m)]
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda b: (b[0], b[1] - b[0]))


# ------------------------------------------------------------- spanning


def test_spanning_singleton():
    seq = BinarySequence.from_string("11111")  # size 5 interval, m = 3
    out = spanning_sequence(Interval(0, 5), seq, 3)
    assert len(out) == 1 and (out[0].body.left, out[0].body.right) == (0, 5)


def test_spanning_two_runs():
    # two size-m runs separated by a wall-free gap larger than m
    seq = BinarySequence.from_string("111" + "0101" + "000"[:3])
    m = 3
    out = spanning_sequence(Interval(0, len(seq)), seq, m)
    bodies = [(w.body.left, w.body.right) for w in out]
    assert bodies == [(0, 3), (7, 10)]


def test_spanning_precondition_errors():
    seq = BinarySequence.from_string("0101111")
    with pytest.raises(StructureError, match="left"):
        spanning_sequence(Interval(0, 7), seq, 3)
    seq2 = BinarySequence.from_string("1110101")
    with pytest.raises(StructureError, match="right"):
        spanning_sequence(Interval(0, 7), seq2, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spanning_properties(data):
    # Build an interval fully covered by constant runs (each in [m, 2m-1]).
    m = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    text = []
    sym = rng.getrandbits(1)
    for _ in range(k):
        text.append(str(sym) * rng.randint(m, 2 * m - 1))
        sym = 1 - sym
    seq = BinarySequence.from_string("".join(text))
    walls = find_walls(seq, m)
    out = spanning_sequence(Interval(0, len(seq)), seq, m)
    # disjoint, ordered, size m (except a single short-interval cover)
    if len(out) == 1:
        assert m <= out[0].size < 2 * m
    else:
        prev_end = None
        bodies = {(w.body.left, w.body.right) for w in walls}
        for w in out:
            assert w.size == m
            assert (w.body.left, w.body.right) in bodies
            if prev_end is not None:
                assert w.body.left >= prev_end
                # the gap is a hop: it contains no wall body
                for other in walls:
                    assert not (
                        prev_end <= other.body.left and other.body.right <= w.body.left
                    )
            prev_end = w.body.right
        assert out[0].body.left == 0 and out[-1].body.right == len(seq)


# ------------------------------------------------------------- slope


def test_slope_condition_examples():
    for m in (2, 3, 5):
        assert slope_condition((0, 0), (2 * m, 1), Fraction(1, 2 * m), Fraction(m))
    assert not slope_condition((0, 0), (1, 2), Fraction(1, 2), Fraction(2))


def _slope_grid_oracle(u, v, sigma_x, sigma_y, pitch=64):
    (u0, u1), (v0, v1) = u, v
    smax = 1 / Fraction(sigma_y)
    for i in range(pitch):
        for j in range(pitch):
            x = Fraction(v0) - Fraction(i, pitch)
            y = Fraction(v1) - Fraction(j, pitch)
            if x <= u0:
                continue
            s = (y - u1) / (x - u0)
            if Fraction(sigma_x) <= s <= smax:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slope_condition_matches_grid(data):
    # Dyadic slope bounds keep every feasibility boundary on the 1/64 grid,
    # so the dense-grid oracle is exact.
    u0 = data.draw(st.integers(0, 8))
    u1 = data.draw(st.integers(0, 8))
    v0 = u0 + data.draw(st.integers(1, 12))
    v1 = u1 + data.draw(st.integers(1, 12))
    den_x = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    den_y = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    sigma_x = Fraction(data.draw(st.integers(1, 2 * den_x)), den_x)
    sigma_y = Fraction(data.draw(st.integers(1, 4 * den_y)), den_y)
    got = slope_condition((u0, u1), (v0, v1), sigma_x, sigma_y)
    assert got == _slope_grid_oracle((u0, u1), (v0, v1), sigma_x, sigma_y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_slope_condition_pre_hole_instances(data):
    # The canonical crossing geometry always satisfies the slope conditions:
    # from <a, u> to <b, v> with b = a + ceil(sigma_y * (v - u)), when
    # sigma_x * sigma_y < 1.
    sigma_y = Fraction(data.draw(st.integers(2, 12)))
    sigma_x = Fraction(1, data.draw(st.integers(int(sigma_y) + 1, 40)))
    a = data.draw(st.integers(0, 30))
    u = data.draw(st.integers(0, 30))
    v = u + data.draw(st.integers(1, 20))
    b = a + -(-(sigma_y * (v - u)).numerator // (sigma_y * (v - u)).denominator)
    assert slope_condition((a, u), (b, v), sigma_x, sigma_y)


# ------------------------------------------------------------- base path


def test_base_path_single_row():
    m = 3
    X = BinarySequence.from_string("0110110")
    Y = BinarySequence.from_string("11")
    # b = 1 requires 0 < a <= 2m
    path = construct_base_path((0, 0), (2, 1), X, Y, m)
    assert path == [(0, 0), (2, 1)]


def test_base_path_error_naming():
    m = 2
    X_wall = BinarySequence.from_string("001100")
    Y = BinarySequence.from_string("0110")
    with pytest.raises(StructureError, match="vertical wall"):
        construct_base_path((0, 0), (5, 3), X_wall, Y, m)
    X = BinarySequence.from_string("010101")
    with pytest.raises(StructureError, match="corner"):
        construct_base_path((0, 0), (6, 3), X, BinarySequence.from_string("0101"), m)
    with pytest.raises(StructureError, match="slope"):
        construct_base_path((0, 0), (1, 3), X, BinarySequence.from_string("0101"), m)


def test_base_path_all_minimal_property():
    # When a is small the anchors stay at the all-minimal schedule m(j-1).
    m = 3
    rng = random.Random(11)
    for _ in range(50):
        b = rng.randint(2, 5)
        a = rng.randint(m * (b - 1) + 1, min(2 * m * b, m * b))  # small a
        X = run_capped_sequence(rng, a, m - 1)
        while True:
            Y = run_capped_sequence(rng, b, m - 1)
            if Y.symbol(b) == X.symbol(a):
                break
        path = construct_base_path((0, 0), (a, b), X, Y, m)
        for j, (x, y) in enumerate(path[1:-1], start=1):
            assert m * (j - 1) < x <= m * (j - 1) + m
        assert m * (b - 2) + m < a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_base_path_random_hops_validated_by_dp(data):
    m = data.draw(st.integers(3, 5))
    b = data.draw(st.integers(1, 6))
    a = data.draw(st.integers(m * (b - 1) + 1, 2 * m * b))
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    u0 = data.draw(st.integers(0, 4))
    u1 = data.draw(st.integers(0, 4))
    X = run_capped_sequence(rng, u0 + a, m - 1)
    for _ in range(100):
        Y = run_capped_sequence(rng, u1 + b, m - 1)
        if Y.symbol(u1 + b) == X.symbol(u0 + a):
            break
    else:
        return
    u, v = (u0, u1), (u0 + a, u1 + b)
    path = construct_base_path(u, v, X, Y, m)
    prev = u
    for point in path[1:]:
        assert 1 <= point[0] - prev[0] <= 3 * m
        assert point[1] == prev[1] + 1
        assert X.symbol(point[0]) == Y.symbol(point[1])
        prev = point
    assert rect_reachable(X, Y, u, v, 3 * m)


# ------------------------------------------------------------- holes


def test_fitting_hole_single_row():
    m = 3
    # vertical wall body ]2, 2+m], constant 1
    X = BinarySequence.from_string("00" + "1" * m + "00")
    wall = WallValue(Interval(2, 2 + m), 2 * m, "v")
    Y_hit = BinarySequence.from_string("0010")
    hole = find_fitting_hole(wall, range(1, 3), X, Y_hit)
    assert hole is not None
    assert hole == Interval(2, 3)
    # The crossing runs from (wall left, hole left) to (wall right, hole right).
    assert rect_reachable(X, Y_hit, (2, 2), (2 + m, 3), 3 * m)
    Y_miss = BinarySequence.from_string("0000")
    assert (
        find_fitting_hole(wall, range(1, 3), X, Y_miss)
        is None
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fitting_hole_reverifies(data):
    m = data.draw(st.integers(2, 4))
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    sym = rng.getrandbits(1)
    run = str(sym) * m
    X = BinarySequence.from_string(("01" if sym else "10") + run + "0101")
    wall = WallValue(Interval(2, 2 + m), 2 * m, "v")
    Y = BinarySequence(rng.getrandbits(12), 12)
    hole = find_fitting_hole(wall, range(0, 6), X, Y)
    if hole is None:
        return
    assert hole.size <= 2 * m * wall.size
    entry, exit_ = (wall.body.left, hole.left), (wall.body.right, hole.right)
    assert rect_reachable(X, Y, entry, exit_, 3 * m)
