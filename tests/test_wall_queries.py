"""Wall queries that read the sequence text, checked against wall-list oracles.

The oracles are the forms these queries replaced: the spanning greedy that
looks walls up in a set of all wall bodies, the projection test that searches
the full `find_walls` list, and the hole search that runs one `rect_reachable`
DP per candidate hole.
"""

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    BinarySequence,
    Interval,
    WallValue,
    find_fitting_hole,
    find_walls,
    rect_reachable,
    spanning_sequence,
)
from gapembed.errors import InputBoundsError, StructureError
from gapembed.walls import _projection_contains_wall

from conftest import binary_sequences


def spanning_sequence_oracle(interval, walls, seq, m):
    """Greedy cover over the set of all wall bodies (the list-based form)."""
    A, B = interval.left, interval.right
    if interval.size < m:
        raise StructureError(f"interval {interval} shorter than m={m}")
    bodies = {(w.body.left, w.body.right) for w in walls}

    def wall_at(i):
        return (i, i + m) in bodies

    if not wall_at(A):
        raise StructureError(f"no size-{m} wall at the left end of {interval}")
    if not wall_at(B - m):
        raise StructureError(f"no size-{m} wall at the right end of {interval}")
    if interval.size < 2 * m:
        if not seq.constant_on(A, B):
            raise StructureError(f"short interval {interval} is not itself a wall")
        return [WallValue(Interval(A, B), 2 * m, walls[0].orientation if walls else "v")]

    orientation = walls[0].orientation if walls else "v"
    chosen = [WallValue(Interval(A, A + m), 2 * m, orientation)]
    end = A + m
    while True:
        nxt = None
        for t in range(end, B - 2 * m + 1):
            if wall_at(t):
                nxt = t
                break
        if nxt is None:
            break
        chosen.append(WallValue(Interval(nxt, nxt + m), 2 * m, orientation))
        end = nxt + m
    chosen.append(WallValue(Interval(B - m, B), 2 * m, orientation))
    return chosen


def find_fitting_hole_oracle(
    wall: WallValue,
    starts: range,
    X: BinarySequence,
    Y: BinarySequence,
    slb,
    step_max: Optional[int] = None,
) -> Optional[Interval]:
    """First hole (smallest left endpoint, then smallest size) crossing `wall`.

    A hole through a vertical wall is an interval ]a, a+s] of the other axis
    such that the far corner of ]a, a+s] x [body] is reachable from the near
    one inside the rectangle, with s <= |body| / slb.  The graph step bound
    defaults to 3m derived from slb = 1/2m.
    """
    slb = Fraction(slb)
    if step_max is None:
        three_m = 3 / (2 * slb)
        if three_m.denominator != 1:
            raise InputBoundsError("cannot derive step bound from slb; pass step_max")
        step_max = int(three_m)
    body = wall.body
    max_size = int(Fraction(body.size) / slb)
    through_len = len(Y) if wall.orientation == "v" else len(X)
    for a in starts:
        if a < 0:
            continue
        for s in range(1, max_size + 1):
            if a + s > through_len:
                break
            if wall.orientation == "v":
                entry, exit_ = (body.left, a), (body.right, a + s)
                ok = rect_reachable(X, Y, entry, exit_, step_max)
            else:
                entry, exit_ = (a, body.left), (a + s, body.right)
                ok = rect_reachable(X, Y, entry, exit_, step_max)
            if ok:
                return Interval(a, a + s)
    return None


def projection_oracle(lo, hi, walls):
    return any(lo <= w.body.left and w.body.right <= hi for w in walls)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compare the exception type and message
        return type(exc), str(exc)


@st.composite
def runny_sequences(draw, max_length=40):
    """Sequences with long runs, so walls of every size occur."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, max_length))
    text, sym = [], rng.getrandbits(1)
    while len(text) < n:
        text += [str(sym)] * rng.randint(1, 9)
        sym ^= 1
    return BinarySequence.from_string("".join(text[:n]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spanning_sequence_matches_set_oracle(data):
    seq = data.draw(st.one_of(runny_sequences(), binary_sequences(max_length=20)))
    m = data.draw(st.integers(1, 4))
    n = len(seq)
    left = data.draw(st.integers(-1, n + 2))
    right = data.draw(st.integers(left, n + 2 * m + 2))
    interval = Interval(left, right)
    walls = find_walls(seq, m)
    got = outcome(spanning_sequence, interval, seq, m)
    want = outcome(spanning_sequence_oracle, interval, walls, seq, m)
    assert got == want


def test_spanning_sequence_left_end_before_origin():
    # A negative start must not be read as offset 0 of the text.
    seq = BinarySequence.from_string("000110")
    for interval in (Interval(-1, 3), Interval(-1, 1)):
        want = outcome(spanning_sequence_oracle, interval, find_walls(seq, 2), seq, 2)
        assert want[0] is StructureError
        assert outcome(spanning_sequence, interval, seq, 2) == want


def test_spanning_sequence_cover_of_a_cluster():
    seq = BinarySequence.from_string("0001101110100" + "0" * 5)
    walls = find_walls(seq, 2)
    out = spanning_sequence(Interval(0, len(seq)), seq, 2)
    assert out == spanning_sequence_oracle(Interval(0, len(seq)), walls, seq, 2)
    assert [(w.body.left, w.body.right) for w in out] == [
        (0, 2), (3, 5), (6, 8), (11, 13), (13, 15), (16, 18)
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_projection_contains_wall_matches_list_oracle(data):
    seq = data.draw(st.one_of(runny_sequences(), binary_sequences(max_length=20)))
    m = data.draw(st.integers(1, 4))
    lo = data.draw(st.integers(-1, len(seq) + 1))
    hi = data.draw(st.integers(-1, len(seq) + 2))
    assert _projection_contains_wall(lo, hi, seq, m) == projection_oracle(
        lo, hi, find_walls(seq, m)
    )


def test_wall_queries_read_no_single_symbols(monkeypatch):
    # The queries must scan the sequence text, never loop over symbol(i).
    rng = random.Random(9)
    text, sym = ["0", "1"], 0
    while len(text) < 4000:
        text += [str(sym)] * rng.randint(1, 8)
        sym ^= 1
    seq = BinarySequence.from_string("".join(text[:4000]))

    def no_symbol(self, i):
        raise AssertionError("per-symbol access")

    monkeypatch.setattr(BinarySequence, "symbol", no_symbol)
    m = 3
    walls = find_walls(seq, m)
    assert len(walls) > 100
    left, right = walls[0].body.left, walls[-1].body.right
    span = spanning_sequence(Interval(left, right), seq, m)
    assert span[0].body.left == left and span[-1].body.right == right
    assert _projection_contains_wall(0, len(seq), seq, m)
    assert not _projection_contains_wall(0, walls[0].body.right - 1, seq, m)
    with pytest.raises(StructureError, match="left end"):
        spanning_sequence(Interval(0, right), seq, m)


# ------------------------------------------------------------- holes


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_closed_form_hole_matches_search(data):
    m = data.draw(st.integers(1, 6))
    size = data.draw(st.integers(m, 2 * m - 1))
    sym = data.draw(st.sampled_from("01"))
    prefix = data.draw(binary_sequences(max_length=40 - size)).text
    suffix = data.draw(binary_sequences(max_length=40 - size - len(prefix))).text
    if data.draw(st.booleans()):
        suffix = ""  # the wall ends at len(X)
    X = BinarySequence.from_string(prefix + sym * size + suffix)
    wall = WallValue(Interval(len(prefix), len(prefix) + size), 2 * m)
    Y = data.draw(binary_sequences(max_length=30))
    start = data.draw(st.integers(-1, len(Y) + 2))
    starts = range(start, data.draw(st.integers(start, len(Y) + 4)))
    got = find_fitting_hole(wall, starts, X, Y)
    assert got == find_fitting_hole_oracle(wall, starts, X, Y, Fraction(1, 2 * m))
    if got is not None:
        assert got.size == 1
        assert Y.symbol(got.right) == X.symbol(wall.body.right)


@pytest.mark.parametrize(
    "wall, clause",
    [
        (WallValue(Interval(2, 5), 6, "h"), "vertical"),
        (WallValue(Interval(2, 5), 6, "v", "compound"), "base-run"),
        (WallValue(Interval(1, 4), 6), "not constant"),
        (WallValue(Interval(8, 11), 6), "not inside X"),
        (WallValue(Interval(-1, 2), 6), "not inside X"),
        (WallValue(Interval(2, 8), 6), "outside \\[m, 2m\\)"),
        (WallValue(Interval(2, 4), 6), "outside \\[m, 2m\\)"),
    ],
)
def test_hole_wall_contract(wall, clause):
    # X = 00 1111111 0: ]2, 9] is the one run of ones; m = rank/2 = 3.
    X = BinarySequence.from_string("0011111110")
    Y = BinarySequence.from_string("0101")
    with pytest.raises(StructureError, match=clause):
        find_fitting_hole(wall, range(0, 4), X, Y)
