import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    BinarySequence,
    Interval,
    LevelStructures,
    WallValue,
    compound_walls,
    detect_missing_hole_event,
    estimate_missing_hole_trap,
    finish_step,
)
from gapembed.errors import UnderpoweredError
from gapembed.renorm import log_lam_floor


def wall(left, right, rank, orientation="v", kind="base-run"):
    return WallValue(Interval(left, right), rank, orientation, kind)


# ------------------------------------------------------------- compound


def test_compound_rank_adjacent():
    out = compound_walls([wall(0, 3, 10), wall(3, 6, 12)], phi=16, r_star=11)
    by_type = {cw.ctype: cw for cw in out}
    # first wall light (10 < 11): pass one forms (10, 12, 0) at distance 0
    cw = by_type[(10, 12, 0)]
    assert cw.rank == 22 and cw.distance == 0
    assert (cw.body.left, cw.body.right) == (0, 6)


def test_compound_rank_log_distance():
    out = compound_walls([wall(0, 3, 10), wall(7, 9, 12)], phi=16, r_star=11)
    cw = next(c for c in out if c.ctype == (10, 12, 4))
    assert cw.distance == 4 and cw.rank == 18


def test_log_lam_floor_values():
    assert [log_lam_floor(d) for d in (1, 2, 3, 4, 5, 8)] == [0, 2, 3, 4, 4, 6]


def test_compound_second_pass_light_right():
    # heavy then light pairs only appear through the second pass
    walls = [wall(0, 3, 20), wall(5, 8, 10)]
    out = compound_walls(walls, phi=16, r_star=15)
    assert any(cw.ctype == (20, 10, 2) for cw in out)
    # light-light right-extension of a first-pass compound exists as well
    walls = [wall(0, 3, 10), wall(4, 7, 10), wall(9, 12, 10)]
    out = compound_walls(walls, phi=16, r_star=15)
    chained = [cw for cw in out if isinstance(cw.first.rank, int) and cw.first.kind == "compound"]
    assert chained, "expected an (L+W)+L chain through the second pass"


def test_compound_gap_bound_and_order():
    walls = [wall(0, 3, 10), wall(30, 33, 10)]
    assert compound_walls(walls, phi=16, r_star=15) == []  # gap 27 > phi
    assert compound_walls([wall(0, 3, 10)], phi=16, r_star=15) == []


def test_compound_hop_flag():
    walls = [wall(0, 3, 10), wall(5, 8, 12)]
    out = compound_walls(walls, phi=16, r_star=11, hop_fn=lambda gap: gap.size < 3)
    assert all(cw.is_wall for cw in out if cw.distance < 3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compound_rank_window(data):
    # ranks stay inside [r1 + r2 - log_lam(phi), r1 + r2]
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    R = 10
    phi = data.draw(st.integers(2, 64))
    walls = []
    cursor = 0
    for _ in range(data.draw(st.integers(2, 6))):
        cursor += rng.randint(0, phi)
        size = rng.randint(2, 5)
        walls.append(wall(cursor, cursor + size, rng.randint(R, 3 * R)))
        cursor += size
    out = compound_walls(walls, phi=phi, r_star=2 * R)
    log_phi = log_lam_floor(phi)
    for cw in out:
        r1, r2 = cw.first.rank, cw.second.rank
        assert r1 + r2 - log_phi <= cw.rank <= r1 + r2
        assert 0 <= cw.distance <= phi


# ------------------------------------------------------------- finish


def test_finish_all_heavy():
    walls = (wall(0, 3, 30), wall(10, 13, 40))
    cw = compound_walls(list(walls), phi=16, r_star=35)
    out = finish_step(
        LevelStructures(walls=walls, traps=(((0, 0), (1, 1)),), new_compound=tuple(cw)),
        r_star=25,
        delta=2,
    )
    assert out.traps == ()
    lefts = {(w.body.left, w.body.right) for w in out.walls}
    assert {(0, 3), (10, 13)} <= lefts
    assert any(w.kind == "compound" for w in out.walls)


def test_finish_dominant_light_removes_contained():
    # light dominant wall ]0,10] contains a heavy wall ]2,6]: both go
    outer = wall(0, 10, 10)
    inner = wall(2, 6, 99)
    out = finish_step(
        LevelStructures(walls=(outer, inner)), r_star=50, delta=3
    )
    assert out.walls == ()
    # without dominance (a blocking wall nearby) the heavy one survives
    blocker = wall(11, 14, 99)
    out = finish_step(
        LevelStructures(walls=(outer, inner, blocker)), r_star=50, delta=3
    )
    survivors = {(w.body.left, w.body.right) for w in out.walls}
    assert survivors == {(2, 6), (11, 14)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_finish_rank_floor(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    r_star = 20
    walls = []
    cursor = 0
    for _ in range(data.draw(st.integers(1, 6))):
        cursor += rng.randint(1, 8)
        size = rng.randint(2, 4)
        walls.append(wall(cursor, cursor + size, rng.randint(10, 40)))
        cursor += size
    cw = compound_walls(walls, phi=64, r_star=r_star)
    cw = [c for c in cw if c.rank >= r_star]  # mirror a valid parameter regime
    out = finish_step(
        LevelStructures(walls=tuple(walls), new_compound=tuple(cw)),
        r_star=r_star,
        delta=3,
    )
    assert all(w.rank >= r_star for w in out.walls)


# ------------------------------------------------------------- events


def _mh_setup(y_text):
    # region I = ]0, 12], b = 0, delta = 2, m = 2: candidate wall bodies start
    # at 2 inside the window [0, 6].
    X = BinarySequence.from_string("0110100110110")
    Y = BinarySequence.from_string(y_text)
    return X, Y, Interval(0, 12), 0, 2, 2


def test_missing_hole_no_wall():
    X, Y, region, b, delta, m = _mh_setup("0101010")
    assert not detect_missing_hole_event(X, Y, region, b, delta, m)


def test_missing_hole_wall_with_hole():
    # wall body ]2,4] ("11"); X offers matching entries and crossings
    X, Y, region, b, delta, m = _mh_setup("0011010")
    assert not detect_missing_hole_event(X, Y, region, b, delta, m)


def test_missing_hole_wall_without_hole():
    # Y wall ]2,4] of zeros; X has no zeros beyond position 12, and inside
    # the margin-admissible zone no good hole crosses two rows of zeros.
    X = BinarySequence.from_string("1111111111111")
    Y = BinarySequence.from_string("0000010")
    region = Interval(0, 12)
    assert detect_missing_hole_event(X, Y, region, 0, 2, 2)


def test_missing_hole_r_star_gate():
    X, Y, region, b, delta, m = _mh_setup("0000010")
    X = BinarySequence.from_string("1111111111111")
    assert detect_missing_hole_event(X, Y, region, b, delta, m, r_star=10)
    # when level walls are not light, the event cannot fire
    assert not detect_missing_hole_event(X, Y, region, b, delta, m, r_star=3)


def test_estimator_underpowered():
    X, Y, region, b, delta, m = _mh_setup("0101010")
    with pytest.raises(UnderpoweredError):
        estimate_missing_hole_trap(X, Y, region, b, delta, m, 0.1, trials=50)


def test_missing_hole_estimator_matches_enumeration():
    X, Y, region, b, delta, m = _mh_setup("0101010")
    positions = range(max(1, b), min(len(Y), b + 3 * delta) + 1)
    width = len(positions)
    hits = 0
    for assignment in range(1 << width):
        bits = Y.bits
        for idx, pos in enumerate(positions):
            mask = 1 << (pos - 1)
            bits = bits | mask if assignment >> idx & 1 else bits & ~mask
        if detect_missing_hole_event(
            BinarySequence(bits, len(Y)), Y, region, b, delta, m
        ):
            hits += 1
    # enumeration resamples X? no: the event conditions on X and varies Y(J)
    exact = 0
    for assignment in range(1 << width):
        bits = Y.bits
        for idx, pos in enumerate(positions):
            mask = 1 << (pos - 1)
            bits = bits | mask if assignment >> idx & 1 else bits & ~mask
        if detect_missing_hole_event(X, BinarySequence(bits, len(Y)), region, b, delta, m):
            exact += 1
    p_true = exact / (1 << width)
    est = estimate_missing_hole_trap(
        X, Y, region, b, delta, m, w_bound=0.1, trials=400, seed=5
    )
    sigma = (p_true * (1 - p_true) / est.trials) ** 0.5
    assert abs(est.p_hat - p_true) <= max(3 * sigma, 0.01)
    assert est.ci_low <= est.p_hat <= est.ci_high


def test_estimator_never_flags_at_w_zero():
    X, Y, region, b, delta, m = _mh_setup("0000010")
    X = BinarySequence.from_string("1111111111111")
    est = estimate_missing_hole_trap(X, Y, region, b, delta, m, w_bound=0.0, trials=100, seed=1)
    assert est.event_holds and not est.trap_estimated
