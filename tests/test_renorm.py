import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    Interval,
    WallValue,
    compound_walls,
)
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
