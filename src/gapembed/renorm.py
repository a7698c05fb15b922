"""Compound walls: two nearby walls of one level merged into a wall of the next.

This is the one scale-up operator the package keeps.  A compound wall's rank
is r1 + r2 - i, where i is the distance index of the gap between the members
(`log_lam_floor`); acceptance criterion 6 checks that law.  The rest of the
paper's level-2 step (dominant walls, hop checks on the gaps, missing-hole
traps and the finish step) is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .errors import InputBoundsError
from .walls import Interval, WallValue


def log_lam_floor(d: int) -> int:
    """floor(log_lam d) for lam = 2^(1/2), exactly: largest i with 2^i <= d^2."""
    if d < 1:
        raise InputBoundsError("distance must be >= 1")
    return (d * d).bit_length() - 1


@dataclass(frozen=True)
class CompoundWall:
    """Two nearby walls merged; the gap enters the rank logarithmically."""

    first: WallValue
    second: WallValue
    distance: int
    ctype: tuple
    rank: Rational

    @property
    def body(self) -> Interval:
        return Interval(self.first.body.left, self.second.body.right)

    def as_wall_value(self) -> WallValue:
        return WallValue(self.body, self.rank, self.first.orientation, "compound")


def _compound(first: WallValue, second: WallValue, d: int) -> CompoundWall:
    i = d if d in (0, 1) else log_lam_floor(d)
    return CompoundWall(
        first, second, d, (first.rank, second.rank, i), first.rank + second.rank - i
    )


def compound_walls(walls: Sequence[WallValue], phi, r_star) -> list[CompoundWall]:
    """All compound walls over ordered pairs at gap d <= phi.

    First pass: the left member is light (rank < r_star), the right member
    arbitrary.  Second pass: the right member is light and the left member is
    anything built so far, including first-pass compounds.  Ranks follow
    r1 + r2 - i with i = d for d in {0, 1} and floor(log_lam d) otherwise.
    Whether the gap is a hop, which separates compound walls from compound
    barriers, is not checked.
    """
    out: list[CompoundWall] = []
    seen = set()

    def emit(first: WallValue, second: WallValue) -> None:
        d = second.body.left - first.body.right
        if d < 0 or d > phi:
            return
        cw = _compound(first, second, d)
        key = (
            cw.body.left,
            cw.body.right,
            cw.first.body.right,
            cw.second.body.left,
            cw.rank,
        )
        if key in seen:
            return
        seen.add(key)
        out.append(cw)

    light = [w for w in walls if w.rank < r_star]
    for w1 in light:
        for w2 in walls:
            emit(w1, w2)
    first_pass_walls = [cw.as_wall_value() for cw in out]
    for w1 in list(walls) + first_pass_walls:
        for w2 in light:
            emit(w1, w2)
    return out
