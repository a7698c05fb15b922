"""Base-level combinatorial structures of one hierarchy level over {0,1} sequences.

Level-1 semantics throughout this module:

* a wall of a sequence is a right-closed interval ]i, i+l] with m <= l < 2m on
  which the sequence is constant, of rank 2m;
* there are no traps;
* every point is strongly clean in all one-dimensional senses, every point is
  upper-right trap-clean, and a point <i,j> is lower-left trap-clean iff
  X(i) = Y(j) (the origin row/column, where a symbol is undefined, counts as
  clean).

Every wall question is answered from the sequence text (`BinarySequence.text`)
in linear time: walls are read off the maximal runs `0+|1+` by `wall_spans`,
the one run scan, which yields each wall's endpoints without building an
object (so `analyze` writes its wall lines straight from it), and "a size-m
wall starts at i", i.e. ]i, i+m] is constant, is the lookahead
`(?=0{m}|1{m})` matching at text offset i.  Holes through a vertical wall
]c, d] are read off Y's text too: the first one is the interval ]a, a+1]
at the first a with Y(a+1) = X(d), crossed from (c, a) to (d, a+1), so it
depends on the wall only through the symbol X(d) (see `find_fitting_hole`).

Intervals follow the right-closed convention ]a, b] with a >= -1: ]a, b]
holds the integer points a+1..b, so ]i, i+l] lies inside ]u, v] iff u <= i
and i+l <= v.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Literal, Optional

from .engine import rect_reachable  # looked up by name in bench/tracer.py
from .errors import InputBoundsError, StructureError
from .sequences import BinarySequence

Point = tuple[int, int]


@dataclass(frozen=True)
class Interval:
    """Right-closed interval ]left, right] with endpoints on the integer grid."""

    left: int
    right: int

    def __post_init__(self):
        if self.left < -1:
            raise InputBoundsError("interval left end must be >= -1")
        if self.right < self.left:
            raise InputBoundsError("interval must satisfy left <= right")

    @property
    def size(self) -> int:
        return self.right - self.left


@dataclass(frozen=True)
class WallValue:
    """A wall or barrier value: right-closed body plus rank."""

    body: Interval
    rank: Rational
    orientation: Literal["v", "h"] = "v"
    kind: Literal["base-run", "compound"] = "base-run"

    @property
    def size(self) -> int:
        return self.body.size

    def to_json(self) -> dict:
        return {
            "orientation": self.orientation,
            "left": self.body.left,
            "right": self.body.right,
            "rank": self.rank if isinstance(self.rank, int) else float(self.rank),
            "kind": self.kind,
        }


_RUNS = re.compile("0+|1+")


def wall_spans(text: str, m: int) -> Iterator[tuple[int, int]]:
    """(left, right) of every wall ]left, right] of a 0/1 text: the constant
    intervals with m <= right - left < 2m, by left endpoint, then size.

    The one scan of the text's maximal runs behind `find_walls` and the wall
    lines of `analyze`.  Raises `InputBoundsError` for m < 1 when iterated.
    """
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    for run in _RUNS.finditer(text):
        start, stop = run.span()
        for i in range(start, stop - m + 1):
            for right in range(i + m, min(i + 2 * m, stop + 1)):
                yield i, right


def find_walls(
    seq: BinarySequence, m: int, orientation: Literal["v", "h"] = "v"
) -> list[WallValue]:
    """Every wall value of the sequence: all constant right-closed intervals
    ]i, i+l] with m <= l < 2m, rank 2m, sorted by (left endpoint, size).

    All qualifying sub-intervals are listed, not only maximal runs; canonical
    covers come from `spanning_sequence`.
    """
    return [WallValue(Interval(l, r), 2 * m, orientation) for l, r in wall_spans(seq.text, m)]


def _wall_starts(m: int) -> re.Pattern:
    """Pattern matching at text offset i iff ]i, i+m] is a size-m wall."""
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    return re.compile(f"(?=0{{{m}}}|1{{{m}}})")


def spanning_sequence(interval: Interval, seq: BinarySequence, m: int) -> list[WallValue]:
    """Cover `interval` by disjoint size-m walls of `seq` separated by hops.

    Requires the interval to begin and end with a size-m wall (the shape an
    interval surrounded by maximal external intervals necessarily has).  The
    cover starts with the wall at the left end and repeatedly takes the
    closest size-m wall that stays disjoint from its predecessor and at
    distance >= m from the right end, then closes with the wall at the right
    end.  Gaps between consecutive chosen walls contain no wall.  The walls
    are found by scanning the sequence text and come out vertical.
    """
    A, B = interval.left, interval.right
    if interval.size < m:
        raise StructureError(f"interval {interval} shorter than m={m}")
    starts = _wall_starts(m)
    text = seq.text
    # re reads a negative pos as 0; no wall starts left of the origin.
    if A < 0 or not starts.match(text, A):
        raise StructureError(f"no size-{m} wall at the left end of {interval}")
    if not starts.match(text, B - m):
        raise StructureError(f"no size-{m} wall at the right end of {interval}")
    if interval.size < 2 * m:
        if not seq.constant_on(A, B):
            raise StructureError(f"short interval {interval} is not itself a wall")
        return [WallValue(Interval(A, B), 2 * m)]

    chosen = [WallValue(Interval(A, A + m), 2 * m)]
    # The next wall ]t, t+m] must end by B - m: search with endpos B - m.
    nxt = starts.search(text, A + m, B - m)
    while nxt is not None:
        t = nxt.start()
        chosen.append(WallValue(Interval(t, t + m), 2 * m))
        nxt = starts.search(text, t + m, B - m)
    chosen.append(WallValue(Interval(B - m, B), 2 * m))
    return chosen


def _projection_contains_wall(lo: int, hi: int, seq: BinarySequence, m: int) -> bool:
    # A right-closed body ]c, d] sits inside [lo, hi] iff lo <= c and d <= hi;
    # the left-open projection ]lo, hi] gives the same condition.  Any wall
    # there contains a size-m one, which the search with endpos hi finds.
    return _wall_starts(m).search(seq.text, max(lo, 0), hi) is not None


def slope_condition(u: Point, v: Point, sigma_x, sigma_y) -> bool:
    """Does some real point v' in the half-open unit box below-left of v
    satisfy sigma_x <= slope(u, v') <= 1/sigma_y?

    Exact rational test: over the box ]v0-1, v0] x ]v1-1, v1] the achievable
    slopes form the open interval between (v1-1-u1)/(v0-u0) and
    (v1-u1)/(v0-1-u0) (unbounded when v0-1 = u0), and every slope strictly
    inside is attained.
    """
    (u0, u1), (v0, v1) = u, v
    if not (u0 < v0 and u1 < v1):
        raise InputBoundsError("slope condition requires u < v coordinatewise")
    sigma_x = Fraction(sigma_x)
    sigma_y = Fraction(sigma_y)
    if sigma_x <= 0 or sigma_y <= 0:
        raise InputBoundsError("slope bounds must be positive")
    s_max = 1 / sigma_y
    if sigma_x > s_max:
        return False
    lo = Fraction(v1 - 1 - u1, v0 - u0)
    if s_max <= lo:
        return False
    if v0 - 1 > u0:
        hi = Fraction(v1 - u1, v0 - 1 - u0)
        if sigma_x >= hi:
            return False
    return True


def construct_base_path(
    u: Point, v: Point, X: BinarySequence, Y: BinarySequence, m: int
) -> list[Point]:
    """Explicit path from u to v through a hop rectangle, one row per step.

    Preconditions (checked, failures name the clause): no vertical wall in the
    x-projection, no horizontal wall in the y-projection, matching corner
    symbols, and the slope condition with sigma_x = 1/2m, sigma_y = m.

    Row j is entered inside the window ]s_j, s_j + m] where the anchors s_j
    start from the all-minimal schedule s_j = m(j-1) and the tail is raised
    minimally so that the last window still reaches v; every increment lies in
    [1, 3m].  The returned list starts at u and ends at v.
    """
    (u0, u1), (v0, v1) = u, v
    if not (u0 < v0 and u1 < v1):
        raise InputBoundsError("construct_base_path requires u < v coordinatewise")
    a, b = v0 - u0, v1 - u1
    if _projection_contains_wall(u0, v0, X, m):
        raise StructureError("vertical wall inside the x-projection")
    if _projection_contains_wall(u1, v1, Y, m):
        raise StructureError("horizontal wall inside the y-projection")
    if X.symbol(v0) != Y.symbol(v1):
        raise StructureError("corner symbol mismatch: X(v0) != Y(v1)")
    if not slope_condition(u, v, Fraction(1, 2 * m), Fraction(m)):
        raise StructureError("slope condition fails for sigma_x=1/2m, sigma_y=m")
    # The slope condition pins m(b-1) < a <= 2mb.
    assert m * (b - 1) < a <= 2 * m * b

    anchors = [max(m * (j - 1), a - 2 * m * (b - j)) for j in range(1, b)]
    path = [u]
    for j, s in enumerate(anchors, start=1):
        assert s + m < a
        chosen = None
        for x in range(u0 + s + 1, u0 + s + m + 1):
            if X.symbol(x) == Y.symbol(u1 + j):
                chosen = x
                break
        if chosen is None:
            # A full window of identical mismatches would be a vertical wall.
            raise StructureError("no matching symbol in a step window")
        path.append((chosen, u1 + j))
    path.append(v)
    prev = u0
    for x, _ in path[1:]:
        assert 1 <= x - prev <= 3 * m, "increment outside [1, 3m]"
        prev = x
    return path


def find_fitting_hole(
    wall: WallValue, starts: range, X: BinarySequence, Y: BinarySequence
) -> Optional[Interval]:
    """The first hole (smallest left endpoint, then smallest size) crossing a
    level-1 vertical wall, read off Y's text, as an interval of Y.

    A hole is an interval ]a, a+s] of Y such that (d, a+s) is reachable from
    (c, a) through the wall's body ]c, d] in steps of at most 3m, with
    m = rank/2.  X is constant on the body, so the first step of any crossing
    lands on the body's symbol, and one step of size d - c < 2m spans it:
    the first hole is ]a, a+1] for the first start a >= 0 in `starts` (a
    range of step 1) with Y(a+1) = X(d), entered at (c, a) and left at
    (d, a+1).  Returns that interval, or None.  A wall outside that
    contract (vertical, base-run, body inside X and constant,
    m <= size < 2m) raises `StructureError` naming the failing clause.
    """
    c, d = wall.body.left, wall.body.right
    if wall.orientation != "v":
        raise StructureError("hole search needs a vertical wall")
    if wall.kind != "base-run":
        raise StructureError(f"hole search needs a base-run wall, not {wall.kind!r}")
    if c < 0 or d > len(X):
        raise StructureError(f"wall body ]{c}, {d}] is not inside X (length {len(X)})")
    if not X.constant_on(c, d):
        raise StructureError(f"X is not constant on the wall body ]{c}, {d}]")
    m = Fraction(wall.rank) / 2
    if not m <= d - c < 2 * m:
        raise StructureError(f"wall size {d - c} outside [m, 2m) for m = {m}")
    # Y(a+1) is text[a]; str.find clips an end past len(Y).
    a = Y.text.find(X.text[d - 1], max(starts.start, 0), max(starts.stop, 0))
    if a < 0:
        return None
    return Interval(a, a + 1)
