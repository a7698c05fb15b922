"""Structural scale-up operators: one hierarchy level to the next.

Exactly computable parts (compound walls, the finish step) are implemented
as stated.  The probability-conditioned missing-hole trap designation splits
into an exact structural event plus a Monte Carlo estimate of the
conditional probability, with a Wilson confidence interval; the exact
conditional is not computable at realistic scales.

Trap rectangles are closed and written ((x0, y0), (x1, y1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Callable, Optional, Sequence

from .engine import rect_reachable
from .errors import InputBoundsError, UnderpoweredError
from .rng import stream_bits
from .sequences import BinarySequence
from .stats import wilson_interval
from .walls import Interval, Point, WallValue, find_dominant_walls

Rect = tuple[Point, Point]

_DOMAIN_MISSING_HOLE = 0xA1


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
    is_wall: Optional[bool] = None

    @property
    def body(self) -> Interval:
        return Interval(self.first.body.left, self.second.body.right)

    def as_wall_value(self) -> WallValue:
        return WallValue(self.body, self.rank, self.first.orientation, "compound")


def _compound(first: WallValue, second: WallValue, d: int, hop_fn) -> CompoundWall:
    i = d if d in (0, 1) else log_lam_floor(d)
    is_wall = None
    if hop_fn is not None:
        is_wall = bool(hop_fn(Interval(first.body.right, second.body.left)))
    return CompoundWall(
        first, second, d, (first.rank, second.rank, i), first.rank + second.rank - i,
        is_wall,
    )


def compound_walls(
    walls: Sequence[WallValue],
    phi,
    r_star,
    hop_fn: Optional[Callable[[Interval], bool]] = None,
) -> list[CompoundWall]:
    """All compound walls over ordered pairs at gap d <= phi.

    First pass: the left member is light (rank < r_star), the right member
    arbitrary.  Second pass: the right member is light and the left member is
    anything built so far, including first-pass compounds.  Ranks follow
    r1 + r2 - i with i = d for d in {0, 1} and floor(log_lam d) otherwise.

    `hop_fn`, when given, decides whether the gap interval is a hop, which
    separates compound walls from mere compound barriers.
    """
    out: list[CompoundWall] = []
    seen = set()

    def emit(first: WallValue, second: WallValue) -> Optional[CompoundWall]:
        d = second.body.left - first.body.right
        if d < 0 or d > phi:
            return None
        cw = _compound(first, second, d, hop_fn)
        key = (
            cw.body.left,
            cw.body.right,
            cw.first.body.right,
            cw.second.body.left,
            cw.rank,
        )
        if key in seen:
            return None
        seen.add(key)
        out.append(cw)
        return cw

    light = [w for w in walls if w.rank < r_star]
    for w1 in light:
        for w2 in walls:
            emit(w1, w2)
    first_pass_walls = [cw.as_wall_value() for cw in list(out)]
    for w1 in list(walls) + first_pass_walls:
        for w2 in light:
            emit(w1, w2)
    return out


@dataclass(frozen=True)
class LevelStructures:
    """Walls and traps of one level plus the structures formed during scale-up."""

    walls: tuple[WallValue, ...]
    traps: tuple[Rect, ...] = ()
    new_compound: tuple[CompoundWall, ...] = ()


def finish_step(structures: LevelStructures, r_star, delta) -> LevelStructures:
    """Close out a scale-up round.

    Traps of the old level disappear.  Light walls (rank < r_star) are
    removed; when a removed light wall was dominant, every wall contained in
    it goes too, heavy or not.  Heavy survivors and compound walls form the
    next level's wall set; the underlying graph is unchanged.
    """
    walls = structures.walls
    light = [w for w in walls if w.rank < r_star]
    dominant = set(
        id(w) for w in find_dominant_walls(walls, delta) if w.rank < r_star
    )
    shadows = [w.body for w in light if id(w) in dominant]
    survivors = []
    for w in walls:
        if w.rank < r_star:
            continue
        if any(body.contains_interval(w.body) for body in shadows):
            continue
        survivors.append(w)
    new_walls = survivors + [
        cw.as_wall_value() for cw in structures.new_compound if cw.is_wall is not False
    ]
    new_walls.sort(key=lambda w: (w.body.left, w.body.size))
    return LevelStructures(walls=tuple(new_walls), traps=())


def detect_missing_hole_event(
    X: BinarySequence,
    Y: BinarySequence,
    region: Interval,
    b: int,
    delta: int,
    m: int,
    r_star=None,
) -> bool:
    """Decide the structural missing-hole event exactly at level 1 (see the
    estimator for the probability-conditioned trap designation).

    Holds iff some light potential wall of Y with body ]b+delta, b'] inside
    the window [b, b+3*delta] admits no good hole ]a1, a2] whose
    delta-padded extension stays inside `region`.  Goodness at this level is
    the entry-corner symbol match X(a1) = Y(b+delta).
    """
    if delta < 1:
        raise InputBoundsError("delta must be >= 1")
    v = b + delta
    light_rank_ok = r_star is None or 2 * m < r_star
    for l in range(m, 2 * m):
        w_end = v + l
        if w_end > b + 3 * delta or w_end > len(Y):
            break
        if not Y.constant_on(v, w_end):
            continue
        if not light_rank_ok:
            continue
        if not _good_hole_exists(X, Y, region, v, w_end, delta, m):
            return True
    return False


def _good_hole_exists(
    X: BinarySequence,
    Y: BinarySequence,
    region: Interval,
    v: int,
    w_end: int,
    delta: int,
    m: int,
) -> bool:
    max_size = 2 * m * (w_end - v)
    lo = max(region.left + delta, 0)
    hi = region.right - delta
    for a1 in range(lo, hi):
        if a1 > len(X):
            break
        if a1 >= 1 and X.symbol(a1) != Y.symbol(v):
            continue  # entry corner not clean
        for s in range(1, min(max_size, hi - a1) + 1):
            a2 = a1 + s
            if a2 > len(X):
                break
            if rect_reachable(X, Y, (a1, v), (a2, w_end), 3 * m):
                return True
    return False


@dataclass(frozen=True)
class TrapEstimate:
    """Monte Carlo estimate of a conditional event probability."""

    event_holds: bool
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    trap_estimated: bool


def estimate_missing_hole_trap(
    X: BinarySequence,
    Y: BinarySequence,
    region: Interval,
    b: int,
    delta: int,
    m: int,
    w_bound: float,
    trials: int,
    seed: int = 0,
    r_star=None,
) -> TrapEstimate:
    """Estimate the conditional probability of the missing-hole event by
    resampling the window [b, b+3*delta] of Y uniformly.

    Flags a trap (estimated) when the event holds for the actual Y and the
    Wilson upper bound of the estimate is <= w_bound^2.
    """
    if trials < 100:
        raise UnderpoweredError(f"{trials} trials; need at least 100")
    event_now = detect_missing_hole_event(X, Y, region, b, delta, m, r_star)
    positions = range(max(1, b), min(len(Y), b + 3 * delta) + 1)
    successes = 0
    for t in range(trials):
        resampled = _splice(Y, positions, stream_bits(seed, (t, _DOMAIN_MISSING_HOLE, 0), len(positions)))
        if detect_missing_hole_event(X, resampled, region, b, delta, m, r_star):
            successes += 1
    lo, hi = wilson_interval(successes, trials)
    return TrapEstimate(
        event_holds=event_now,
        p_hat=successes / trials,
        ci_low=lo,
        ci_high=hi,
        trials=trials,
        trap_estimated=event_now and hi <= w_bound**2,
    )


def _splice(Y: BinarySequence, positions: range, bits: int) -> BinarySequence:
    out = Y.bits
    for idx, pos in enumerate(positions):
        mask = 1 << (pos - 1)
        if bits >> idx & 1:
            out |= mask
        else:
            out &= ~mask
    return BinarySequence(out, len(Y))
