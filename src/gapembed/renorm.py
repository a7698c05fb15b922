"""Structural scale-up operators: one hierarchy level to the next.

Exactly computable parts (compound walls, cleanness promotion, the finish
step, emerging-wall designation) are implemented as stated.  The
probability-conditioned designations (missing-hole traps, emerging barriers)
split into an exact structural event plus a Monte Carlo estimate of the
conditional probability, with Wilson confidence intervals; the exact
conditionals are not computable at realistic scales.

Trap rectangles are closed and written ((x0, y0), (x1, y1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Mapping, Optional, Sequence

from .engine import rect_reachable
from .errors import InputBoundsError, UnderpoweredError
from .rng import stream_bits
from .sequences import BinarySequence
from .stats import wilson_interval
from .walls import Interval, Point, WallValue, find_dominant_walls

Rect = tuple[Point, Point]

#: emerging event kinds in their designation processing order
EMERGING_PROCESS_ORDER = ("correlated-short", "missing-hole", "correlated-long")
#: pre-wall enumeration order inside each kind
PREWALL_ORDER = "left,size"

_DOMAIN_MISSING_HOLE = 0xA1
_DOMAIN_EMERGING = 0xA2


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


def promote_cleanness(
    point: int,
    direction: str,
    walls_of_level: Sequence[WallValue],
    phi,
    level_clean: bool,
) -> bool:
    """One-dimensional cleanness at the next level.

    A right endpoint stays clean iff it was clean and no wall in the scanned
    interval has its right end within phi/3 of the point; a left endpoint is
    the mirror image, measured to wall left ends.
    """
    if direction not in ("left", "right"):
        raise InputBoundsError("direction must be 'left' or 'right'")
    if not level_clean:
        return False
    margin = Fraction(phi) / 3
    for w in walls_of_level:
        dist = point - w.body.right if direction == "right" else w.body.left - point
        if 0 <= dist < margin:
            return False
    return True


@dataclass(frozen=True)
class LevelStructures:
    """Walls and traps of one level plus the structures formed during scale-up."""

    walls: tuple[WallValue, ...]
    traps: tuple[Rect, ...] = ()
    new_compound: tuple[CompoundWall, ...] = ()
    new_emerging: tuple[WallValue, ...] = ()


def finish_step(structures: LevelStructures, r_star, delta) -> LevelStructures:
    """Close out a scale-up round.

    Traps of the old level disappear.  Light walls (rank < r_star) are
    removed; when a removed light wall was dominant, every wall contained in
    it goes too, heavy or not.  Heavy survivors, compound walls, and emerging
    walls form the next level's wall set; the underlying graph is unchanged.
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
    new_walls += list(structures.new_emerging)
    new_walls.sort(key=lambda w: (w.body.left, w.body.size))
    return LevelStructures(walls=tuple(new_walls), traps=())


def emerging_span(kind: str, slb, delta, gamma):
    """Designated interval length for each emerging/correlated event kind."""
    slb = Fraction(slb)
    if kind == "correlated-short":
        return 29 * delta / slb
    if kind == "correlated-long":
        return 9 * gamma / slb
    if kind == "missing-hole":
        return gamma
    raise InputBoundsError(f"unknown event kind {kind!r}")


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


@dataclass(frozen=True)
class EmergingEstimate:
    """Best window estimate behind an emerging-barrier designation."""

    interval: Interval
    kind: str
    best_window: Optional[Interval]
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    windows_scanned: int
    flagged: bool
    window_order: str = field(default=PREWALL_ORDER)


def detect_emerging_barrier(
    x_seq: BinarySequence,
    interval: Interval,
    kind: str,
    event_fn: Callable[[BinarySequence, BinarySequence, Interval, int], bool],
    span: int,
    delta: int,
    w_bound: float,
    trials: int,
    seed: int = 0,
    y_length: Optional[int] = None,
) -> EmergingEstimate:
    """Estimate whether `interval` is an emerging barrier of the given kind.

    Scans closed sub-windows of length `span` starting within 2*delta of the
    left end and ending within 2*delta of the right end; for each, estimates
    the probability over fresh uniform Y that `event_fn(x, y, window, 1)`
    holds.  The designation takes the window with the largest point estimate
    and flags the barrier when that window's Wilson lower bound exceeds
    w_bound^2 (conservative direction: only confidently non-negligible events
    designate).
    """
    if trials < 100:
        raise UnderpoweredError(f"{trials} trials; need at least 100")
    u, v = interval.left, interval.right
    if y_length is None:
        y_length = 1 + 5 * delta
    lo = max(u + 1, v - 2 * delta + 1 - span)
    hi = min(u + 2 * delta, v - span)
    best = None
    scanned = 0
    for u_prime in range(lo, hi + 1):
        window = Interval(u_prime, u_prime + span, closed=True)
        scanned += 1
        successes = 0
        for t in range(trials):
            y = BinarySequence(
                stream_bits(seed, (t, _DOMAIN_EMERGING, u_prime), y_length), y_length
            )
            if event_fn(x_seq, y, window, 1):
                successes += 1
        p = successes / trials
        if best is None or p > best[0]:
            best = (p, window, successes)
    if best is None:
        return EmergingEstimate(
            interval, kind, None, 0.0, 0.0, 0.0, trials, 0, False
        )
    p, window, successes = best
    ci_lo, ci_hi = wilson_interval(successes, trials)
    return EmergingEstimate(
        interval=interval,
        kind=kind,
        best_window=window,
        p_hat=p,
        ci_low=ci_lo,
        ci_high=ci_hi,
        trials=trials,
        windows_scanned=scanned,
        flagged=ci_lo > w_bound**2,
    )


def designate_emerging_walls(
    prewalls_by_kind: Mapping[str, Sequence[WallValue]],
) -> list[WallValue]:
    """Designate emerging walls from pre-walls.

    Kinds are processed in EMERGING_PROCESS_ORDER; inside each kind pre-walls
    are taken by (left endpoint, size).  A pre-wall becomes a wall iff it is
    disjoint from every wall designated before it.
    """
    designated: list[WallValue] = []
    for kind in EMERGING_PROCESS_ORDER:
        for pw in sorted(
            prewalls_by_kind.get(kind, ()), key=lambda w: (w.body.left, w.body.size)
        ):
            if all(not pw.body.intersects(w.body) for w in designated):
                designated.append(pw)
    return designated
