"""Reachability engine for bounded-gap embedding.

The grid digraph on Z+^2 has edges <i,j> -> <i+d, j+1> for 1 <= d <= step_max,
with edges into mismatched points (X(i) != Y(j)) deleted.  A length-L prefix of
Y embeds into X with gap bound m iff row L is reachable from the origin <0,0>
in the graph with step_max = m.

The per-row state is a bitmask of reachable x-coordinates; one row transition
is a window-OR (union of shifts by 1..step_max) intersected with the row's
match mask.  The window-OR is a doubling smear: about log2(step_max)
shift-ORs over the whole mask instead of one shift per allowed step.

`embeddable_lanes` runs the same DP for many independent pairs at once, one
pair per bit lane (shift-and matching, Baeza-Yates & Gonnet 1992).  Arrays
are uint64 with one row per position and one column per word of 64 lanes:
bit k of word w in row i is symbol i + 1 (or, for the reach state,
position i) of the pair in lane 64w + k.  The smear then runs along the
position axis, and the match of row j is XNOR(X lanes, Y(j)'s lane word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CompositionError, InputBoundsError, OracleSizeError
from .sequences import BinarySequence


def _window_or(mask: int, step: int) -> int:
    """Union of (mask << d) for d = 1..step."""
    if mask == 0 or step <= 0:
        return 0
    # Doubling smear: cover offsets 0..step-1, then shift once.
    out = mask
    covered = 1
    while covered < step:
        take = min(covered, step - covered)
        out |= out << take
        covered += take
    return out << 1


def _range_mask(lo: int, hi: int) -> int:
    """Bitmask with bits lo..hi set (empty when hi < lo)."""
    if hi < lo:
        return 0
    return (1 << (hi + 1)) - (1 << lo)


@dataclass(frozen=True)
class ReachFrontier:
    """Reachable x-coordinates of one row, bit-packed in `mask`."""

    row: int
    mask: int

    def positions(self) -> list[int]:
        # One pass over the binary digits, least significant first.
        return [i for i, digit in enumerate(bin(self.mask)[:1:-1]) if digit == "1"]

    def contains(self, position: int) -> bool:
        return position >= 0 and bool(self.mask >> position & 1)

    def is_empty(self) -> bool:
        return self.mask == 0

    def to_json(self) -> dict:
        return {"row": self.row, "positions": self.positions()}


@dataclass(frozen=True)
class EmbeddingPath:
    """Candidate index sequence (n_1, ..., n_L) with claimed gap bound.

    The convention n_0 = 0 is implicit.  Construction enforces only that the
    steps are strictly increasing positive integers; whether the gaps respect
    the bound and the symbols match a sequence pair is what check_embedding
    verifies.
    """

    steps: tuple[int, ...]
    gap_bound: int

    def __post_init__(self):
        if self.gap_bound < 1:
            raise InputBoundsError("gap_bound must be positive")
        prev = 0
        for n in self.steps:
            if n <= prev:
                raise InputBoundsError(f"steps must be increasing, got {n} after {prev}")
            prev = n

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {"m": self.gap_bound, "steps": list(self.steps)}


def frontier_step(prev: ReachFrontier, match_mask: int, step_max: int) -> ReachFrontier:
    """Advance one row: positions i in match_mask with a predecessor within step_max.

    `match_mask` is a bitmask over positions of the new row (bit i set iff
    X(i) equals the row symbol).  Empty inputs yield an empty frontier.
    """
    if step_max < 1:
        raise InputBoundsError("step_max must be >= 1")
    return ReachFrontier(prev.row + 1, _window_or(prev.mask, step_max) & match_mask)


def _frontier_masks(
    X: BinarySequence,
    Y: BinarySequence,
    m: int,
    L: int,
    x_lo: int = 0,
    x_hi: Optional[int] = None,
    start: int = 0,
    y_offset: int = 0,
) -> list[int]:
    """Row masks 0..L for the DP started at x-position `start`.

    Rows j = 1..L read symbol Y(y_offset + j); positions are clipped to
    [x_lo, x_hi] (and never exceed len(X): reachability past the end of X is
    treated as false, not as an error).
    """
    if x_hi is None:
        x_hi = len(X)
    x_hi = min(x_hi, len(X))
    clip = _range_mask(max(x_lo, 0), x_hi)
    masks = [1 << start]
    mask = masks[0]
    for j in range(1, L + 1):
        if mask:
            mask = _window_or(mask, m) & X.match_mask(Y.symbol(y_offset + j)) & clip
        masks.append(mask)
    return masks


def embeddable_prefix(
    X: BinarySequence, Y: BinarySequence, m: int, L: Optional[int] = None
) -> tuple[bool, ReachFrontier]:
    """Decide whether the length-L prefix of Y is m-embeddable into X.

    Returns the decision together with the final row's frontier.  L defaults
    to len(Y); L = 0 is the empty embedding (always true, frontier {0}).
    """
    if L is None:
        L = len(Y)
    if L < 0 or L > len(Y):
        raise InputBoundsError(f"L={L} outside 0..{len(Y)}")
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    masks = _frontier_masks(X, Y, m, L)
    return masks[L] != 0, ReachFrontier(L, masks[L])


def embeddable_lanes(
    x_lanes: np.ndarray, y_lanes: np.ndarray, m: int, lanes: int
) -> int:
    """Decide m-embeddability of the whole Y for every lane at once.

    `x_lanes` is (len(X), W) and `y_lanes` is (L, W), both uint64 in the lane
    layout of the module docstring.  Lanes `lanes` and up of the last word
    are padding and never survive.  Returns the surviving lanes as an int:
    bit t is set iff the Y of lane t embeds into its X.
    """
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    n, words = x_lanes.shape
    live = ((1 << lanes) - 1).to_bytes(8 * words, "little")
    reach = np.zeros((n + 1, words), dtype=np.uint64)
    reach[0] = np.frombuffer(live, dtype="<u8")
    smear = np.empty_like(reach)
    match = np.empty_like(x_lanes)
    for y in y_lanes:
        np.copyto(smear, reach)
        covered = 1
        while covered < m:
            take = min(covered, m - covered)
            smear[take:] |= smear[:-take]
            covered += take
        np.bitwise_xor(x_lanes, ~y, out=match)
        np.bitwise_and(smear[:-1], match, out=reach[1:])
        reach[0] = 0
        if not reach.any():
            return 0
    survivors = np.bitwise_or.reduce(reach, axis=0)
    return int.from_bytes(survivors.astype("<u8").tobytes(), "little")


def extract_embedding(
    X: BinarySequence,
    Y: BinarySequence,
    m: int,
    L: Optional[int] = None,
    *,
    with_frontier: bool = False,
) -> Optional[EmbeddingPath] | tuple[ReachFrontier, Optional[EmbeddingPath]]:
    """Return a witnessing path when one exists, else None.

    Deterministic tie-break: the backward trace from row L picks the smallest
    final position, then the smallest valid predecessor at every row.  With
    `with_frontier`, return (row L's frontier, path) from the same DP, for a
    caller that reports both.
    """
    if L is None:
        L = len(Y)
    if L < 0 or L > len(Y):
        raise InputBoundsError(f"L={L} outside 0..{len(Y)}")
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    masks = _frontier_masks(X, Y, m, L)
    path = None
    if masks[L]:
        steps = [0] * L
        pos = (masks[L] & -masks[L]).bit_length() - 1
        for j in range(L, 0, -1):
            steps[j - 1] = pos
            if j > 1:
                cands = masks[j - 1] & _range_mask(max(pos - m, 0), pos - 1)
                pos = (cands & -cands).bit_length() - 1
        path = EmbeddingPath(tuple(steps), m)
    return (ReachFrontier(L, masks[L]), path) if with_frontier else path


def check_embedding(X: BinarySequence, Y: BinarySequence, path: EmbeddingPath) -> bool:
    """Validate gap constraints and symbol equalities of `path` against (X, Y)."""
    prev = 0
    for i, n in enumerate(path.steps, start=1):
        if not 1 <= n - prev <= path.gap_bound:
            return False
        if n > len(X) or i > len(Y) or X.symbol(n) != Y.symbol(i):
            return False
        prev = n
    return True


def compose_embeddings(p1: EmbeddingPath, p2: EmbeddingPath) -> EmbeddingPath:
    """Compose an embedding of Y into Z (p1) with one of Z into X (p2).

    Step i of the result is p2[p1[i]]; the gap bound multiplies, giving m^2
    when both inputs share bound m.
    """
    for s in p1.steps:
        if s > len(p2.steps):
            raise CompositionError(
                f"inner step {s} exceeds outer path length {len(p2.steps)}"
            )
    steps = tuple(p2.steps[s - 1] for s in p1.steps)
    return EmbeddingPath(steps, p1.gap_bound * p2.gap_bound)


def brute_force_reachable(
    X: BinarySequence, Y: BinarySequence, m: int, L: int
) -> list[set[int]]:
    """Exact per-row reachable sets via exhaustive DFS over all gap choices.

    Test oracle only: deliberately independent of the frontier DP and
    exponential in L, guarded by len(X) <= 20 and L <= 10.
    """
    if len(X) > 20 or L > 10:
        raise OracleSizeError(f"oracle guard: len(X)={len(X)} or L={L} too large")
    if L > len(Y):
        raise InputBoundsError(f"L={L} exceeds len(Y)={len(Y)}")
    reach = [set() for _ in range(L + 1)]

    def visit(pos: int, row: int) -> None:
        reach[row].add(pos)
        if row == L:
            return
        sym = Y.symbol(row + 1)
        for d in range(1, m + 1):
            nxt = pos + d
            if nxt <= len(X) and X.symbol(nxt) == sym:
                visit(nxt, row + 1)

    visit(0, 0)
    return reach


def rect_reachable(
    X: BinarySequence,
    Y: BinarySequence,
    u: tuple[int, int],
    v: tuple[int, int],
    step_max: int,
    x_lo: Optional[int] = None,
    x_hi: Optional[int] = None,
) -> bool:
    """Is v reachable from u, with intermediate x-positions clipped to [x_lo, x_hi]?

    Rows advance by one per edge, so this requires u1 <= v1; with u1 == v1 only
    v == u is reachable (the graph has no horizontal edges).
    """
    (u0, u1), (v0, v1) = u, v
    if v1 < u1 or (v1 == u1 and v0 != u0):
        return False
    if (v0, v1) == (u0, u1):
        return True
    masks = _frontier_masks(
        X,
        Y,
        step_max,
        v1 - u1,
        x_lo=u0 + 1 if x_lo is None else x_lo,
        x_hi=v0 if x_hi is None else x_hi,
        start=u0,
        y_offset=u1,
    )
    return bool(masks[-1] >> v0 & 1)
