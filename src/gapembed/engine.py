"""Reachability engine for bounded-gap embedding.

The grid digraph on Z+^2 has edges <i,j> -> <i+d, j+1> for 1 <= d <= step_max,
with edges into mismatched points (X(i) != Y(j)) deleted.  A length-L prefix of
Y embeds into X with gap bound m iff row L is reachable from the origin <0,0>
in the graph with step_max = m.

The per-row state is a bitmask of reachable x-coordinates; one row transition
is a window-OR (union of shifts by 1..step_max) intersected with the row's
match mask.  The window-OR is a doubling smear: about log2(step_max)
shift-ORs over the whole mask instead of one shift per allowed step.  One
generator, `_frontier_masks`, yields the rows of every single-pair DP from a
start row and a string of Y's symbols: a decision holds one row, and
`rect_reachable` runs it on a window of X and Y.  The witness trace keeps a
full row every ceil(sqrt(L)) rows (Hirschberg's checkpoints, CACM 1975) and
re-runs each stretch of rows between two of them once, on the band of X
that its predecessor queries can reach, so it holds about sqrt(L) full rows
and one band.  The module is pure Python: the sweep's lane kernel, which
runs this DP for many pairs at once in numpy, is
`gapembed.experiments.embeddable_lanes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional

from .errors import InputBoundsError, OracleSizeError
from .sequences import BinarySequence

def _checkpoint_spacing(L: int) -> int:
    """Rows between the full rows the witness trace keeps: ceil(sqrt(L))."""
    return isqrt(L - 1) + 1 if L else 1


def _window_or(mask: int, step: int) -> int:
    """Union of (mask << d) for d = 1..step; step 0 (an empty X) gives
    mask << 1, which the empty X's match masks clear."""
    # Doubling smear: cover offsets 0..step-1, then shift once.
    out = mask
    covered = 1
    while covered < step:
        take = min(covered, step - covered)
        out |= out << take
        covered += take
    return out << 1


@dataclass(frozen=True)
class ReachFrontier:
    """Reachable x-coordinates of one row, bit-packed in `mask`."""

    row: int
    mask: int

    def positions(self) -> list[int]:
        # One pass over the binary digits, least significant first.
        return [i for i, digit in enumerate(bin(self.mask)[:1:-1]) if digit == "1"]

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

    def to_json(self) -> dict:
        return {"m": self.gap_bound, "steps": list(self.steps)}


def _frontier_masks(
    X: BinarySequence, symbols: str, m: int, mask: int = 1
) -> Iterator[int]:
    """Yield the DP rows that follow row `mask`, one per symbol of `symbols`.

    The default start is the origin <0,0>, and `symbols` is then Y's prefix
    text.  The generator stops after the first empty row.  X's match masks
    have bits only at 1..len(X), so reachability past the end of X is false,
    not an error, and a gap longer than len(X) is no different from one of
    len(X).
    """
    step = min(m, len(X))
    ones, zeros = X.match_mask(1), X.match_mask(0)
    for symbol in symbols:
        mask = _window_or(mask, step) & (ones if symbol == "1" else zeros)
        yield mask
        if not mask:
            return


def _prefix_length(Y: BinarySequence, m: int, L: Optional[int]) -> int:
    """L, defaulting to len(Y), after checking 0 <= L <= len(Y) and m >= 1."""
    if L is None:
        L = len(Y)
    if L < 0 or L > len(Y):
        raise InputBoundsError(f"L={L} outside 0..{len(Y)}")
    if m < 1:
        raise InputBoundsError("m must be >= 1")
    return L


def embeddable_prefix(
    X: BinarySequence, Y: BinarySequence, m: int, L: Optional[int] = None
) -> tuple[bool, ReachFrontier]:
    """Decide whether the length-L prefix of Y is m-embeddable into X.

    Returns the decision together with the final row's frontier.  L defaults
    to len(Y); L = 0 is the empty embedding (always true, frontier {0}).
    """
    L = _prefix_length(Y, m, L)
    mask = 1
    for mask in _frontier_masks(X, Y.text[:L], m):
        pass
    return mask != 0, ReachFrontier(L, mask)


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
    final position, then the smallest valid predecessor at every row.  The
    forward pass keeps a full row every `_checkpoint_spacing(L)` rows; the
    trace re-runs each stretch between two of them once, on the band of X
    its queries can reach.  With `with_frontier`, return (row L's frontier,
    path) from the same DP, for a caller that reports both.
    """
    L = _prefix_length(Y, m, L)
    spacing = _checkpoint_spacing(L)
    checkpoints = [1]  # checkpoints[c] is row c * spacing
    final = 1
    for j, final in enumerate(_frontier_masks(X, Y.text[:L], m), 1):
        if j % spacing == 0:
            checkpoints.append(final)
    path = None
    if final:
        steps = [0] * L
        pos = (final & -final).bit_length() - 1
        s, band, base = L, [], 0  # band[r - s] is row r's bits from base up
        for j in range(L, 0, -1):
            steps[j - 1] = pos
            if j > 1:
                if j - 1 < s:
                    # The queries at row r in s..j-1 lie in [pos - m(j-r), pos),
                    # and position p of row r reads only the checkpoint's bits
                    # in [p - m(r-s), p - (r-s)]: every bit read is at or above
                    # pos - m(j-s).  The checkpoint has no bit below its lowest
                    # one, and positions at or above pos never feed lower ones,
                    # so the band X(base+1..pos) gives every queried bit exactly.
                    s = (j - 1) // spacing * spacing
                    start = checkpoints[s // spacing]
                    base = max(pos - m * (j - s), (start & -start).bit_length() - 1)
                    window = BinarySequence.from_string(X.text[base:pos])
                    first = (start >> base) & ((1 << (pos - base + 1)) - 1)
                    band = [first, *_frontier_masks(window, Y.text[s : j - 1], m, first)]
                # Row j-1 holds a predecessor in [pos - m, pos - 1]; its
                # lowest bit there is the smallest.
                lo = max(pos - m - base, 0)
                cands = (band[j - 1 - s] & ((1 << (pos - base)) - 1)) >> lo
                pos = base + lo + (cands & -cands).bit_length() - 1
        path = EmbeddingPath(tuple(steps), m)
    return (ReachFrontier(L, final), path) if with_frontier else path


def check_embedding(X: BinarySequence, Y: BinarySequence, path: EmbeddingPath) -> bool:
    """Validate gap constraints and symbol equalities of `path` against (X, Y)."""
    x_text, y_text = X.text, Y.text
    prev = 0
    for i, n in enumerate(path.steps, start=1):
        if not 1 <= n - prev <= path.gap_bound:
            return False
        if n > len(X) or i > len(Y) or x_text[n - 1] != y_text[i - 1]:
            return False
        prev = n
    return True


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
) -> bool:
    """Is v reachable from u?  The path's x-positions lie in ]u0, v0].

    Rows advance by one per edge, so this requires u1 <= v1; with u1 == v1 only
    v == u is reachable (the graph has no horizontal edges).  The decision DP
    runs on the window X(u0+1..v0), Y(u1+1..v1), cut at the end of X, and
    reads bit v0 - u0.  A negative coordinate or v1 > len(Y) raises
    InputBoundsError.
    """
    (u0, u1), (v0, v1) = u, v
    if min(u0, u1, v0, v1) < 0 or v1 > len(Y):
        raise InputBoundsError(f"corners {u}, {v} outside Z+ x 0..{len(Y)}")
    if (v0, v1) == (u0, u1):
        return True
    if v1 <= u1 or v0 <= u0:
        return False
    window_x = BinarySequence.from_string(X.text[u0:v0])
    window_y = BinarySequence.from_string(Y.text[u1:v1])
    _, frontier = embeddable_prefix(window_x, window_y, step_max)
    return bool(frontier.mask >> (v0 - u0) & 1)
