"""Independent reference checks of the CLI outputs the benchmark drives.

Nothing here imports gapembed.  Every expected answer is recomputed from the
raw inputs (the 0/1 arrays the benchmark wrote, or the Philox streams the
README documents) with numpy or plain Python, so a defect in the program
cannot pass by agreeing with itself.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.

Conventions shared with the program's documented formats: a sequence array
``bits`` holds X(1..n) at indices 0..n-1; a wall is a right-closed interval
]left, right] of constant symbols with m <= right - left < 2m.
"""

from __future__ import annotations

import json
import math

import numpy as np

RNG_ID = "numpy-philox4x64-10"
Z95 = 1.96


# ---------------------------------------------------------------- sweeps


def trial_bits(seed: int, t: int, m: int, L: int, nbits: int) -> np.ndarray:
    """The first `nbits` bits of trial t's stream, least significant first.

    The stream is Philox-4x64-10 keyed by (seed, 0) at counter (0, t, m, L);
    its raw 64-bit words, read little-endian, are the trial's bytes.
    """
    words = -(-nbits // 64)
    gen = np.random.Philox(key=[seed, 0], counter=[0, t, m, L])
    raw = gen.random_raw(words).astype("<u8").view(np.uint8)
    return np.unpackbits(raw, bitorder="little")[:nbits]


def embeddable_batch(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Per-trial decision of the bounded-gap DP, vectorised across trials.

    `x` is (T, n) and `y` is (T, L), both 0/1.  Row j reaches position i iff
    X(i) == Y(j) and some position in i-m..i-1 was reached in row j-1; row 0
    is the origin alone.
    """
    trials, n = x.shape
    reach = np.zeros((trials, n + 1), dtype=bool)
    reach[:, 0] = True
    pos = np.arange(1, n + 1)
    lo = np.maximum(pos - m, 0)
    csum = np.zeros((trials, n + 2), dtype=np.int32)
    for j in range(y.shape[1]):
        np.cumsum(reach, axis=1, out=csum[:, 1:])
        window = csum[:, pos] > csum[:, lo]  # any reach in i-m..i-1
        reach = np.zeros_like(reach)
        reach[:, 1:] = window & (x == y[:, j : j + 1])
    return reach.any(axis=1)


def sweep_successes(seed: int, m: int, L: int, trials: int) -> int:
    """Successes of one `simulate` cell with the default x_length = m*L."""
    n = m * L
    bits = np.stack([trial_bits(seed, t, m, L, n + L) for t in range(trials)])
    return int(embeddable_batch(bits[:, :n], bits[:, n:], m).sum())


def wilson(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval, clamped to [0, 1] and exact at 0 and 1."""
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def check_sweep_csv(
    text: str, seed: int, trials: int, expected: dict[tuple[int, int], int]
) -> list[str]:
    """`simulate` CSV: one row per (m, L) cell in order, with exact counts."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# gapembed ") or RNG_ID not in lines[0]:
        return ["missing or malformed metadata line"]
    if lines[1] != "m,L,trials,successes,p_hat,ci_low,ci_high,rng_id,master_seed":
        return [f"unexpected header {lines[1]!r}"]
    rows = lines[2:]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} cells"]
    problems = []
    for line, ((m, L), succ) in zip(rows, expected.items()):
        f = line.split(",")
        if len(f) != 9:
            problems.append(f"malformed row {line!r}")
            continue
        lo, hi = wilson(succ, trials)
        try:
            ok = (
                (int(f[0]), int(f[1]), int(f[2]), int(f[3])) == (m, L, trials, succ)
                and float(f[4]) == succ / trials
                and abs(float(f[5]) - lo) <= 1e-12
                and abs(float(f[6]) - hi) <= 1e-12
                and f[7] == RNG_ID
                and int(f[8]) == seed
            )
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"cell m={m} L={L}: got {line!r}, expected {succ} successes")
    return problems


# ---------------------------------------------------------------- embed


def _mask(bits: np.ndarray) -> int:
    """Python int with bit i set iff bits[i-1] == 1 (positions 1..n)."""
    packed = np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
    return int.from_bytes(packed, "little") << 1


def _symbol_masks(x: np.ndarray) -> tuple[int, int]:
    """Masks of the positions holding 1 and holding 0."""
    ones = _mask(x)
    return ones, ((1 << (len(x) + 1)) - 2) ^ ones


def _next_row(reach: int, symbol: int, m: int, ones: int, zeros: int) -> int:
    """Row j+1 of the DP from row j: positions one to m past a reached one
    that hold `symbol`."""
    if not reach:
        return 0
    window, width = reach, 1  # window covers shifts 0..width-1
    while width < m:
        step = min(width, m - width)
        window |= window << step
        width += step
    return (window << 1) & (ones if symbol else zeros)


def final_frontier(x: np.ndarray, y: np.ndarray, m: int, L: int) -> np.ndarray:
    """Reachable positions of row L, ascending, by a big-int bitset DP."""
    ones, zeros = _symbol_masks(x)
    reach = 1
    for j in range(L):
        reach = _next_row(reach, y[j], m, ones, zeros)
    raw = np.frombuffer(reach.to_bytes((len(x) + 8) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def witness_trace(x: np.ndarray, y: np.ndarray, m: int, L: int, every: int = 256) -> list[int] | None:
    """The witness `embed --witness` documents, or None if row L is empty:
    the backward trace from row L that takes the smallest final position,
    then the smallest reached predecessor (within m) at every row.

    The row masks are kept only every `every` rows; each block of rows is
    recomputed from its checkpoint when the trace reaches it, so memory stays
    at one block of masks however long Y is."""
    if L == 0:
        return []
    ones, zeros = _symbol_masks(x)
    saved = {0: 1}
    reach = 1
    for j in range(1, L + 1):
        reach = _next_row(reach, y[j - 1], m, ones, zeros)
        if j % every == 0:
            saved[j] = reach
    if not reach:
        return None
    pos = (reach & -reach).bit_length() - 1
    steps = [0] * L
    for j0 in range((L - 1) // every * every, -1, -every):
        rows = [saved[j0]]  # rows[k] is row j0 + k
        for j in range(j0 + 1, min(j0 + every, L)):
            rows.append(_next_row(rows[-1], y[j - 1], m, ones, zeros))
        for j in range(min(j0 + every, L), j0, -1):
            steps[j - 1] = pos
            lo = max(pos - m, 0)
            window = (rows[j - 1 - j0] >> lo) & ((1 << (pos - lo)) - 1)
            pos = lo + (window & -window).bit_length() - 1
    return steps


def check_embed_text(text: str, rc, embeddable: bool) -> list[str]:
    """Plain `embed`: the decision line and exit code 0/1."""
    lines = text.splitlines()
    want = "embeddable" if embeddable else "not embeddable"
    problems = []
    if len(lines) != 2 or not lines[0].startswith("# gapembed ") or lines[1] != want:
        problems.append(f"expected decision {want!r}, got {lines[1:]!r}")
    if rc != (0 if embeddable else 1):
        problems.append(f"exit code {rc} for {want}")
    return problems


def check_witness(
    steps: list[int], x: np.ndarray, y: np.ndarray, m: int, L: int
) -> list[str]:
    """Witness path n_1..n_L: gaps in 1..m and X(n_i) == Y(i)."""
    s = np.asarray(steps, dtype=np.int64)
    if len(s) != L:
        return [f"witness has {len(s)} steps, expected {L}"]
    if L == 0:
        return []
    gaps = np.diff(np.concatenate(([0], s)))
    if gaps.min() < 1 or gaps.max() > m:
        return [f"witness gap outside 1..{m}"]
    if s[-1] > len(x):
        return ["witness runs past the end of X"]
    if not np.array_equal(x[s - 1], y[:L]):
        return ["witness visits a mismatched symbol"]
    return []


def check_embed_json(
    text: str, rc, x: np.ndarray, y: np.ndarray, m: int, frontier: np.ndarray,
    witness: list[int] | None,
) -> list[str]:
    """`embed --witness --format json`: decision, frontier and witness; the
    witness must be valid and equal the documented trace `witness`."""
    L = len(y)
    embeddable = len(frontier) > 0
    try:
        doc = json.loads(text)
        positions = doc["frontier"]["positions"]
        ok = (
            doc["embeddable"] is embeddable
            and doc["m"] == m
            and doc["L"] == L
            and doc["frontier"]["row"] == L
        )
    except (ValueError, KeyError, TypeError):
        return ["malformed JSON document"]
    problems = [] if ok else ["decision or header fields wrong"]
    pos = np.asarray(positions, dtype=np.int64)
    if len(pos) > 1 and not (np.diff(pos) > 0).all():
        problems.append("frontier not strictly increasing")
    if not np.array_equal(pos, frontier):
        problems.append("frontier differs from the reference DP")
    path = doc.get("path")
    if embeddable:
        if not isinstance(path, dict) or path.get("m") != m:
            return problems + ["missing witness path"]
        problems += check_witness(path["steps"], x, y, m, L)
        if path["steps"] != witness:
            problems.append("witness differs from the documented backward trace")
    elif path is not None:
        problems.append("witness given for a non-embeddable instance")
    if rc != (0 if embeddable else 1):
        problems.append(f"exit code {rc}")
    return problems


# ---------------------------------------------------------------- analyze


def wall_bodies(bits: np.ndarray, m: int) -> list[tuple[int, int]]:
    """Every wall ]left, right] of `bits`, sorted by (left, size): each
    maximal constant run holds all its sub-intervals of size m..2m-1."""
    edges = np.flatnonzero(np.diff(bits.astype(np.int8))) + 1
    bounds = np.concatenate(([0], edges, [len(bits)])).tolist() if len(bits) else [0]
    bodies = []
    for start, end in zip(bounds, bounds[1:]):
        for size in range(m, min(2 * m - 1, end - start) + 1):
            bodies += [(i, i + size) for i in range(start, end - size + 1)]
    bodies.sort(key=lambda b: (b[0], b[1] - b[0]))
    return bodies


def check_walls(records: list[dict], bits: np.ndarray, m: int, orientation: str) -> list[str]:
    """The wall records are exactly the walls of `bits`, in order."""
    want = [
        {"orientation": orientation, "left": a, "right": b, "rank": 2 * m, "kind": "base-run"}
        for a, b in wall_bodies(bits, m)
    ]
    if records == want:
        return []
    return [f"{len(records)} {orientation}-wall records differ from the {len(want)} walls"]


def rect_crossable(x, y, u: tuple[int, int], v: tuple[int, int], step_max: int, x_lo: int, x_hi: int) -> bool:
    """Is grid point v reachable from u, one row per edge, x steps in
    1..step_max, landing only on matching symbols inside [x_lo, x_hi]?"""
    (u0, u1), (v0, v1) = u, v
    reach = {u0}
    for row in range(u1 + 1, v1 + 1):
        sym = y[row - 1]
        reach = {
            p + d
            for p in reach
            for d in range(1, step_max + 1)
            if x_lo <= p + d <= min(x_hi, len(x)) and x[p + d - 1] == sym
        }
        if not reach:
            return False
    return v0 in reach


def expected_holes(x: np.ndarray, y: np.ndarray, m: int) -> list[dict]:
    """The hole records `analyze --holes` documents: for each X wall
    ]l, r] in order, its first hole ]a, a+s] (smallest a in 0..|Y|-1, then
    smallest s <= |body| * 2m) such that (r, a+s) is reachable from (l, a)
    with steps up to 3m inside [l, r]; walls without a hole give no record.

    The first step of a crossing lands on the wall, whose symbol is X(r),
    so only starts a with Y(a+1) = X(r) are searched."""
    starts = {c: np.flatnonzero(y == c).tolist() for c in (0, 1)}
    records = []
    for l, r in wall_bodies(x, m):
        hole = next(
            (
                (a, a + s)
                for a in starts[int(x[r - 1])]
                for s in range(1, min((r - l) * 2 * m, len(y) - a) + 1)
                if rect_crossable(x, y, (l, a), (r, a + s), 3 * m, l, r)
            ),
            None,
        )
        if hole is not None:
            records.append(
                {"kind": "hole", "orientation": "h", "left": hole[0], "right": hole[1],
                 "through_left": l, "through_right": r}
            )
    return records


def expected_spans(bits: np.ndarray, m: int) -> list[dict]:
    """The span records `analyze --span` documents with the default delta.

    Walls (sorted by left end) are clustered, a new cluster starting where
    the external gap to the cluster's right end is at least
    delta = lam^(3m/10) = 2^(3m/20).  Each cluster ]A, B] is covered by the
    size-m wall at A, then repeatedly the leftmost size-m wall at t with
    t >= the previous wall's right end and t <= B - 2m, then the size-m wall
    ending at B; a cluster shorter than 2m is one run and is its own cover.
    At level 1 every cluster starts and ends with a size-m wall, so no
    span-error record is expected."""
    delta = 2.0 ** (3 * m / 20)
    bodies = wall_bodies(bits, m)
    clusters = []
    for a, b in bodies:
        if clusters and a - clusters[-1][1] < delta:
            clusters[-1][1] = max(clusters[-1][1], b)
        else:
            clusters.append([a, b])
    size_m = {a for a, b in bodies if b - a == m}
    records = []
    for A, B in clusters:
        if B - A < 2 * m:
            cover = [[A, B]]
        else:
            cover = [[A, A + m]]
            t = A + m
            while t <= B - 2 * m:
                if t in size_m:
                    cover.append([t, t + m])
                    t += m
                else:
                    t += 1
            cover.append([B - m, B])
        records.append({"kind": "span", "left": A, "right": B, "walls": cover})
    return records


def check_analyze(text: str, rc, x, m: int, y=None, holes: bool = False, span: bool = False) -> list[str]:
    """`analyze`: meta line, X walls, Y walls, holes, spans, in that order."""
    try:
        docs = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        return ["output line is not JSON"]
    if rc != 0:
        return [f"exit code {rc}"]
    if not docs or "meta" not in docs[0]:
        return ["missing meta line"]
    groups: dict[str, list[dict]] = {"v": [], "h": [], "hole": [], "span": []}
    order = list(groups)
    stage = 0
    for d in docs[1:]:
        key = d.get("orientation") if "rank" in d else d.get("kind")
        if key not in groups:
            return [f"unexpected record {d}"]
        if order.index(key) < stage:
            return [f"record kinds out of order at {d}"]
        stage = order.index(key)
        groups[key].append(d)
    problems = check_walls(groups["v"], x, m, "v")
    if y is not None:
        problems += check_walls(groups["h"], y, m, "h")
    elif groups["h"]:
        problems.append("Y walls without --y")
    if groups["hole"] != (expected_holes(x, y, m) if holes else []):
        problems.append(f"{len(groups['hole'])} hole records differ from the expected holes")
    if groups["span"] != (expected_spans(x, m) if span else []):
        problems.append(f"{len(groups['span'])} span records differ from the expected spans")
    return problems
