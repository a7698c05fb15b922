"""Monte Carlo harness for embedding probability curves and frequency checks,
with the Wilson interval of each estimate (`wilson_interval`).

Reproducibility contract: every trial's randomness is a pure function of
(master_seed, m, L, trial index) through a counter-based generator (see
`gapembed.rng`), so results do not depend on execution order, chunking, or
worker count.  Aggregation is a commutative sum of per-trial indicators.

A sweep decides its trials in chunks of bit lanes.  `embeddable_lanes`
runs the DP of `gapembed.engine` for many independent pairs at once, one
pair per bit lane (shift-and matching, Baeza-Yates & Gonnet 1992).  Arrays
are uint64 with one row per position and one column per word of 64 lanes:
bit k of word w in row i is symbol i + 1 (or, for the reach state,
position i) of the pair in lane 64w + k.  The smear then runs along the
position axis, and the match of row j is XNOR(X lanes, Y(j)'s lane word).
Trial start + 64w + k of a chunk is lane k of word w, and bit i of its
stream (X(i + 1) for i < x_length, then Y) is row i of that lane.  A
chunk's streams are drawn in one vectorised pass
(`gapembed.rng.stream_block`) and turned into lanes by a 64x64 bit
transpose of masked swaps on whole uint64 arrays; a chunk holds as many
trials as keep its Philox block within `_CHUNK_BYTES`.
`TrialPlan.trial_sequences` gives the same trial as a `BinarySequence` pair.
The frequency checks draw one `_CHUNK_BYTES` Philox block at a time.
Each input is checked once: `TrialPlan` refuses a plan out of range or
with zero trials, and `_check_samples` a sample count.
`sweep` is the one entry to a process pool: with `jobs > 1` it spreads every
(cell, trial range) over one pool.  This module and `gapembed.rng` are the
package's only numpy users; `gapembed.cli` imports this one inside
`simulate` and `selftest` alone, so every other subcommand starts without
numpy.
"""

from __future__ import annotations

import io
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from . import RNG_ID, __version__
from .engine import embeddable_prefix  # looked up by name in bench/tracer.py
from .errors import InputBoundsError, UnderpoweredError
from .rng import stream_bits, stream_block
from .sequences import BinarySequence
from .walls import Interval, WallValue, find_fitting_hole

# A lane chunk holds as many words of 64 trials as keep the Philox block it
# draws (4 words per 256 stream bits, rounded up) within _CHUNK_BYTES; its
# lane array is never larger.
_CHUNK_BYTES = 1 << 20

# The longest sequence or sample count a run may ask for, checked before
# drawing: a lane row takes 8 bytes per stream bit, and numpy cannot index
# an array of sys.maxsize bytes.
_MAX_LENGTH = sys.maxsize // 16

#: two-sided 95% normal quantile, pinned for byte-stable reports
Z95 = 1.96

# The six stages of a 64x64 bit transpose: (j, mask of the low j bits of
# every 2j-bit group).  Hacker's Delight, 2nd ed., section 7-3.
_TRANSPOSE_STAGES = tuple(
    (j, np.uint64(mask))
    for j, mask in (
        (32, 0x00000000FFFFFFFF),
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
)


@dataclass(frozen=True)
class TrialPlan:
    """A reproducible batch of embedding trials.

    x_length defaults to m*L so the search is length-limited rather than
    material-limited.
    """

    master_seed: int
    trials: int
    m: int
    L: int
    x_length: Optional[int] = None

    def __post_init__(self):
        if self.trials < 0 or self.m < 1 or self.L < 0:
            raise InputBoundsError("plan fields out of range")
        if self.x_length is not None and self.x_length < 0:
            raise InputBoundsError("x_length must be nonnegative")
        if self.x_length is None:
            object.__setattr__(self, "x_length", self.m * self.L)
        if self.x_length + self.L > _MAX_LENGTH:
            raise InputBoundsError(
                f"x_length + L = {self.x_length + self.L} exceeds {_MAX_LENGTH}"
            )
        if self.trials == 0:
            raise UnderpoweredError("plan has zero trials")

    def trial_sequences(self, t: int) -> tuple[BinarySequence, BinarySequence]:
        """The (X, Y) pair of trial t; pure in (master_seed, m, L, t)."""
        nbits = self.x_length + self.L
        bits = stream_bits(self.master_seed, (t, self.m, self.L), nbits)
        X = BinarySequence(bits & ((1 << self.x_length) - 1), self.x_length)
        Y = BinarySequence(bits >> self.x_length, self.L)
        return X, Y


@dataclass(frozen=True)
class EstimateRow:
    """One estimated embedding probability with a 95% Wilson interval."""

    m: int
    L: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    rng_id: str
    master_seed: int

    def __post_init__(self):
        assert 0 <= self.successes <= self.trials
        assert self.ci_low <= self.p_hat <= self.ci_high

    def to_json(self) -> dict:
        return asdict(self)

    def csv_line(self) -> str:
        # str of a float is its repr, so the line round-trips every field.
        return ",".join(map(str, astuple(self)))


CSV_HEADER = ",".join(f.name for f in fields(EstimateRow))


def _transpose64(a: np.ndarray) -> None:
    """Transpose the 64x64 bit matrix a[w, :, g] in place for every (w, g):
    bit k of a[w, b, g] becomes bit b of a[w, k, g].

    Stage j swaps the high j bits of every 2j-bit group of row k with the
    low j bits of row k + j, for the rows k with bit j clear."""
    words, _, groups = a.shape
    for j, mask in _TRANSPOSE_STAGES:
        pairs = a.reshape(words, 32 // j, 2, j, groups)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        swap = ((low >> j) ^ high) & mask
        high ^= swap
        low ^= swap << j


def _trial_lanes(plan: TrialPlan, start: int, stop: int) -> np.ndarray:
    """Stream bits of trials start..stop-1 in lane layout, (x_length + L, W).

    One `stream_block` call draws every stream; word w of trial 64g + k goes
    to row k of the 64x64 bit matrix (w, g), whose transpose holds rows
    64w..64w+63 of lane word g.  Pad lanes are zero."""
    nbits = plan.x_length + plan.L
    nwords = -(-nbits // 64)
    groups = -(-(stop - start) // 64)
    block = np.zeros((64 * groups, nwords), dtype=np.uint64)
    trials = np.arange(start, stop, dtype=np.uint64)
    block[: stop - start] = stream_block(plan.master_seed, trials, plan.m, plan.L, nwords)
    lanes = np.ascontiguousarray(block.reshape(groups, 64, nwords).transpose(2, 1, 0))
    _transpose64(lanes)
    return lanes.reshape(64 * nwords, groups)[:nbits]


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


def _count_successes(plan: TrialPlan, start: int, stop: int) -> int:
    """Successes among trials start..stop-1, decided one lane chunk at a time."""
    # Not a fast path: the empty prefix always embeds, and with x_length = 0
    # as well a trial has no stream bits, so block_bytes would be 0.
    if plan.L == 0:
        return stop - start
    block_bytes = 64 * 32 * -(-(plan.x_length + plan.L) // 256)  # per 64 trials
    chunk = 64 * max(_CHUNK_BYTES // block_bytes, 1)
    count = 0
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        lanes = _trial_lanes(plan, lo, hi)
        x_lanes, y_lanes = lanes[: plan.x_length], lanes[plan.x_length :]
        count += embeddable_lanes(x_lanes, y_lanes, plan.m, hi - lo).bit_count()
    return count


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = `Z95`) for a binomial proportion.

    Preferred over the Wald interval for stability near p = 0 or 1.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside 0..trials")
    z = Z95
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _estimate_row(plan: TrialPlan, successes: int) -> EstimateRow:
    lo, hi = wilson_interval(successes, plan.trials)
    return EstimateRow(
        m=plan.m,
        L=plan.L,
        trials=plan.trials,
        successes=successes,
        p_hat=successes / plan.trials,
        ci_low=lo,
        ci_high=hi,
        rng_id=RNG_ID,
        master_seed=plan.master_seed,
    )


def _pooled_estimates(plans: Sequence[TrialPlan], jobs: int) -> list[EstimateRow]:
    """One row per plan, every plan's trials split in `jobs` ranges and all
    (plan, range) pieces spread over one process pool of at most one worker
    per CPU (a fork pool starts every worker at its first submit)."""
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        futures = []
        for plan in plans:
            size = -(-plan.trials // jobs)
            futures.append([
                pool.submit(_count_successes, plan, lo, min(lo + size, plan.trials))
                for lo in range(0, plan.trials, size)
            ])
        return [
            _estimate_row(plan, sum(f.result() for f in pieces))
            for plan, pieces in zip(plans, futures)
        ]


def estimate_embed_prob(plan: TrialPlan) -> EstimateRow:
    """Estimate P(the length-L prefix of Y is m-embeddable into X) under the
    plan's seed, in this process; `sweep` spreads plans over processes."""
    return _estimate_row(plan, _count_successes(plan, 0, plan.trials))


def sweep(
    m_values: Iterable[int],
    L_values: Iterable[int],
    trials: int,
    master_seed: int,
    x_length: Optional[int] = None,
    jobs: int = 1,
) -> list[EstimateRow]:
    """One EstimateRow per (m, L) cell; cells use disjoint random streams, so
    the table does not depend on iteration order.  With `jobs > 1` the whole
    sweep shares one process pool."""
    plans = [TrialPlan(master_seed, trials, m, L, x_length) for m in m_values for L in L_values]
    if jobs > 1:
        return _pooled_estimates(plans, jobs)
    return [estimate_embed_prob(plan) for plan in plans]


def rows_to_csv(rows: Sequence[EstimateRow]) -> str:
    """Render rows under a line naming the package version and RNG, then the
    fixed header; byte-stable for identical inputs."""
    buf = io.StringIO()
    buf.write(f"# gapembed {__version__} rng_id={RNG_ID}\n")
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.csv_line() + "\n")
    return buf.getvalue()


@dataclass(frozen=True)
class WallFrequencyReport:
    """Empirical rate of a fixed-position size-l wall against two hypotheses.

    `p_counted` = 2^-(l-1) is the directly counted rate of a constant run
    whose first symbol is free; `p_nominal` = 2^-l is the commonly quoted
    per-position figure.  Both z-scores are reported; the data decides.
    """

    m: int
    l: int
    samples: int
    occurrences: int
    rate: float
    p_counted: float
    z_counted: float
    p_nominal: float
    z_nominal: float
    rng_id: str
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise UnderpoweredError("need at least one sample")
    if samples > _MAX_LENGTH:
        raise InputBoundsError(f"samples must be at most {_MAX_LENGTH}")


def _z_score(rate: float, p: float, n: int) -> float:
    if p == 1.0:  # l = 1: every sample is a wall, so rate == p with no spread
        return 0.0
    return (rate - p) / (p * (1 - p) / n) ** 0.5


def wall_frequency_check(
    m: int, l: int, samples: int, seed: int = 0
) -> WallFrequencyReport:
    """Sample the event 'a size-l wall starts at a fixed position'.

    The event is that l fresh fair bits are constant, the same predicate
    `find_walls` applies to a run at a fixed body (cross-checked in tests);
    vectorized here because sample counts reach 10^7.  The bits come from
    the raw words of the stream (0, m, l), drawn one chunk at a time: for
    l <= 32, sample i is the top l bits of 32-bit half i (low half of each
    word first); for l > 32, the top l bits of word i.
    """
    if not m <= l < 2 * m:
        raise InputBoundsError("wall size must satisfy m <= l < 2m")
    if l > 62:
        raise InputBoundsError("l too large for the vectorized sampler")
    _check_samples(samples)
    bits = 32 if l <= 32 else 64
    unit = np.dtype(f"<u{bits // 8}")
    nwords = -(-samples * bits // 64)
    chunk = _CHUNK_BYTES // 8
    occurrences = 0
    for lo in range(0, nwords, chunk):
        words = stream_block(seed, [0], m, l, min(chunk, nwords - lo), first=lo)[0]
        draws = words.astype("<u8", copy=False).view(unit)[: samples - lo * 64 // bits]
        draws >>= unit.type(bits - l)
        occurrences += int(np.count_nonzero(draws == 0) + np.count_nonzero(draws == (1 << l) - 1))
    rate = occurrences / samples
    p_counted = 2.0 ** (1 - l)
    p_nominal = 2.0 ** (-l)
    return WallFrequencyReport(
        m=m,
        l=l,
        samples=samples,
        occurrences=occurrences,
        rate=rate,
        p_counted=p_counted,
        z_counted=_z_score(rate, p_counted, samples),
        p_nominal=p_nominal,
        z_nominal=_z_score(rate, p_nominal, samples),
        rng_id=RNG_ID,
        seed=seed,
    )


@dataclass(frozen=True)
class HoleFrequencyReport:
    """Empirical rate at which a hole fitting a fixed wall starts at a fixed
    offset, against the analytic 1/2."""

    m: int
    samples: int
    occurrences: int
    rate: float
    expected: float
    z: float
    rng_id: str
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def hole_frequency_check(m: int, samples: int, seed: int = 0) -> HoleFrequencyReport:
    """Fix a vertical wall (a constant run of length m); per sample take a
    fresh Y and ask the hole finder whether a fitting hole starts at a fixed
    offset.  One starts there iff Y(offset + 1) equals the wall's symbol, the
    one symbol the finder reads, so the rate is 1/2.  Sample t's Y is the
    low 3 bits of the stream (t, m, 0x410); the finder decides each of the 8
    Ys once, weighted by the number of samples that drew it."""
    _check_samples(samples)
    if not 2 <= m <= _MAX_LENGTH:
        raise InputBoundsError(f"m must be in 2..{_MAX_LENGTH}")
    # X: zero padding, a run of ones of length exactly m, zero padding.
    i0 = 2
    X = BinarySequence.from_string("00" + "1" * m + "0101")
    wall = WallValue(Interval(i0, i0 + m), 2 * m, "v")
    offset = 2
    y_len = offset + 1
    counts = np.zeros(1 << y_len, dtype=np.int64)
    chunk = _CHUNK_BYTES // 32  # one 4-word Philox block per sample
    for lo in range(0, samples, chunk):
        ts = np.arange(lo, min(lo + chunk, samples), dtype=np.uint64)
        ys = stream_block(seed, ts, m, 0x410, 1)[:, 0] & np.uint64(counts.size - 1)
        counts += np.bincount(ys.astype(np.intp), minlength=counts.size)
    occurrences = 0
    for y, count in enumerate(counts.tolist()):
        hole = find_fitting_hole(wall, range(offset, offset + 1), X, BinarySequence(y, y_len))
        occurrences += count if hole is not None else 0
    rate = occurrences / samples
    return HoleFrequencyReport(
        m=m,
        samples=samples,
        occurrences=occurrences,
        rate=rate,
        expected=0.5,
        z=_z_score(rate, 0.5, samples),
        rng_id=RNG_ID,
        seed=seed,
    )
