"""Monte Carlo harness for embedding probability curves and frequency checks.

Reproducibility contract: every trial's randomness is a pure function of
(master_seed, m, L, trial index) through a counter-based generator (see
`gapembed.rng`), so results do not depend on execution order, chunking, or
worker count.  Aggregation is a commutative sum of per-trial indicators.

A sweep decides its trials in chunks of bit lanes: trial start + 64w + k of
a chunk is lane k of word w, and bit i of its stream (X(i + 1) for
i < x_length, then Y) is bit k of word w in row i of the chunk's lane array
(see `gapembed.engine.embeddable_lanes`).  `TrialPlan.trial_sequences` gives
the same trial as a `BinarySequence` pair.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .engine import embeddable_lanes
from .engine import embeddable_prefix  # looked up by name in bench/tracer.py
from .errors import InputBoundsError, UnderpoweredError
from .rng import RNG_ID, philox, stream_bits, stream_words
from .sequences import BinarySequence
from .stats import wilson_interval
from .walls import Interval, WallValue, find_fitting_hole

CSV_HEADER = "m,L,trials,successes,p_hat,ci_low,ci_high,rng_id,master_seed"

# A lane chunk holds up to _CHUNK_WORDS words of 64 trials; for long trials
# it shrinks so that one (x_length + L, words) array stays within
# _CHUNK_BYTES.
_CHUNK_WORDS = 16
_CHUNK_BYTES = 1 << 20


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
        return {
            "m": self.m,
            "L": self.L,
            "trials": self.trials,
            "successes": self.successes,
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "rng_id": self.rng_id,
            "master_seed": self.master_seed,
        }

    def csv_line(self) -> str:
        return (
            f"{self.m},{self.L},{self.trials},{self.successes},"
            f"{self.p_hat!r},{self.ci_low!r},{self.ci_high!r},"
            f"{self.rng_id},{self.master_seed}"
        )


def _trial_lanes(plan: TrialPlan, start: int, stop: int) -> np.ndarray:
    """Stream bits of trials start..stop-1 in lane layout, (x_length + L, W).

    Transposed 64 trials at a time: unpack a (64, words) block of streams to
    one byte per bit, then pack along the trial axis."""
    nbits = plan.x_length + plan.L
    nwords = -(-nbits // 64)
    lanes = np.zeros((nbits, -(-(stop - start) // 64)), dtype=np.uint64)
    block = np.empty((64, nwords), dtype="<u8")
    for w, lo in enumerate(range(start, stop, 64)):
        hi = min(lo + 64, stop)
        for i, t in enumerate(range(lo, hi)):
            block[i] = stream_words(plan.master_seed, (t, plan.m, plan.L), nwords)
        block[hi - lo :] = 0
        bits = np.unpackbits(block.view(np.uint8), axis=1, count=nbits, bitorder="little")
        packed = np.packbits(bits, axis=0, bitorder="little")
        lanes[:, w] = np.ascontiguousarray(packed.T).view("<u8")[:, 0]
    return lanes


def _count_successes(plan: TrialPlan, start: int, stop: int) -> int:
    """Successes among trials start..stop-1, decided one lane chunk at a time."""
    words = min(_CHUNK_WORDS, _CHUNK_BYTES // (8 * (plan.x_length + plan.L)))
    chunk = 64 * max(words, 1)
    count = 0
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        lanes = _trial_lanes(plan, lo, hi)
        x_lanes, y_lanes = lanes[: plan.x_length], lanes[plan.x_length :]
        count += embeddable_lanes(x_lanes, y_lanes, plan.m, hi - lo).bit_count()
    return count


def estimate_embed_prob(plan: TrialPlan, jobs: int = 1) -> EstimateRow:
    """Estimate P(the length-L prefix of Y is m-embeddable into X) under the
    plan's seed; trials may be split across processes without changing the
    result."""
    if plan.trials == 0:
        raise UnderpoweredError("plan has zero trials")
    if plan.L == 0:
        successes = plan.trials
    elif jobs <= 1:
        successes = _count_successes(plan, 0, plan.trials)
    else:
        chunk = -(-plan.trials // jobs)
        bounds = [
            (plan, i, min(i + chunk, plan.trials))
            for i in range(0, plan.trials, chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            successes = sum(pool.map(_count_successes, *zip(*bounds)))
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


def sweep(
    m_values: Iterable[int],
    L_values: Iterable[int],
    trials: int,
    master_seed: int,
    x_length: Optional[int] = None,
    jobs: int = 1,
) -> list[EstimateRow]:
    """One EstimateRow per (m, L) cell; cells use disjoint random streams, so
    the table does not depend on iteration order."""
    rows = []
    for m in m_values:
        for L in L_values:
            plan = TrialPlan(master_seed, trials, m, L, x_length)
            rows.append(estimate_embed_prob(plan, jobs=jobs))
    return rows


def rows_to_csv(rows: Sequence[EstimateRow], version: str = "") -> str:
    """Render rows with the fixed header; byte-stable for identical inputs."""
    buf = io.StringIO()
    if version:
        buf.write(f"# gapembed {version} rng_id={RNG_ID}\n")
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
    seed: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "samples": self.samples,
            "occurrences": self.occurrences,
            "rate": self.rate,
            "p_counted": self.p_counted,
            "z_counted": self.z_counted,
            "p_nominal": self.p_nominal,
            "z_nominal": self.z_nominal,
            "rng_id": RNG_ID,
            "seed": self.seed,
        }


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
    vectorized here because sample counts reach 10^6.
    """
    if not m <= l < 2 * m:
        raise InputBoundsError("wall size must satisfy m <= l < 2m")
    if l > 62:
        raise InputBoundsError("l too large for the vectorized sampler")
    if samples < 1:
        raise UnderpoweredError("need at least one sample")
    words = np.random.Generator(philox(seed, (0, m, l))).integers(
        0, 1 << l, size=samples, dtype=np.uint64
    )
    occurrences = int(((words == 0) | (words == (1 << l) - 1)).sum())
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
    seed: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "samples": self.samples,
            "occurrences": self.occurrences,
            "rate": self.rate,
            "expected": self.expected,
            "z": self.z,
            "rng_id": RNG_ID,
            "seed": self.seed,
        }


def hole_frequency_check(m: int, samples: int, seed: int = 0) -> HoleFrequencyReport:
    """Fix a vertical wall (a constant run of length m); per sample draw a
    fresh Y and ask the hole finder whether a fitting hole starts at a fixed
    offset.  A width-1 hole there needs one fair symbol match, so the rate is
    1/2."""
    if samples < 1:
        raise UnderpoweredError("need at least one sample")
    if m < 2:
        raise InputBoundsError("m must be >= 2")
    # X: zero padding, a run of ones of length exactly m, zero padding.
    i0 = 2
    X = BinarySequence.from_string("00" + "1" * m + "0101")
    wall = WallValue(Interval(i0, i0 + m), 2 * m, "v")
    offset = 2
    y_len = offset + 2 * m * m + 1
    occurrences = 0
    for t in range(samples):
        Y = BinarySequence(stream_bits(seed, (t, m, 0x410), y_len), y_len)
        hole = find_fitting_hole(
            wall, Interval(offset, offset, closed=True), X, Y, Fraction(1, 2 * m)
        )
        occurrences += hole is not None
    rate = occurrences / samples
    return HoleFrequencyReport(
        m=m,
        samples=samples,
        occurrences=occurrences,
        rate=rate,
        expected=0.5,
        z=_z_score(rate, 0.5, samples),
        seed=seed,
    )
