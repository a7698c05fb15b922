"""Exact embedding probabilities for small L: a distributional oracle for
`sweep`.

The other sweep tests check the lane kernel against per-trial DPs on the same
streams, which tests the kernel but not the draws.  Here `exact_embed_prob`
gives P(the length-L prefix of a uniform Y is m-embeddable into a uniform X)
as a Fraction, itself checked against `brute_force_reachable` counted over
every pair, and `sweep`'s counts must lie within a fixed z bound of it.
"""

import functools
import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from gapembed import BinarySequence, brute_force_reachable
from gapembed.experiments import sweep

# Fixed before the sweep test was first run; a cell past the bound is a
# finding about the draws, not a reason to change the seed.
SWEEP_SEED = 12345
SWEEP_TRIALS = 100_000
Z_BOUND = 4.5


@functools.cache
def exact_embed_prob(m: int, L: int) -> Fraction:
    """P(Y(1..L) is m-embeddable into X(1..mL)) for uniform X and Y, exactly.

    By the symmetry that flips every bit, Y(1) = 0.  For each such Y the DP
    scans X left to right.  Its state is the reach columns of the last m
    positions, bit j of a column set iff row j is reachable there; column i
    is (the OR of the m columns before it, shifted up one row) AND the rows
    j with Y(j) = X(i).  Reaching row L is absorbing success, an all-empty
    state absorbing failure, and identical states merge with integer
    weights.  A length-L prefix reads at most X(1..mL), so this is also the
    probability for any longer X.
    """
    if L == 0:
        return Fraction(1)
    n = m * L
    successes = 0  # weighted by the X suffixes left free at absorption
    for tail in range(1 << (L - 1)):
        y = [0, *((tail >> k) & 1 for k in range(L - 1))]
        match = [sum(1 << (j + 1) for j in range(L) if y[j] == b) for b in (0, 1)]
        states = {(0,) * (m - 1) + (1,): 1}  # position 0 holds the origin, row 0
        for i in range(1, n + 1):
            nxt = defaultdict(int)
            for cols, weight in states.items():
                smear = 0
                for col in cols:
                    smear |= col
                for b in (0, 1):
                    col = (smear << 1) & match[b]
                    if col >> L:
                        successes += weight << (n - i)
                    elif col or any(cols[1:]):
                        nxt[cols[1:] + (col,)] += weight
            states = nxt
    return Fraction(successes, 1 << (n + L - 1))


def brute_force_prob(m: int, L: int) -> Fraction:
    """The same probability counted over every X of length mL and every Y."""
    n = m * L
    hits = sum(
        bool(brute_force_reachable(BinarySequence(x, n), BinarySequence(y, L), m, L)[L])
        for x, y in product(range(1 << n), range(1 << L))
    )
    return Fraction(hits, 1 << (n + L))


@pytest.mark.parametrize("m, L", [(1, 3), (2, 1), (2, 3), (2, 4), (3, 2), (3, 4)])
def test_exact_dp_equals_brute_force(m, L):
    assert exact_embed_prob(m, L) == brute_force_prob(m, L)


def test_exact_dp_values():
    assert exact_embed_prob(2, 4) == Fraction(99, 256)
    assert exact_embed_prob(3, 4) == Fraction(11229, 16384)
    got = {(m, L): round(float(exact_embed_prob(m, L)), 7) for m in (2, 3) for L in (8, 9)}
    assert got == {(2, 8): 0.1770000, (3, 8): 0.5468488, (2, 9): 0.1466579, (3, 9): 0.5210875}


def test_sweep_matches_exact_probabilities():
    rows = sweep([2, 3], range(1, 10), SWEEP_TRIALS, SWEEP_SEED)
    assert len(rows) == 18
    for row in rows:
        p = exact_embed_prob(row.m, row.L)
        z = (row.successes - row.trials * p) / math.sqrt(row.trials * p * (1 - p))
        assert abs(z) <= Z_BOUND, (row.m, row.L, row.successes, float(p), float(z))
