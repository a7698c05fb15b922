"""Counter-based random streams for reproducible Monte Carlo runs.

Every draw is a pure function of (seed, stream coordinates): the Philox-4x64
generator is keyed by (seed mod 2^64, 0) and positioned by a 256-bit counter
(0, c1, c2, c3) whose upper three words hold the coordinates mod 2^64.
Identical inputs give identical bits on every platform and under any
parallel schedule.

A stream's words are those of numpy's `Philox(counter=(0, c1, c2, c3),
key=(seed, 0)).random_raw(n)`: numpy increments the counter before each
4-word block, so word 4b + r is word r of Philox4x64-10 applied to the
counter (b + 1, c1, c2, c3).

`stream_block`, the one generator the program runs, computes those words
for a vector of first coordinates t at once, from any word offset: the ten
Philox rounds run in numpy over an array of counters (b + 1, t, c2, c3),
each 64x64-bit product taken from four 32x32-bit products (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  `stream_bits` is a
view of one row.  `stream_words`, numpy.random's own Philox, is only the
tests' reference, so under numpy 2 no subcommand loads numpy.random (about
6 MB of resident memory; numpy 1.x imports it with numpy).  The module
keeps no shared state, so threads and processes may draw at will.  Bit i of
a stream is bit i % 64 of word i // 64; in a sweep's lane layout it becomes
row i of the trial's lane (see `gapembed.experiments`).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and Weyl key increments (Random123).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def stream_words(seed: int, coords: tuple[int, int, int], nwords: int) -> np.ndarray:
    """The first `nwords` words of one stream from numpy.random's Philox.

    Counter and key go in as uint64 arrays: numpy reads a list of Python
    ints with a word at or above 2^63 through float64, which merges
    distinct keys (seeds -1 and -7 both became key 0)."""
    c1, c2, c3 = (c & _MASK64 for c in coords)
    return np.random.Philox(
        counter=np.array([0, c1, c2, c3], dtype=np.uint64),
        key=np.array([seed & _MASK64, 0], dtype=np.uint64),
    ).random_raw(nwords)


def stream_bits(seed: int, coords: tuple[int, int, int], nbits: int) -> int:
    """The first `nbits` bits of one stream as a nonnegative int."""
    if nbits <= 0:
        return 0
    t, c2, c3 = coords
    words = stream_block(seed, [t], c2, c3, -(-nbits // 64))[0]
    return int.from_bytes(words.astype("<u8").tobytes(), "little") & ((1 << nbits) - 1)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * b for a 64-bit constant a.

    The high word is summed from four 32x32-bit products, none of which
    wraps; `mid` carries the middle 32-bit column into it.  The low word is
    numpy's wrapping product (array arithmetic does not warn)."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _SHIFT32)
    high = a_hi * b_hi + (mid >> _SHIFT32)
    mid &= _LOW32
    mid += a_lo * b_hi
    high += mid >> _SHIFT32
    return high, b * np.uint64(a)


def stream_block(seed: int, ts, c2: int, c3: int, nwords: int, first: int = 0) -> np.ndarray:
    """Words first..first+nwords-1 of the streams (t, c2, c3) for every t in
    `ts`, as a (len(ts), nwords) uint64 array whose row i equals
    `stream_words(seed, (ts[i], c2, c3), first + nwords)[first:]`.

    `ts` is a sequence of ints or an integer array, taken mod 2^64, and
    `first` a nonnegative word offset.  The key schedule stays in Python
    ints, so no numpy scalar wraps."""
    if isinstance(ts, np.ndarray):
        ts = ts.astype(np.uint64)
    else:
        ts = np.array([t & _MASK64 for t in ts], dtype=np.uint64)
    skip = first % 4
    blocks = -(-(skip + nwords) // 4)
    # Counter words as broadcastable arrays: (block, trial, c2, c3); they
    # reach the full (trials, blocks) shape after the first rounds.
    x0 = np.arange(first // 4 + 1, first // 4 + 1 + blocks, dtype=np.uint64)[None, :]
    x1 = ts[:, None]
    x2 = np.full((1, 1), c2 & _MASK64, dtype=np.uint64)
    x3 = np.full((1, 1), c3 & _MASK64, dtype=np.uint64)
    k0, k1 = seed & _MASK64, 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return words.reshape(len(ts), 4 * blocks)[:, skip : skip + nwords]
