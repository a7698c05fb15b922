"""Counter-based random streams for reproducible Monte Carlo runs.

Every draw is a pure function of (seed, stream coordinates): the Philox-4x64
generator is keyed by (seed mod 2^64, 0) and positioned by a 256-bit counter
(0, c1, c2, c3) whose upper three words hold the coordinates mod 2^64.
Identical inputs give identical bits on every platform and under any
parallel schedule.

A stream's bytes are those of `Generator(philox(seed, coords)).bytes(n)`.
They are read as 64-bit words (`stream_words`) from one module-level Philox
that is repositioned for each stream, at about a quarter of the cost of
building a new generator; `stream_bytes` and `stream_bits` are views of
those words.  Bit i of a stream is bit i % 64 of word i // 64; in a sweep's
lane layout it becomes row i of the trial's lane (see `gapembed.experiments`).
"""

from __future__ import annotations

import numpy as np

RNG_ID = "numpy-philox4x64-10"

_MASK64 = (1 << 64) - 1

# One generator serves every stream: under its lock, the counter and key of
# a state template with an empty buffer are filled in and the state is set.
# It is made at the first draw, because importing numpy.random costs about
# 6 MB of resident memory that commands drawing nothing need not pay.
_shared = None


def _shared_philox() -> tuple[np.random.Philox, dict]:
    global _shared
    if _shared is None:
        bitgen = np.random.Philox(key=0)
        _shared = (bitgen, bitgen.state)
    return _shared


def philox(seed: int, coords: tuple[int, int, int]) -> np.random.Philox:
    """A new generator at the start of the stream, for numpy's samplers.

    Counter and key go in as uint64 arrays: numpy reads a list of Python
    ints with a word at or above 2^63 through float64, which merges
    distinct keys (seeds -1 and -7 both became key 0)."""
    c1, c2, c3 = (c & _MASK64 for c in coords)
    return np.random.Philox(
        counter=np.array([0, c1, c2, c3], dtype=np.uint64),
        key=np.array([seed & _MASK64, 0], dtype=np.uint64),
    )


def stream_words(seed: int, coords: tuple[int, int, int], nwords: int) -> np.ndarray:
    """The first `nwords` 64-bit words of one stream; coords index disjoint
    streams.  Byte k of the little-endian words is byte k of the stream."""
    c1, c2, c3 = coords
    bitgen, state = _shared_philox()
    counter, key = state["state"]["counter"], state["state"]["key"]
    with bitgen.lock:
        counter[1] = c1 & _MASK64
        counter[2] = c2 & _MASK64
        counter[3] = c3 & _MASK64
        key[0] = seed & _MASK64
        bitgen.state = state
        return bitgen.random_raw(nwords)


def stream_bytes(seed: int, coords: tuple[int, int, int], nbytes: int) -> bytes:
    """Deterministic bytes for one stream; coords index disjoint blocks."""
    words = stream_words(seed, coords, (nbytes + 7) // 8)
    return words.astype("<u8", copy=False).tobytes()[:nbytes]


def stream_bits(seed: int, coords: tuple[int, int, int], nbits: int) -> int:
    """Deterministic nonnegative int with `nbits` uniform bits."""
    if nbits <= 0:
        return 0
    raw = stream_bytes(seed, coords, (nbits + 7) // 8)
    return int.from_bytes(raw, "little") & ((1 << nbits) - 1)
