"""Bit-packed binary sequences with 1-based indexing.

A sequence stores symbols X(1), X(2), ..., X(n); index 0 is reserved for the
origin convention of embedding paths (the fictitious step n_0 = 0).  Symbols
live in a single Python int: bit (i - 1) holds X(i).  The same symbols as
'0'/'1' text, built once per sequence in linear time, answer run and wall
questions through `str` and `re` scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputBoundsError, SequenceFormatError


@dataclass(frozen=True)
class BinarySequence:
    """Immutable 0/1 sequence, bit-packed, indexed from 1."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise InputBoundsError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.length:
            raise InputBoundsError("bits do not fit in the declared length")
        full = (1 << self.length) - 1
        # Position masks: bit i set (1 <= i <= length) iff X(i) equals the symbol.
        object.__setattr__(self, "_ones", self.bits << 1)
        object.__setattr__(self, "_zeros", (full ^ self.bits) << 1)

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        # Validate first: int() would also take '_', whitespace and signs.
        i = len(text) - len(text.lstrip("01"))
        if i < len(text):
            raise SequenceFormatError(f"invalid character {text[i]!r} at offset {i}", i)
        return cls(int(text[::-1], 2) if text else 0, len(text))

    def __len__(self) -> int:
        return self.length

    def symbol(self, i: int) -> int:
        """Return X(i) for 1 <= i <= length."""
        if not 1 <= i <= self.length:
            raise InputBoundsError(f"index {i} outside 1..{self.length}")
        return (self.bits >> (i - 1)) & 1

    def match_mask(self, symbol: int) -> int:
        """Bitmask over positions 1..length marking where X(i) == symbol."""
        return self._ones if symbol else self._zeros

    def constant_on(self, left: int, right: int) -> bool:
        """True iff X is constant on the integer points of ]left, right],
        which must lie inside 0..length."""
        if left < 0 or right > self.length:
            raise InputBoundsError(f"]{left}, {right}] outside 0..{self.length}")
        if right - left < 2:
            return True
        seg = self.text[left:right]
        return "0" not in seg or "1" not in seg

    @cached_property
    def text(self) -> str:
        """The symbols as '0'/'1' characters: text[i - 1] is X(i)."""
        return format(self.bits, f"0{self.length}b")[::-1] if self.length else ""

    def __repr__(self) -> str:  # keep short for test failure output
        s = self.text
        return f"BinarySequence({s if len(s) <= 40 else s[:37] + '...'})"


def load_sequence_file(path: str) -> BinarySequence:
    """Read a sequence file: one line of ASCII '0'/'1', optional trailing newline.

    Any other byte is rejected with its byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    body = raw
    if raw.endswith(b"\n"):
        body = raw[:-1]
    off = len(body) - len(body.lstrip(b"01"))
    if off < len(body):
        raise SequenceFormatError(
            f"invalid byte 0x{body[off]:02x} at offset {off} in {path}", off
        )
    return BinarySequence.from_string(body.decode("ascii"))
