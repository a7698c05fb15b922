"""Bit-packed binary sequences with 1-based indexing.

A sequence stores symbols X(1), X(2), ..., X(n); index 0 is reserved for the
origin convention of embedding paths (the fictitious step n_0 = 0).  Symbols
live in a single Python int: bit (i - 1) holds X(i).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise SequenceFormatError(f"invalid character {ch!r} at offset {i}", i)
        return cls(bits, len(text))

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
        """True iff X is constant on the integer points of ]left, right]."""
        if right - left < 2:
            return True
        seg = (self.bits >> left) & ((1 << (right - left)) - 1)
        return seg == 0 or seg == (1 << (right - left)) - 1

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.length))

    def __repr__(self) -> str:  # keep short for test failure output
        s = self.to_string()
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
    bits = 0
    for off, byte in enumerate(body):
        if byte == 0x31:
            bits |= 1 << off
        elif byte != 0x30:
            raise SequenceFormatError(
                f"invalid byte 0x{byte:02x} at offset {off} in {path}", off
            )
    return BinarySequence(bits, len(body))


def save_sequence_file(path: str, seq: BinarySequence) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(seq.to_string())
        fh.write("\n")
