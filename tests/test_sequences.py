import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import BinarySequence, load_sequence_file
from gapembed.errors import InputBoundsError, SequenceFormatError

from conftest import binary_sequences


def test_one_based_indexing():
    s = BinarySequence.from_string("0110")
    assert [s.symbol(i) for i in range(1, 5)] == [0, 1, 1, 0]
    with pytest.raises(InputBoundsError):
        s.symbol(0)
    with pytest.raises(InputBoundsError):
        s.symbol(5)


def test_match_mask_positions():
    s = BinarySequence.from_string("0110100110")
    ones = [i for i in range(1, 11) if s.match_mask(1) >> i & 1]
    zeros = [i for i in range(1, 11) if s.match_mask(0) >> i & 1]
    assert ones == [2, 3, 5, 8, 9]
    assert zeros == [1, 4, 6, 7, 10]
    assert s.match_mask(1) & 1 == 0  # position 0 never matches


def test_constant_on():
    s = BinarySequence.from_string("00110")
    assert s.constant_on(0, 2)
    assert s.constant_on(2, 4)
    assert not s.constant_on(1, 3)
    assert s.constant_on(3, 4)  # single point


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constant_on_matches_symbols(data):
    s = data.draw(binary_sequences(max_length=12))
    n = len(s)
    left = data.draw(st.integers(-2, n + 2))
    right = data.draw(st.integers(-2, n + 3))
    if left < 0 or right > n:
        with pytest.raises(InputBoundsError):
            s.constant_on(left, right)
        return
    points = range(left + 1, right + 1)
    assert s.constant_on(left, right) == (len({s.symbol(i) for i in points}) <= 1)


def test_constant_on_out_of_range():
    with pytest.raises(InputBoundsError):
        BinarySequence.from_string("0110").constant_on(-1, 2)
    with pytest.raises(InputBoundsError):
        BinarySequence.from_string("0000").constant_on(2, 6)  # zeros past the end


def test_round_trip_strings():
    for text in ("", "0", "1", "0101100"):
        assert BinarySequence.from_string(text).text == text


def test_file_loader_accepts_trailing_newline(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_bytes(b"0101\n")
    assert load_sequence_file(str(p)).text == "0101"
    p.write_bytes(b"0101")
    assert load_sequence_file(str(p)).text == "0101"


def test_file_loader_rejects_with_offset(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"0102\n")
    with pytest.raises(SequenceFormatError) as err:
        load_sequence_file(str(p))
    assert err.value.offset == 3
    p.write_bytes(b"01\n01\n")  # interior newline is not a sequence byte
    with pytest.raises(SequenceFormatError) as err:
        load_sequence_file(str(p))
    assert err.value.offset == 2


def test_save_load_round_trip(tmp_path):
    p = tmp_path / "seq.txt"
    s = BinarySequence.from_string("110010")
    p.write_text(s.text + "\n", encoding="ascii")
    assert load_sequence_file(str(p)) == s


def per_bit(text):
    """Reference construction: OR one bit per '1' symbol."""
    bits = 0
    for i, ch in enumerate(text):
        if ch == "1":
            bits |= 1 << i
    return BinarySequence(bits, len(text))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parsers_match_per_bit_construction(data):
    n = data.draw(st.integers(0, 4000))
    bits = data.draw(st.integers(0, (1 << n) - 1)) if n else 0
    text = "".join("1" if bits >> i & 1 else "0" for i in range(n))
    want = per_bit(text)
    assert want == BinarySequence(bits, n)
    assert BinarySequence.from_string(text) == want
    assert BinarySequence(bits, n).text == text
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "seq.txt")
        newline = data.draw(st.booleans())
        with open(path, "wb") as fh:
            fh.write(text.encode() + (b"\n" if newline else b""))
        got = load_sequence_file(path)
        assert got == want and got.text == text
        if n:
            # One foreign byte anywhere is reported at its offset; int() would
            # take some of these ('_', ' ', '+') without complaint.
            off = data.draw(st.integers(0, n - 1))
            bad = data.draw(st.sampled_from(b"_ +-2\t\x00\xff"))
            with open(path, "wb") as fh:
                fh.write(text.encode()[:off] + bytes([bad]) + text.encode()[off + 1 :])
            with pytest.raises(SequenceFormatError) as err:
                load_sequence_file(path)
            assert err.value.offset == off
            assert f"invalid byte 0x{bad:02x} at offset {off}" in str(err.value)
            bad_text = text[:off] + chr(bad) + text[off + 1 :]
            with pytest.raises(SequenceFormatError) as err:
                BinarySequence.from_string(bad_text)
            assert err.value.offset == off
