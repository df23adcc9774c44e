"""Unit and property tests for the shared Bitmap structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitmap import Bitmap


class TestBitmapBasics:
    def test_starts_empty(self):
        bmp = Bitmap(64)
        assert bmp.count_set() == 0
        assert bmp.count_free() == 64
        assert not bmp.test(0)

    def test_set_and_test(self):
        bmp = Bitmap(16)
        bmp.set(3)
        assert bmp.test(3)
        assert not bmp.test(2)
        assert not bmp.test(4)

    def test_clear(self):
        bmp = Bitmap(16)
        bmp.set(7)
        bmp.clear(7)
        assert not bmp.test(7)

    def test_set_is_idempotent(self):
        bmp = Bitmap(8)
        bmp.set(2)
        bmp.set(2)
        assert bmp.count_set() == 1

    def test_out_of_range_raises(self):
        bmp = Bitmap(8)
        with pytest.raises(IndexError):
            bmp.test(8)
        with pytest.raises(IndexError):
            bmp.set(-1)
        with pytest.raises(IndexError):
            bmp.clear(100)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(0)

    def test_non_byte_aligned_sizes(self):
        bmp = Bitmap(13)
        for i in range(13):
            bmp.set(i)
        assert bmp.count_set() == 13
        assert bmp.count_free() == 0


class TestFindFree:
    def test_first_free(self):
        bmp = Bitmap(8)
        bmp.set(0)
        bmp.set(1)
        assert bmp.find_free() == 2

    def test_find_free_with_start(self):
        bmp = Bitmap(16)
        assert bmp.find_free(start=5) == 5

    def test_full_bitmap_returns_none(self):
        bmp = Bitmap(4)
        for i in range(4):
            bmp.set(i)
        assert bmp.find_free() is None

    def test_find_free_run(self):
        bmp = Bitmap(16)
        bmp.set(1)
        bmp.set(5)
        assert bmp.find_free_run(3) == 2
        assert bmp.find_free_run(10) == 6
        assert bmp.find_free_run(11) is None


class TestSerialization:
    def test_roundtrip(self):
        bmp = Bitmap(40)
        for i in (0, 13, 39):
            bmp.set(i)
        again = Bitmap.from_bytes(40, bmp.to_bytes())
        assert again == bmp
        assert list(again.iter_set()) == [0, 13, 39]

    def test_padding(self):
        bmp = Bitmap(8)
        raw = bmp.to_bytes(pad_to=1024)
        assert len(raw) == 1024

    def test_pad_too_small_rejected(self):
        bmp = Bitmap(1024)
        with pytest.raises(ValueError):
            bmp.to_bytes(pad_to=4)

    def test_short_raw_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(64, raw=b"\x00")


@given(st.sets(st.integers(min_value=0, max_value=255)))
def test_property_set_bits_roundtrip(bits):
    """Any set of bits survives serialization exactly."""
    bmp = Bitmap(256)
    for b in bits:
        bmp.set(b)
    again = Bitmap.from_bytes(256, bmp.to_bytes(pad_to=64))
    assert set(again.iter_set()) == bits
    assert again.count_set() == len(bits)


@given(
    st.sets(st.integers(min_value=0, max_value=127)),
    st.sets(st.integers(min_value=0, max_value=127)),
)
def test_property_set_then_clear(to_set, to_clear):
    """count_set always equals the size of the surviving set."""
    bmp = Bitmap(128)
    for b in to_set:
        bmp.set(b)
    for b in to_clear:
        bmp.clear(b)
    survivors = to_set - to_clear
    assert set(bmp.iter_set()) == survivors
    assert bmp.count_free() == 128 - len(survivors)


@given(st.sets(st.integers(min_value=0, max_value=63)), st.integers(0, 63))
def test_property_find_free_is_really_free(bits, start):
    bmp = Bitmap(64)
    for b in bits:
        bmp.set(b)
    free = bmp.find_free(start)
    if free is None:
        assert all(bmp.test(i) for i in range(start, 64))
    else:
        assert free >= start
        assert not bmp.test(free)
        assert all(bmp.test(i) for i in range(start, free))


# -- bulk operations against a bit-by-bit reference ---------------------------


def _ref_find_free(bmp, start):
    for i in range(start, bmp.nbits):
        if not bmp.test(i):
            return i
    return None


def _ref_find_free_run(bmp, length, start):
    run = 0
    for i in range(start, bmp.nbits):
        run = run + 1 if not bmp.test(i) else 0
        if run == length:
            return i - length + 1
    return None


@st.composite
def _images(draw):
    """A bitmap over a raw image: any size, garbage in the padding bits
    of the last byte and in the bytes after it."""
    nbits = draw(st.integers(min_value=1, max_value=300))
    nbytes = (nbits + 7) // 8
    # Mostly-full and mostly-empty images as well as noise, so long runs
    # and "no free bit" both come up.
    fill = draw(st.sampled_from([None, 0x00, 0xFF]))
    raw = bytearray(draw(st.binary(min_size=nbytes + 2, max_size=nbytes + 2)))
    if fill is not None:
        for i in draw(st.sets(st.integers(0, nbytes - 1), max_size=nbytes)):
            raw[i] = fill
    return Bitmap(nbits, bytes(raw))


@settings(max_examples=300, deadline=None)
@given(_images(), st.data())
def test_property_bulk_ops_match_bitwise_reference(bmp, data):
    start = data.draw(st.integers(min_value=0, max_value=bmp.nbits + 20))
    length = data.draw(st.integers(min_value=1, max_value=bmp.nbits + 2))
    set_bits = [i for i in range(bmp.nbits) if bmp.test(i)]
    assert bmp.find_free(start) == _ref_find_free(bmp, start)
    assert bmp.find_free() == _ref_find_free(bmp, 0)
    assert bmp.find_free_run(length, start) == \
        _ref_find_free_run(bmp, length, start)
    assert bmp.find_free_run(length) == _ref_find_free_run(bmp, length, 0)
    assert bmp.count_set() == len(set_bits)
    assert bmp.count_free() == bmp.nbits - len(set_bits)
    assert list(bmp.iter_set()) == set_bits


def test_bulk_ops_reject_bad_arguments():
    bmp = Bitmap(13, b"\x0f\xff")
    with pytest.raises(IndexError):
        bmp.find_free(-1)
    with pytest.raises(IndexError):
        bmp.find_free_run(2, start=-1)
    with pytest.raises(ValueError):
        bmp.find_free_run(0)


def test_padding_bits_are_never_free():
    # Bits 0..12 set, padding bits 13..15 clear: still full.
    bmp = Bitmap(13, b"\xff\x1f")
    assert bmp.find_free() is None
    assert bmp.find_free_run(1) is None
    assert bmp.count_free() == 0
    assert bmp.find_free(13) is None
    assert bmp.find_free(10**6) is None
