"""A packed bitmap with on-disk serialization.

Every file system in the study tracks allocation with bitmaps (ext3's
block/inode bitmaps, ReiserFS's data bitmap, JFS's allocation maps,
NTFS's volume/MFT bitmaps), so the structure is shared substrate.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Bitmap:
    """A fixed-size bitmap over ``nbits`` bits, serializable to block
    payloads.  Bit *i* set means "allocated"."""

    def __init__(self, nbits: int, raw: Optional[bytes] = None):
        if nbits <= 0:
            raise ValueError("bitmap must have at least one bit")
        self.nbits = nbits
        nbytes = (nbits + 7) // 8
        if raw is None:
            self._bytes = bytearray(nbytes)
        else:
            if len(raw) < nbytes:
                raise ValueError("raw bitmap too short")
            self._bytes = bytearray(raw[:nbytes])

    # -- single-bit operations -------------------------------------------

    def _check(self, i: int) -> None:
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range [0, {self.nbits})")

    def test(self, i: int) -> bool:
        self._check(i)
        return bool(self._bytes[i >> 3] & (1 << (i & 7)))

    def set(self, i: int) -> None:
        self._check(i)
        self._bytes[i >> 3] |= 1 << (i & 7)

    def clear(self, i: int) -> None:
        self._check(i)
        self._bytes[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    # -- bulk operations --------------------------------------------------
    #
    # Each is one wide-integer operation over the whole image (bit *i*
    # of the integer is bit *i* of the map), never a loop over bits.

    def _free(self, start: int) -> int:
        """The clear bits at or after *start*, shifted down to bit 0;
        padding bits past ``nbits`` never count as free."""
        if start < 0:
            self._check(start)
        used = int.from_bytes(self._bytes, "little")
        return (~used & ((1 << self.nbits) - 1)) >> start

    @staticmethod
    def _lowest(bits: int, start: int) -> Optional[int]:
        """*start* plus the index of the lowest set bit, ``None`` for 0."""
        return start + (bits & -bits).bit_length() - 1 if bits else None

    def find_free(self, start: int = 0) -> Optional[int]:
        """First clear bit at or after *start*, or ``None`` if full."""
        return self._lowest(self._free(start), start)

    def find_free_run(self, length: int, start: int = 0) -> Optional[int]:
        """First run of *length* clear bits at or after *start*, or
        ``None``."""
        if length < 1:
            raise ValueError("run length must be at least 1")
        # After folding, bit i is set iff bits i .. i+length-1 are free.
        runs = self._free(start)
        have = 1
        while have < length and runs:
            step = min(have, length - have)
            runs &= runs >> step
            have += step
        return self._lowest(runs, start)

    def count_set(self) -> int:
        return self.nbits - self.count_free()

    def count_free(self) -> int:
        return bin(self._free(0)).count("1")

    def iter_set(self) -> Iterator[int]:
        free = format(self._free(0), "b").zfill(self.nbits)[::-1]  # bit 0 first
        i = free.find("0")
        while i >= 0:
            yield i
            i = free.find("0", i + 1)

    # -- serialization -----------------------------------------------------

    def to_bytes(self, pad_to: Optional[int] = None) -> bytes:
        data = bytes(self._bytes)
        if pad_to is not None:
            if pad_to < len(data):
                raise ValueError("pad_to smaller than bitmap payload")
            data = data + b"\x00" * (pad_to - len(data))
        return data

    @classmethod
    def from_bytes(cls, nbits: int, raw: bytes) -> "Bitmap":
        return cls(nbits, raw=raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self._bytes == other._bytes

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits}, set={self.count_set()})"
