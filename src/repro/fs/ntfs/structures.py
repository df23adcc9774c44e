"""NTFS on-disk structures (simplified; the paper's own analysis of
NTFS is partial because it is closed-source, §5.4).

Every metadata block carries a magic number — NTFS performs strong
sanity checking on metadata and the volume becomes unmountable if any
metadata block other than the journal is corrupted.  Block *pointers*,
however, are not validated: a corrupted run pointer silently targets
whatever it happens to name (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import List, Tuple

from repro.common.errors import CorruptionDetected
from repro.common.structs import DecodeMemo, frozen_record

BOOT_MAGIC = b"NTFS    "
FILE_MAGIC = b"FILE"
INDX_MAGIC = b"INDX"

#: MFT record numbers 0-15 are reserved for system files; 5 is the
#: root directory, as on real NTFS.
ROOT_MFT = 5
FIRST_USER_MFT = 16

#: Data runs stored inline in an MFT record.
NUM_RUNS = 48

_BOOT_STRUCT = Struct("<8sIIIIIIII")
_BOOT_MEMO = DecodeMemo(64)


@dataclass(frozen=True)
class BootFile:
    """Contains info about the NTFS volume (Table 4).  Never modified
    after mkfs; frozen so it can key the type-oracle memo."""

    magic: bytes
    block_size: int
    total_blocks: int
    mft_start: int
    mft_records: int
    logfile_start: int
    logfile_blocks: int
    vol_bitmap_start: int
    mft_bitmap_block: int

    def pack(self, block_size: int) -> bytes:
        payload = _BOOT_STRUCT.pack(
            self.magic, self.block_size, self.total_blocks,
            self.mft_start, self.mft_records, self.logfile_start,
            self.logfile_blocks, self.vol_bitmap_start, self.mft_bitmap_block,
        )
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "BootFile":
        # Frozen, so the memo holds the decoded object itself.
        return (_BOOT_MEMO.get(data)
                or _BOOT_MEMO.put(cls(*_BOOT_STRUCT.unpack_from(data)), data))

    def is_valid(self) -> bool:
        return self.magic == BOOT_MAGIC and self.block_size >= 512


FLAG_IN_USE = 1
FLAG_IS_DIR = 2

_MFT_STRUCT = Struct("<4sHHHHIIQddd" + f"{NUM_RUNS}I")
_MFT_MEMO = DecodeMemo(128)


@dataclass
class MFTRecord:
    """Info about files/directories (Table 4).  One record per block."""

    flags: int = 0
    links: int = 0
    mode: int = 0
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    runs: List[int] = field(default_factory=lambda: [0] * NUM_RUNS)

    def pack(self, block_size: int) -> bytes:
        payload = _MFT_STRUCT.pack(
            FILE_MAGIC, self.flags, self.links, self.uid, self.gid,
            self.mode, 0, self.size, self.atime, self.mtime, self.ctime,
            *self.runs,
        )
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes, block: int) -> "MFTRecord":
        """A fresh record, to change, from the shared decode of *data*."""
        return cls.from_record(mft_record(data, block))

    @classmethod
    def from_record(cls, rec: "FrozenMFTRecord") -> "MFTRecord":
        return cls(*rec[:9], list(rec.runs))

    @property
    def in_use(self) -> bool:
        return bool(self.flags & FLAG_IN_USE)

    @property
    def is_dir(self) -> bool:
        return bool(self.flags & FLAG_IS_DIR)


FrozenMFTRecord = frozen_record(MFTRecord, "FrozenMFTRecord", "in_use", "is_dir")


def mft_record(data: bytes, block: int) -> FrozenMFTRecord:
    """The shared decode of one MFT record block, magic checked."""
    rec = _MFT_MEMO.get(data)
    if rec is None:
        f = _MFT_STRUCT.unpack_from(data)
        if f[0] != FILE_MAGIC:
            raise CorruptionDetected(block, "MFT record magic invalid")
        # Declaration order: flags, links, mode, uid, gid, size, times.
        rec = _MFT_MEMO.put(FrozenMFTRecord(
            f[1], f[2], f[5], f[3], f[4], *f[7:11], f[11:11 + NUM_RUNS]), data)
    return rec


_INDX_HDR = Struct("<4sII")  # magic, nentries, pad
_INDX_ENT = Struct("<IBB")
_INDX_MEMO = DecodeMemo(128)


def pack_index_block(entries: List[Tuple[int, int, str]], block_size: int) -> bytes:
    """Directory index block: INDX magic + entries of (mft#, ftype, name)."""
    out = bytearray(_INDX_HDR.pack(INDX_MAGIC, len(entries), 0))
    for mft, ftype, name in entries:
        raw = name.encode("latin-1", errors="replace")[:255]
        out += _INDX_ENT.pack(mft, ftype & 0xFF, len(raw)) + raw
    if len(out) > block_size:
        raise ValueError("index block overflow")
    return bytes(out) + b"\x00" * (block_size - len(out))


def unpack_index_block(data: bytes, block: int, block_size: int) -> List[Tuple[int, int, str]]:
    seen = _INDX_MEMO.get(data, block_size)
    if seen is not None:
        return list(seen)
    magic, nentries, _ = _INDX_HDR.unpack_from(data)
    if magic != INDX_MAGIC:
        raise CorruptionDetected(block, "index block magic invalid")
    max_entries = (block_size - 12) // 6
    if nentries > max_entries:
        raise CorruptionDetected(block, f"index entry count {nentries} impossible")
    out: List[Tuple[int, int, str]] = []
    off = 12
    for _ in range(nentries):
        if off + 6 > len(data):
            raise CorruptionDetected(block, "index entry runs off the block")
        mft, ftype, nlen = _INDX_ENT.unpack_from(data, off)
        off += 6
        name = data[off:off + nlen].decode("latin-1")
        off += nlen
        out.append((mft, ftype, name))
    _INDX_MEMO.put(tuple(out), data, block_size)
    return out
