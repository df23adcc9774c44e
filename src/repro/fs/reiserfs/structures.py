"""ReiserFS on-disk structures outside the tree: superblock and item
bodies (stat, directory-entry, indirect, direct)."""

from __future__ import annotations

from dataclasses import dataclass
from struct import Struct
from typing import List, Optional, Tuple

from repro.common.checksum import crc32
from repro.common.structs import DecodeMemo, U32, interned, u32_seq
from repro.fs.reiserfs.config import ReiserConfig

REISER_MAGIC = b"ReIsErFs"

_SB_STRUCT = Struct("<8sIIIIIIIIIIIH")
_SB_SIZE = _SB_STRUCT.size
_SB_MEMO = DecodeMemo(64)

#: Root object identity: (dirid, objectid).
ROOT_KEY_PAIR = (1, 2)


@dataclass
class ReiserSuper:
    """Contains info about tree and file system (Table 4)."""

    magic: bytes
    block_size: int
    total_blocks: int
    free_blocks: int
    root_block: int
    height: int
    next_objid: int
    journal_start: int
    journal_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    data_start: int
    state: int = 0
    nobjects: int = 1

    def pack(self, block_size: int) -> bytes:
        payload = _SB_STRUCT.pack(
            self.magic, self.block_size, self.total_blocks, self.free_blocks,
            self.root_block, self.height, self.next_objid, self.journal_start,
            self.journal_blocks, self.bitmap_start, self.bitmap_blocks,
            self.data_start, self.state,
        ) + U32.pack(self.nobjects)
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "ReiserSuper":
        return cls(*(_SB_MEMO.get(data) or _SB_MEMO.put(
            _SB_STRUCT.unpack_from(data) + U32.unpack_from(data, _SB_SIZE), data)))

    def is_valid(self) -> bool:
        """ReiserFS superblock magic check (D_sanity, §5.2)."""
        return (
            self.magic == REISER_MAGIC
            and self.block_size >= 512
            and 0 < self.root_block < self.total_blocks
            and 1 <= self.height <= 7
        )

    def checked_config(self) -> Optional[ReiserConfig]:
        """What mount decodes: the interned :class:`ReiserConfig` of a
        superblock that passes :meth:`is_valid` and records a geometry
        the config accepts, else None (a bad superblock either way)."""
        if not self.is_valid():
            return None
        try:
            return interned(ReiserConfig, block_size=self.block_size,
                            total_blocks=self.total_blocks,
                            journal_blocks=self.journal_blocks)
        except ValueError:
            return None


_STAT_STRUCT = Struct("<HHHHQddd")
STAT_BODY_SIZE = _STAT_STRUCT.size


@dataclass
class StatBody:
    """Stat item: info about files and directories (Table 4)."""

    mode: int = 0
    links: int = 0
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0

    def pack(self) -> bytes:
        return _STAT_STRUCT.pack(
            self.mode, self.links, self.uid, self.gid,
            self.size, self.atime, self.mtime, self.ctime,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "StatBody":
        return cls(*_STAT_STRUCT.unpack_from(data))


_DIRENT_HDR = Struct("<IIBB")


def pack_dirent_body(child: Tuple[int, int], ftype: int, name: str) -> bytes:
    raw = name.encode("latin-1", errors="replace")[:255]
    return _DIRENT_HDR.pack(child[0], child[1], ftype & 0xFF, len(raw)) + raw


def unpack_dirent_body(data: bytes) -> Tuple[Tuple[int, int], int, str]:
    dirid, objid, ftype, nlen = _DIRENT_HDR.unpack_from(data)
    name = data[10:10 + nlen].decode("latin-1")
    return (dirid, objid), ftype, name


def pack_indirect_body(pointers: List[int]) -> bytes:
    return u32_seq(len(pointers)).pack(*pointers)


def unpack_indirect_body(data: bytes) -> List[int]:
    n = len(data) // 4
    return list(u32_seq(n).unpack_from(data))


def name_hash(name: str) -> int:
    """Deterministic directory-entry hash offset.  Offsets below 16 are
    reserved ('.' at 2, '..' at 3, stat item at 0)."""
    if name == ".":
        return 2
    if name == "..":
        return 3
    return (crc32(name.encode()) & 0x7FFFFFF0) + 16
