"""JFS on-disk structures.

Most JFS metadata blocks carry an entry count that the file system
sanity-checks against the maximum possible for the block type (§5.3);
the block allocation map additionally stores its free count *twice*
and verifies the two fields agree (the paper's "equality check on a
field").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import List, Optional, Tuple

from repro.common.bitmap import Bitmap
from repro.common.errors import CorruptionDetected
from repro.common.structs import DecodeMemo, U16x2, U32x2, U32x3, frozen_record, u32_seq

JFS_MAGIC = 0x3153464A  # "JFS1"
JFS_VERSION = 2

_SB_STRUCT = Struct("<IIIIIIIIIIII")
_SB_MEMO = DecodeMemo(64)


@dataclass
class JFSSuper:
    """Contains info about file system (Table 4)."""

    magic: int
    version: int
    block_size: int
    total_blocks: int
    free_blocks: int
    free_inodes: int
    num_inodes: int
    journal_blocks: int
    num_direct: int
    tree_fanout: int
    state: int = 0
    generation: int = 0

    def pack(self, block_size: int) -> bytes:
        payload = _SB_STRUCT.pack(
            self.magic, self.version, self.block_size,
            self.total_blocks, self.free_blocks, self.free_inodes,
            self.num_inodes, self.journal_blocks, self.num_direct,
            self.tree_fanout, self.state, self.generation,
        )
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "JFSSuper":
        return cls(*(_SB_MEMO.get(data)
                     or _SB_MEMO.put(_SB_STRUCT.unpack_from(data), data)))

    def is_valid(self) -> bool:
        """Magic and version check (D_sanity, §5.3)."""
        return (
            self.magic == JFS_MAGIC
            and self.version == JFS_VERSION
            and self.block_size >= 512
            and self.total_blocks > 0
        )


_INODE_STRUCT = Struct("<HHHHQddd8IIII")
INODE_USED = _INODE_STRUCT.size
_INODE_MEMO = DecodeMemo(256)


@dataclass
class JFSInode:
    """Info about files and directories (Table 4)."""

    mode: int = 0
    links: int = 0
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    direct: List[int] = field(default_factory=lambda: [0] * 8)
    tree_root: int = 0
    tree_levels: int = 0
    nblocks: int = 0

    def pack(self, inode_size: int) -> bytes:
        payload = _INODE_STRUCT.pack(
            self.mode, self.links, self.uid, self.gid,
            self.size, self.atime, self.mtime, self.ctime,
            *self.direct, self.tree_root, self.tree_levels, self.nblocks,
        )
        return payload + b"\x00" * (inode_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "JFSInode":
        """A fresh inode, to change, from the shared record of *data*."""
        return cls.from_record(inode_record(data))

    @classmethod
    def from_record(cls, rec: "JFSInodeRecord") -> "JFSInode":
        return cls(*rec[:8], list(rec.direct), *rec[9:])

    @property
    def is_allocated(self) -> bool:
        return self.links > 0 or self.mode != 0


JFSInodeRecord = frozen_record(JFSInode, "JFSInodeRecord")


def inode_record(data: bytes) -> JFSInodeRecord:
    """The shared decode of one inode slot."""
    rec = _INODE_MEMO.get(data)
    if rec is None:
        f = _INODE_STRUCT.unpack_from(data)
        rec = _INODE_MEMO.put(JFSInodeRecord(*f[:8], f[8:16], *f[16:]), data)
    return rec


def pack_inode_block(inodes: List[Optional[JFSInode]], block_size: int,
                     inode_size: int) -> bytes:
    """Inode extent block: header carries the used-slot count, which
    JFS sanity-checks against the maximum (§5.3)."""
    count = sum(1 for i in inodes if i is not None and i.is_allocated)
    out = bytearray(U32x2.pack(count, 0))
    for inode in inodes:
        raw = (inode or JFSInode()).pack(inode_size)
        out += raw
    out += b"\x00" * (block_size - len(out))
    return bytes(out)


def iter_allocated_inodes(data, inodes_per_block: int, inode_size: int):
    """Yield the raw field tuple (``JFSInode.unpack``'s order: direct
    pointers at 8..15, then tree root, levels, nblocks) of each
    allocated slot in one inode block, skipping free slots on a
    two-field probe — the type-oracle walk visits every slot and needs
    no :class:`JFSInode`.  Accepts ``bytes`` or a zero-copy
    ``memoryview``."""
    probe = U16x2.unpack_from
    unpack = _INODE_STRUCT.unpack_from
    for off in range(8, 8 + inodes_per_block * inode_size, inode_size):
        mode, links = probe(data, off)
        if links or mode:  # JFSInode.is_allocated
            yield unpack(data, off)


def check_inode_block(data: bytes, block: int, inodes_per_block: int) -> None:
    count, _ = U32x2.unpack_from(data)
    if count > inodes_per_block:
        raise CorruptionDetected(block, f"inode block count {count} exceeds maximum")


_DIR_HDR = U32x2  # nentries, pad
_DIRENT_HDR = Struct("<IBB")
_DIR_MEMO = DecodeMemo(128)


def pack_dir_block(entries: List[Tuple[int, int, str]], block_size: int) -> bytes:
    """Directory block: header count + (ino, ftype, name) entries."""
    out = bytearray(_DIR_HDR.pack(len(entries), 0))
    for ino, ftype, name in entries:
        raw = name.encode("latin-1", errors="replace")[:255]
        out += _DIRENT_HDR.pack(ino, ftype & 0xFF, len(raw)) + raw
    if len(out) > block_size:
        raise ValueError("directory block overflow")
    return bytes(out) + b"\x00" * (block_size - len(out))


def unpack_dir_block(data: bytes, block: int, block_size: int) -> List[Tuple[int, int, str]]:
    """Parse a directory block, sanity-checking the entry count (§5.3)."""
    seen = _DIR_MEMO.get(data, block_size)
    if seen is not None:
        return list(seen)
    nentries, _ = _DIR_HDR.unpack_from(data)
    max_entries = (block_size - 8) // 6
    if nentries > max_entries:
        raise CorruptionDetected(block, f"directory entry count {nentries} exceeds maximum")
    out: List[Tuple[int, int, str]] = []
    off = 8
    for _ in range(nentries):
        if off + 6 > len(data):
            raise CorruptionDetected(block, "directory entry runs off the block")
        ino, ftype, nlen = _DIRENT_HDR.unpack_from(data, off)
        off += 6
        name = data[off:off + nlen].decode("latin-1")
        off += nlen
        out.append((ino, ftype, name))
    _DIR_MEMO.put(tuple(out), data, block_size)
    return out


_TREE_HDR = Struct("<HHI")  # level, count, pad
_TREE_MEMO = DecodeMemo(128)


def pack_tree_block(level: int, pointers: List[int], block_size: int,
                    fanout: int) -> bytes:
    """Internal (extent tree) block: level + pointer count + pointers."""
    if len(pointers) > fanout:
        raise ValueError("tree block overflow")
    out = bytearray(_TREE_HDR.pack(level, len(pointers), 0))
    out += u32_seq(len(pointers)).pack(*pointers)
    return bytes(out) + b"\x00" * (block_size - len(out))


def unpack_tree_block(data: bytes, block: int, fanout: int) -> Tuple[int, List[int]]:
    """Parse an internal block, checking the pointer count (§5.3)."""
    seen = _TREE_MEMO.get(data, fanout)
    if seen is None:
        level, count, _ = _TREE_HDR.unpack_from(data)
        if count > fanout or level == 0 or level > 4:
            raise CorruptionDetected(block, f"tree block level={level} count={count} invalid")
        seen = _TREE_MEMO.put((level, u32_seq(count).unpack_from(data, 8)), data, fanout)
    return seen[0], list(seen[1])


_MAP_HDR = U32x2  # free count, free count copy (equality-checked)


def pack_map_block(bmp: Bitmap, block_size: int) -> bytes:
    free = bmp.count_free()
    return _MAP_HDR.pack(free, free) + bmp.to_bytes(pad_to=block_size - 8)


def unpack_map_block(data: bytes, block: int, nbits: int) -> Bitmap:
    """Parse an allocation-map page, performing JFS's equality check on
    the duplicated free-count field (§5.3)."""
    free_a, free_b = _MAP_HDR.unpack_from(data)
    if free_a != free_b:
        raise CorruptionDetected(block, "allocation map free-count fields disagree")
    bmp = Bitmap(nbits, data[8:])
    if bmp.count_free() != free_a:
        raise CorruptionDetected(block, "allocation map free count does not match bits")
    return bmp


_AGGR_STRUCT = Struct("<IIIII")  # magic, bmap_desc, imap_cntl, log_start, generation
_AGGR_MEMO = DecodeMemo(64)
AGGR_MAGIC = 0x41475232  # "AGR2"


@dataclass
class AggregateInode:
    """Special inode describing the disk partition (Table 4): locates
    the allocation maps and the journal."""

    magic: int
    bmap_desc: int
    imap_cntl: int
    log_start: int
    generation: int = 0

    def pack(self, block_size: int) -> bytes:
        payload = _AGGR_STRUCT.pack(self.magic, self.bmap_desc,
                                    self.imap_cntl, self.log_start, self.generation)
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "AggregateInode":
        return cls(*(_AGGR_MEMO.get(data)
                     or _AGGR_MEMO.put(_AGGR_STRUCT.unpack_from(data), data)))

    def is_valid(self) -> bool:
        return self.magic == AGGR_MAGIC


_BMAPDESC_STRUCT = U32x3  # total blocks, nmaps, pad


def pack_bmap_desc(total_blocks: int, nmaps: int, block_size: int) -> bytes:
    payload = _BMAPDESC_STRUCT.pack(total_blocks, nmaps, 0)
    return payload + b"\x00" * (block_size - len(payload))


_IMAPCTL_STRUCT = U32x3  # num inodes, free inodes, next search hint


def pack_imap_control(num_inodes: int, free_inodes: int, hint: int,
                      block_size: int) -> bytes:
    payload = _IMAPCTL_STRUCT.pack(num_inodes, free_inodes, hint)
    return payload + b"\x00" * (block_size - len(payload))
