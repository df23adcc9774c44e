"""ext3 on-disk structures: superblock, group descriptors, inodes,
directory entries — serialized with :mod:`struct` so corruption faults
operate on real bytes."""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import List, NamedTuple, Tuple

from repro.common.structs import DecodeMemo, U16x2, frozen_record, interned, u32_seq
from repro.fs.ext3.config import INODE_SIZE, NUM_DIRECT, Ext3Config
from repro.vfs.stat import FT_DIR, FT_REG, FT_SYMLINK  # noqa: F401  (re-exported)

EXT3_MAGIC = 0xEF53

# Superblock state.
STATE_CLEAN = 1
STATE_DIRTY = 2

# Feature flags (ixt3).
FEAT_META_CSUM = 1 << 0
FEAT_DATA_CSUM = 1 << 1
FEAT_META_REPLICA = 1 << 2
FEAT_DATA_PARITY = 1 << 3
FEAT_TXN_CSUM = 1 << 4

_SB_STRUCT = Struct("<IIIIIIIIIIIIIIIHHIIIII")
_SB_SIZE = _SB_STRUCT.size
_SB_MEMO = DecodeMemo(64)


@dataclass
class Superblock:
    """Contains info about the file system (Table 4)."""

    magic: int
    block_size: int
    blocks_count: int
    inodes_count: int
    free_blocks: int
    free_inodes: int
    blocks_per_group: int
    inodes_per_group: int
    num_groups: int
    journal_start: int
    journal_blocks: int
    groups_start: int
    ptrs_per_block: int
    checksum_start: int
    checksum_blocks: int
    state: int = STATE_CLEAN
    mount_count: int = 0
    features: int = 0
    replica_start: int = 0
    replica_blocks: int = 0
    first_free_ino_hint: int = 3
    generation: int = 0

    @classmethod
    def for_config(cls, config: Ext3Config, features: int = 0) -> "Superblock":
        total_data = config.data_blocks_per_group * config.num_groups
        return cls(
            magic=EXT3_MAGIC,
            block_size=config.block_size,
            blocks_count=config.total_blocks,
            inodes_count=config.total_inodes,
            free_blocks=total_data,
            free_inodes=config.total_inodes - 2,  # 1 reserved, 2 root
            blocks_per_group=config.blocks_per_group,
            inodes_per_group=config.inodes_per_group,
            num_groups=config.num_groups,
            journal_start=config.journal_start,
            journal_blocks=config.journal_blocks,
            groups_start=config.groups_start,
            ptrs_per_block=config.effective_ptrs,
            checksum_start=config.checksum_start,
            checksum_blocks=config.checksum_blocks,
            features=features,
            replica_start=config.replica_start,
            replica_blocks=config.replica_blocks,
        )

    def config(self) -> Ext3Config:
        """The geometry this superblock records: the interned config
        every mount and check of the same geometry shares."""
        return interned(
            Ext3Config,
            block_size=self.block_size,
            blocks_per_group=self.blocks_per_group,
            inodes_per_group=self.inodes_per_group,
            num_groups=self.num_groups,
            journal_blocks=self.journal_blocks,
            ptrs_per_block=self.ptrs_per_block,
            checksum_blocks=self.checksum_blocks,
            replica_blocks=self.replica_blocks,
        )

    def pack(self, block_size: int) -> bytes:
        # The free and mount counters are stored the way the kernel's
        # le32 arithmetic leaves them: a count driven below zero by a
        # damaged descriptor wraps instead of refusing to pack.
        payload = _SB_STRUCT.pack(
            self.magic,
            self.block_size,
            self.blocks_count,
            self.inodes_count,
            self.free_blocks & 0xFFFFFFFF,
            self.free_inodes & 0xFFFFFFFF,
            self.blocks_per_group,
            self.inodes_per_group,
            self.num_groups,
            self.journal_start,
            self.journal_blocks,
            self.groups_start,
            self.ptrs_per_block,
            self.checksum_start,
            self.checksum_blocks,
            self.state,
            0,  # pad
            self.mount_count & 0xFFFFFFFF,
            self.features,
            self.replica_start,
            self.replica_blocks,
            self.first_free_ino_hint,
        )
        return payload + b"\x00" * (block_size - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "Superblock":
        fields = _SB_MEMO.get(data)
        if fields is None:
            f = _SB_STRUCT.unpack_from(data)
            # Declaration order, less the pad after ``state``.
            fields = _SB_MEMO.put(f[:16] + f[17:], data)
        return cls(*fields)

    def is_valid(self) -> bool:
        """The sanity (type) check ext3 performs on its superblock.  The
        group-descriptor table is one block, so a group count whose
        descriptors overrun it is garbage too."""
        return (
            self.magic == EXT3_MAGIC
            and self.block_size >= 512
            and self.blocks_count > 0
            and 0 < self.num_groups * _GD_SIZE <= self.block_size
        )


_GD_STRUCT = Struct("<IIIHHII")
_GD_SIZE = _GD_STRUCT.size
_GDT_MEMO = DecodeMemo(64)


@dataclass
class GroupDescriptor:
    """Holds info about each block group (Table 4)."""

    block_bitmap: int
    inode_bitmap: int
    inode_table: int
    free_blocks: int
    free_inodes: int
    data_start: int
    data_blocks: int

    def pack(self) -> bytes:
        # le16 counters, wrapped as the kernel's arithmetic leaves them.
        return _GD_STRUCT.pack(
            self.block_bitmap,
            self.inode_bitmap,
            self.inode_table,
            self.free_blocks & 0xFFFF,
            self.free_inodes & 0xFFFF,
            self.data_start,
            self.data_blocks,
        )


def pack_gdt(descriptors: List[GroupDescriptor], block_size: int) -> bytes:
    payload = b"".join(d.pack() for d in descriptors)
    if len(payload) > block_size:
        raise ValueError("group descriptor table exceeds one block")
    return payload + b"\x00" * (block_size - len(payload))


def unpack_gdt(data: bytes, num_groups: int) -> List[GroupDescriptor]:
    rows = _GDT_MEMO.get(data, num_groups)
    if rows is None:
        unpack = _GD_STRUCT.unpack_from
        rows = _GDT_MEMO.put(
            tuple(unpack(data, g * _GD_SIZE) for g in range(num_groups)),
            data, num_groups)
    return [GroupDescriptor(*row) for row in rows]


_INODE_STRUCT = Struct("<HHHHQdddI" + "I" * NUM_DIRECT + "IIIIII")
_INODE_USED = _INODE_STRUCT.size
assert _INODE_USED <= INODE_SIZE, _INODE_USED
#: :class:`InodeRecord` per 128-byte slot, not per table block: the
#: memo retains the slot alone, and a neighbour changing evicts nothing.
_INODE_MEMO = DecodeMemo(256)


@dataclass(slots=True)
class Inode:
    """Info about files and directories (Table 4).

    An imbalanced tree: 12 direct pointers, then single, double and
    triple indirect blocks support large files (§4.1).
    """

    mode: int = 0
    links: int = 0
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    nblocks: int = 0  # data blocks mapped (not counting indirect blocks)
    direct: List[int] = field(default_factory=lambda: [0] * NUM_DIRECT)
    indirect: int = 0
    dindirect: int = 0
    tindirect: int = 0
    flags: int = 0
    parity_block: int = 0  # ixt3 Dp: the file's parity block
    generation: int = 0

    def pack(self) -> bytes:
        payload = _INODE_STRUCT.pack(
            self.mode,
            self.links,
            self.uid,
            self.gid,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
            self.nblocks,
            *self.direct,
            self.indirect,
            self.dindirect,
            self.tindirect,
            self.flags,
            self.parity_block,
            self.generation,
        )
        return payload + b"\x00" * (INODE_SIZE - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "Inode":
        """A fresh inode, to change, from the shared record of *data*."""
        return cls.from_record(inode_record(data))

    @classmethod
    def from_record(cls, rec: "InodeRecord") -> "Inode":
        return cls(*rec[:9], list(rec.direct), *rec[10:])

    @property
    def is_allocated(self) -> bool:
        return self.links > 0 or self.mode != 0


InodeRecord = frozen_record(Inode, "InodeRecord")


def inode_record(data: bytes) -> InodeRecord:
    """The shared decode of one 128-byte inode slot."""
    rec = _INODE_MEMO.get(data)
    if rec is None:
        f = _INODE_STRUCT.unpack_from(data)
        rec = _INODE_MEMO.put(InodeRecord(
            *f[:9], f[9:9 + NUM_DIRECT], *f[9 + NUM_DIRECT:]), data)
    return rec


_DIRENT_HDR = Struct("<IBB")


class DirEntry(NamedTuple):
    """One directory entry: list-of-files-in-directory record — the
    ``(child, ftype, name)`` triple the generic directory layer trades
    in, so a parsed block needs no conversion on the lookup path."""

    ino: int
    ftype: int
    name: str

    def pack(self) -> bytes:
        return pack_dirent(*self)


def pack_dirent(ino: int, ftype: int, name: str) -> bytes:
    # latin-1 keeps one byte per character, so even garbage names
    # recovered from a corrupted block repack at the same length.
    raw = name.encode("latin-1", errors="replace")[:255]
    return _DIRENT_HDR.pack(ino & 0xFFFFFFFF, len(raw), ftype & 0xFF) + raw


def pack_dir_block(entries: List[Tuple[int, int, str]], block_size: int) -> bytes:
    payload = b"".join(pack_dirent(*e) for e in entries)
    if len(payload) > block_size:
        raise ValueError("directory entries exceed one block")
    return payload + b"\x00" * (block_size - len(payload))


_DIR_MEMO = DecodeMemo(128)


def unpack_dir_block(data: bytes) -> List[DirEntry]:
    """A directory block's entries, in a fresh list to change."""
    return list(dir_block_record(data))


def dir_block_record(data: bytes) -> Tuple[DirEntry, ...]:
    """Parse a directory block into the entries every reader shares:
    deliberately tolerant, as ext3 performs *no* type checking on
    directory blocks (§5.1), so garbage parses into garbage entries or an
    early stop — exactly the blind behaviour the paper documents."""
    cached = _DIR_MEMO.get(data)
    if cached is not None:
        return cached
    entries: List[DirEntry] = []
    off = 0
    n = len(data)
    unpack_hdr = _DIRENT_HDR.unpack_from
    while off + 6 <= n:
        ino, name_len, ftype = unpack_hdr(data, off)
        if ino == 0 and name_len == 0:
            break
        off += 6
        if off + name_len > n:
            break
        name = data[off:off + name_len].decode("latin-1")
        off += name_len
        if ino != 0:
            entries.append(DirEntry(ino, ftype, name))
    return _DIR_MEMO.put(tuple(entries), data)


def pack_pointer_block(pointers: List[int], block_size: int, nptrs: int) -> bytes:
    """Serialize an indirect block: nptrs 4-byte little-endian pointers."""
    if len(pointers) != nptrs:
        raise ValueError("pointer list must exactly fill the block layout")
    payload = u32_seq(nptrs).pack(*pointers)
    return payload + b"\x00" * (block_size - len(payload))


_POINTER_MEMO = DecodeMemo(128)


def unpack_pointer_block(data: bytes, nptrs: int) -> List[int]:
    """An indirect block's pointers, in a fresh list to change."""
    return list(pointer_block_record(data, nptrs))


def pointer_block_record(data: bytes, nptrs: int) -> Tuple[int, ...]:
    """An indirect block's pointers, in the tuple every reader shares."""
    return (_POINTER_MEMO.get(data, nptrs)
            or _POINTER_MEMO.put(u32_seq(nptrs).unpack_from(data), data, nptrs))


def iter_allocated_inodes(table_block_payload, inodes_per_block: int):
    """Yield ``(slot, raw-field tuple)`` (:class:`Inode`'s field order)
    for each allocated slot of one table block, ``bytes`` or a
    ``memoryview``, skipping free slots on a two-field header probe."""
    probe = U16x2.unpack_from
    unpack = _INODE_STRUCT.unpack_from
    for slot in range(inodes_per_block):
        off = slot * INODE_SIZE
        mode, links = probe(table_block_payload, off)
        if links == 0 and mode == 0:
            continue  # Inode.is_allocated is False
        yield slot, unpack(table_block_payload, off)


def patch_inode_block(table_block_payload: bytes, offset: int, inode: Inode) -> bytes:
    raw = bytearray(table_block_payload)
    raw[offset:offset + INODE_SIZE] = inode.pack()
    return bytes(raw)
