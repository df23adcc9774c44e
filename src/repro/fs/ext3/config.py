"""ext3 geometry: block groups, journal region, and derived layout.

Real ext3 divides the disk into block groups with statically-reserved
bitmaps, inode tables and data blocks (§5.1).  Our layout:

    block 0                  superblock (primary)
    block 1                  group descriptor table
    blocks J .. J+Jn-1       journal region (journal super + log)
    then per group g:
        +0                   superblock backup (written at mkfs, never
                             updated afterwards — the paper's finding)
        +1                   block bitmap
        +2                   inode bitmap
        +3 .. +3+itb-1       inode table
        rest                 data area (file data, directories,
                             indirect blocks)

mkfs parameters shrink images so deep indirect chains are cheap to
exercise; ``ptrs_per_block`` caps the pointers stored per indirect
block (defaults to the natural block_size // 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

INODE_SIZE = 128
POINTER_SIZE = 4
NUM_DIRECT = 12

#: Inode numbers: 0 invalid, 1 reserved (bad blocks), 2 root.
ROOT_INO = 2
FIRST_FREE_INO = 3


@dataclass(frozen=True)
class Ext3Config:
    """mkfs-time parameters."""

    block_size: int = 1024
    blocks_per_group: int = 256
    inodes_per_group: int = 64
    num_groups: int = 2
    journal_blocks: int = 64
    #: Pointers per indirect block; small values make triple-indirect
    #: files reachable with tiny images.  None = block_size // 4.
    ptrs_per_block: Optional[int] = None

    # ixt3 feature regions (0 blocks for plain ext3).
    checksum_blocks: int = 0
    replica_blocks: int = 0

    def __post_init__(self) -> None:
        if self.block_size % 512 or self.block_size < 512:
            raise ValueError("block_size must be a multiple of 512")
        if self.inodes_per_group % self.inodes_per_block:
            raise ValueError("inodes_per_group must fill whole inode-table blocks")
        if self.effective_ptrs < 2:
            raise ValueError("need at least 2 pointers per indirect block")
        if self.journal_blocks < 8:
            raise ValueError("journal needs at least 8 blocks")

    # -- derived quantities --------------------------------------------------

    @cached_property
    def inodes_per_block(self) -> int:
        return self.block_size // INODE_SIZE

    @cached_property
    def inode_table_blocks(self) -> int:
        return self.inodes_per_group // self.inodes_per_block

    @cached_property
    def effective_ptrs(self) -> int:
        natural = self.block_size // POINTER_SIZE
        if self.ptrs_per_block is None:
            return natural
        return min(self.ptrs_per_block, natural)

    @cached_property
    def group_overhead_blocks(self) -> int:
        # sb backup + block bitmap + inode bitmap + inode table
        return 3 + self.inode_table_blocks

    @cached_property
    def data_blocks_per_group(self) -> int:
        n = self.blocks_per_group - self.group_overhead_blocks
        if n <= 0:
            raise ValueError("blocks_per_group too small for group metadata")
        return n

    @cached_property
    def total_inodes(self) -> int:
        return self.inodes_per_group * self.num_groups

    # -- absolute layout -------------------------------------------------------

    @property
    def super_block(self) -> int:
        return 0

    @property
    def gdt_block(self) -> int:
        return 1

    @property
    def journal_start(self) -> int:
        return 2

    @cached_property
    def checksum_start(self) -> int:
        return self.journal_start + self.journal_blocks

    @cached_property
    def replica_start(self) -> int:
        return self.checksum_start + self.checksum_blocks

    @cached_property
    def groups_start(self) -> int:
        return self.replica_start + self.replica_blocks

    @cached_property
    def total_blocks(self) -> int:
        return self.groups_start + self.num_groups * self.blocks_per_group

    @cached_property
    def _group_bases(self) -> tuple:
        return tuple(self.groups_start + g * self.blocks_per_group
                     for g in range(self.num_groups))

    def group_base(self, group: int) -> int:
        if group < 0:
            raise ValueError(f"group {group} out of range")
        try:
            return self._group_bases[group]
        except IndexError:
            raise ValueError(f"group {group} out of range") from None

    def sb_backup_block(self, group: int) -> int:
        return self.group_base(group)

    def block_bitmap_block(self, group: int) -> int:
        return self.group_base(group) + 1

    def inode_bitmap_block(self, group: int) -> int:
        return self.group_base(group) + 2

    def inode_table_start(self, group: int) -> int:
        return self.group_base(group) + 3

    def data_start(self, group: int) -> int:
        return self.group_base(group) + self.group_overhead_blocks

    def group_of_block(self, block: int) -> Optional[int]:
        if block < self.groups_start:
            return None
        g = (block - self.groups_start) // self.blocks_per_group
        return g if g < self.num_groups else None

    # -- inode addressing ----------------------------------------------------------

    @cached_property
    def _inode_locations(self) -> tuple:
        """Every inode's location, built once per interned config."""
        ipb = self.inodes_per_block
        return tuple((base + 3 + within // ipb, within % ipb * INODE_SIZE)
                     for base in self._group_bases
                     for within in range(self.inodes_per_group))

    def inode_location(self, ino: int):
        """(absolute block, byte offset) of inode *ino* (1-based)."""
        if not 1 <= ino <= self.total_inodes:
            raise ValueError(f"inode {ino} out of range")
        return self._inode_locations[ino - 1]

    def group_of_inode(self, ino: int) -> int:
        return (ino - 1) // self.inodes_per_group

    # -- file size limits ----------------------------------------------------------

    @cached_property
    def max_file_blocks(self) -> int:
        p = self.effective_ptrs
        return NUM_DIRECT + p + p * p + p * p * p
