"""JFS volume geometry.

Layout (note the paper's observation that JFS keeps its redundant
copies in *close proximity*, making them vulnerable to spatially-local
faults — the secondary superblock sits right next to the primary, and
the secondary aggregate-inode table right after the primary one):

    block 0                      primary superblock
    block 1                      secondary superblock (adjacent!)
    block 2                      journal superblock
    3 .. 3+Jn-1                  journal data region
    then                         aggregate inode table (primary)
    then                         aggregate inode table (secondary)
    then                         bmap descriptor
    then                         bmap pages (block allocation map)
    then                         imap control
    then                         imap pages (inode allocation map)
    then                         inode extent blocks
    rest                         data area (files, directories,
                                 internal tree blocks)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class JFSConfig:
    block_size: int = 1024
    total_blocks: int = 768
    journal_blocks: int = 48
    num_inodes: int = 98  # 14 inode blocks of 7 slots at 1 KB blocks
    #: Pointers in an inode before the extent tree kicks in.
    num_direct: int = 8
    #: Pointers per internal (extent tree) block.
    tree_fanout: int = 16
    inode_size: int = 128

    def __post_init__(self) -> None:
        if self.block_size % 512 or self.block_size < 512:
            raise ValueError("block_size must be a multiple of 512")
        if self.num_inodes % self.inodes_per_block:
            raise ValueError("num_inodes must fill whole inode blocks")
        if self.data_start >= self.total_blocks:
            raise ValueError("volume too small for metadata regions")

    # Derived layout: a pure function of the frozen fields, computed on
    # first use and kept in the instance ``__dict__`` — not fields, so
    # equality, hash, repr and ``dataclasses.replace`` do not see them.

    @cached_property
    def inodes_per_block(self) -> int:
        # One header word pair precedes the inode slots.
        return (self.block_size - 8) // self.inode_size

    @property
    def journal_super(self) -> int:
        return 2

    @property
    def journal_data_start(self) -> int:
        return 3

    @cached_property
    def aggr_inode_block(self) -> int:
        return self.journal_data_start + self.journal_blocks

    @cached_property
    def aggr_inode_secondary(self) -> int:
        return self.aggr_inode_block + 1

    @cached_property
    def bmap_desc_block(self) -> int:
        return self.aggr_inode_secondary + 1

    @cached_property
    def bmap_start(self) -> int:
        return self.bmap_desc_block + 1

    @cached_property
    def bmap_blocks(self) -> int:
        bits = (self.block_size - 16) * 8
        return (self.total_blocks + bits - 1) // bits

    @cached_property
    def imap_control_block(self) -> int:
        return self.bmap_start + self.bmap_blocks

    @cached_property
    def imap_start(self) -> int:
        return self.imap_control_block + 1

    @cached_property
    def imap_blocks(self) -> int:
        bits = (self.block_size - 16) * 8
        return (self.num_inodes + bits - 1) // bits

    @cached_property
    def inode_table_start(self) -> int:
        return self.imap_start + self.imap_blocks

    @cached_property
    def inode_table_blocks(self) -> int:
        return self.num_inodes // self.inodes_per_block

    @cached_property
    def data_start(self) -> int:
        return self.inode_table_start + self.inode_table_blocks

    @cached_property
    def max_file_blocks(self) -> int:
        # What ``JFS._bmap_inner`` addresses: the direct slots plus a
        # two-level extent tree.
        return self.num_direct + self.tree_fanout ** 2

    def inode_location(self, ino: int):
        """(block, byte offset) of inode *ino* (1-based; ino 2 = root)."""
        if not 1 <= ino <= self.num_inodes:
            raise ValueError(f"inode {ino} out of range")
        idx = ino - 1
        block_off, slot = divmod(idx, self.inodes_per_block)
        return self.inode_table_start + block_off, 8 + slot * self.inode_size
