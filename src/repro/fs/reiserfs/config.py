"""ReiserFS volume geometry.

Layout:

    block 0                      superblock
    1 .. 1+Jn-1                  journal region (header + log)
    then bitmap blocks           whole-device data bitmap
    then the pool                tree nodes and unformatted data blocks

``max_leaf_items`` / ``max_fanout`` shrink node capacities so tree
splits and multi-level trees arise with tiny images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class ReiserConfig:
    block_size: int = 1024
    total_blocks: int = 640
    journal_blocks: int = 64
    max_leaf_items: int = 8
    max_fanout: int = 6
    indirect_ptrs_per_item: int = 16
    #: Files at or below this size live in a direct item (tail).
    tail_threshold: int = 256

    def __post_init__(self) -> None:
        if self.block_size % 512 or self.block_size < 512:
            raise ValueError("block_size must be a multiple of 512")
        if self.journal_blocks < 8:
            raise ValueError("journal needs at least 8 blocks")
        if self.max_fanout < 3 or self.max_leaf_items < 2:
            raise ValueError("tree capacities too small")
        if self.tail_threshold >= self.block_size:
            raise ValueError("tail threshold must be below one block")
        if self.data_start >= self.total_blocks:
            raise ValueError("volume too small for metadata regions")

    @property
    def journal_start(self) -> int:
        return 1

    # Derived layout, computed on first use and kept in the instance
    # ``__dict__`` (as in Ext3Config and JFSConfig): a mount's config is
    # interned, so each geometry works these out once.

    @cached_property
    def bitmap_start(self) -> int:
        return self.journal_start + self.journal_blocks

    @cached_property
    def bitmap_blocks(self) -> int:
        bits_per_block = self.block_size * 8
        return (self.total_blocks + bits_per_block - 1) // bits_per_block

    @cached_property
    def data_start(self) -> int:
        return self.bitmap_start + self.bitmap_blocks
