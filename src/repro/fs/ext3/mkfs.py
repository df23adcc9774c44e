"""mkfs for ext3/ixt3 volumes.

Writes the superblock (plus its per-group backup copies — which ext3
then never updates, §5.1), group descriptors, bitmaps, inode tables,
the root directory, and a clean journal.
"""

from __future__ import annotations

from repro.common.bitmap import Bitmap
from repro.disk.disk import BlockDevice
from repro.fs.ext3.config import ROOT_INO, Ext3Config
from repro.fs.ext3.journal import pack_journal_super
from repro.fs.ext3.structures import (
    DirEntry,
    FT_DIR,
    GroupDescriptor,
    Inode,
    Superblock,
    pack_dir_block,
    pack_gdt,
    patch_inode_block,
)
from repro.vfs.stat import DEFAULT_DIR_MODE


def mkfs_ext3(device: BlockDevice, config: Ext3Config, features: int = 0) -> Superblock:
    """Format *device* with an ext3 layout.  Returns the superblock."""
    if device.num_blocks < config.total_blocks:
        raise ValueError(
            f"device too small: {device.num_blocks} blocks, layout needs {config.total_blocks}"
        )
    if device.block_size != config.block_size:
        raise ValueError("device block size does not match config")
    bs = config.block_size
    zero = b"\x00" * bs

    sb = Superblock.for_config(config, features=features)

    gdt = []
    for g in range(config.num_groups):
        gdt.append(GroupDescriptor(
            block_bitmap=config.block_bitmap_block(g),
            inode_bitmap=config.inode_bitmap_block(g),
            inode_table=config.inode_table_start(g),
            free_blocks=config.data_blocks_per_group,
            free_inodes=config.inodes_per_group,
            data_start=config.data_start(g),
            data_blocks=config.data_blocks_per_group,
        ))

    # Root directory: first data block of group 0.
    root_block = config.data_start(0)
    root_inode = Inode(mode=DEFAULT_DIR_MODE, links=2, size=bs,
                       atime=1.0, mtime=1.0, ctime=1.0, nblocks=1)
    root_inode.direct[0] = root_block
    gdt[0].free_blocks -= 1
    gdt[0].free_inodes -= 2  # reserved ino 1 + root ino 2
    sb.free_blocks -= 1
    sb.free_inodes = config.total_inodes - 2

    # Journal: clean superblock; the rest of the region parses as
    # nothing (zeroes fail the magic check) so recovery finds no work.
    device.write_block(config.journal_start, pack_journal_super(bs, 1, clean=True))

    # ixt3 regions (no-ops for plain ext3: zero length).
    for i in range(config.checksum_blocks):
        device.write_block(config.checksum_start + i, zero)
    for i in range(config.replica_blocks):
        device.write_block(config.replica_start + i, zero)

    # Per-group metadata.
    for g in range(config.num_groups):
        device.write_block(config.sb_backup_block(g), sb.pack(bs))
        block_bmp = Bitmap(config.data_blocks_per_group)
        inode_bmp = Bitmap(config.inodes_per_group)
        if g == 0:
            block_bmp.set(0)   # root directory block
            inode_bmp.set(0)   # ino 1, reserved
            inode_bmp.set(1)   # ino 2, root
        device.write_block(config.block_bitmap_block(g), block_bmp.to_bytes(pad_to=bs))
        device.write_block(config.inode_bitmap_block(g), inode_bmp.to_bytes(pad_to=bs))
        for i in range(config.inode_table_blocks):
            device.write_block(config.inode_table_start(g) + i, zero)

    # Root inode + root directory contents.
    iblock, ioff = config.inode_location(ROOT_INO)
    device.write_block(iblock, patch_inode_block(device.read_block(iblock), ioff, root_inode))
    root_entries = [DirEntry(ROOT_INO, FT_DIR, "."), DirEntry(ROOT_INO, FT_DIR, "..")]
    device.write_block(root_block, pack_dir_block(root_entries, bs))

    # Primary superblock and group descriptor table last, making the
    # volume mountable only once fully formatted.
    device.write_block(config.gdt_block, pack_gdt(gdt, bs))
    device.write_block(config.super_block, sb.pack(bs))
    return sb
