"""mkfs for JFS volumes: dual superblocks, aggregate inodes (primary
and secondary, adjacent), allocation maps with duplicated free-count
fields, the inode table, the root directory, and a clean redo log."""

from __future__ import annotations

from repro.common.bitmap import Bitmap
from repro.disk.disk import BlockDevice
from repro.fs.jfs.config import JFSConfig
from repro.fs.jfs.journal import pack_log_super
from repro.fs.jfs.structures import (
    AGGR_MAGIC,
    AggregateInode,
    JFS_MAGIC,
    JFS_VERSION,
    JFSInode,
    JFSSuper,
    pack_bmap_desc,
    pack_dir_block,
    pack_imap_control,
    pack_map_block,
)
from repro.vfs.stat import DEFAULT_DIR_MODE

FT_DIR = 2
ROOT_INO = 2


def mkfs_jfs(device: BlockDevice, config: JFSConfig) -> JFSSuper:
    """Format *device* with a JFS layout.  Returns the superblock."""
    if device.num_blocks < config.total_blocks:
        raise ValueError("device too small for configured volume")
    if device.block_size != config.block_size:
        raise ValueError("device block size does not match config")
    bs = config.block_size
    zero = b"\x00" * bs

    root_dir_block = config.data_start
    sb = JFSSuper(
        magic=JFS_MAGIC,
        version=JFS_VERSION,
        block_size=bs,
        total_blocks=config.total_blocks,
        free_blocks=config.total_blocks - config.data_start - 1,
        free_inodes=config.num_inodes - 2,  # reserved ino 1 + root
        num_inodes=config.num_inodes,
        journal_blocks=config.journal_blocks,
        num_direct=config.num_direct,
        tree_fanout=config.tree_fanout,
    )

    # Journal: clean superblock; the data region parses as nothing.
    device.write_block(config.journal_super, pack_log_super(bs, 1, clean=True))
    for i in range(config.journal_blocks):
        device.write_block(config.journal_data_start + i, zero)

    # Aggregate inodes: primary and (adjacent) secondary copies.
    aggr = AggregateInode(magic=AGGR_MAGIC, bmap_desc=config.bmap_desc_block,
                          imap_cntl=config.imap_control_block,
                          log_start=config.journal_super)
    device.write_block(config.aggr_inode_block, aggr.pack(bs))
    device.write_block(config.aggr_inode_secondary, aggr.pack(bs))

    device.write_block(config.bmap_desc_block,
                       pack_bmap_desc(config.total_blocks, config.bmap_blocks, bs))

    # Block allocation map: metadata region + root dir block used; bits
    # beyond the volume pre-set.
    bits = (bs - 16) * 8
    for page in range(config.bmap_blocks):
        bmp = Bitmap(bits)
        lo = page * bits
        bmp.set_range(0, root_dir_block + 1 - lo)
        bmp.set_range(config.total_blocks - lo, bits)
        device.write_block(config.bmap_start + page, pack_map_block(bmp, bs))

    device.write_block(config.imap_control_block,
                       pack_imap_control(config.num_inodes, sb.free_inodes, 0, bs))

    # Inode allocation map: ino 1 reserved, ino 2 root; excess bits set.
    for page in range(config.imap_blocks):
        bmp = Bitmap(bits)
        bmp.set_range(config.num_inodes - page * bits, bits)
        if page == 0:
            bmp.set_range(0, 2)
        device.write_block(config.imap_start + page, pack_map_block(bmp, bs))

    # Inode table with the root inode.
    root = JFSInode(mode=DEFAULT_DIR_MODE, links=2, size=bs,
                    atime=1.0, mtime=1.0, ctime=1.0, nblocks=1)
    root.direct[0] = root_dir_block
    for i in range(config.inode_table_blocks):
        slots = [None] * config.inodes_per_block
        base_ino = i * config.inodes_per_block + 1
        if base_ino <= ROOT_INO < base_ino + config.inodes_per_block:
            slots[ROOT_INO - base_ino] = root
        from repro.fs.jfs.structures import pack_inode_block
        device.write_block(config.inode_table_start + i,
                           pack_inode_block(slots, bs, config.inode_size))

    device.write_block(root_dir_block, pack_dir_block(
        [(ROOT_INO, FT_DIR, "."), (ROOT_INO, FT_DIR, "..")], bs))

    # Superblocks last: primary at 0, secondary adjacent at 1.
    device.write_block(1, sb.pack(bs))
    device.write_block(0, sb.pack(bs))
    return sb
