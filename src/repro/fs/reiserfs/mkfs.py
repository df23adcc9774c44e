"""mkfs for ReiserFS volumes: superblock, clean journal, data bitmap,
and a root leaf holding the root directory's stat item and entries."""

from __future__ import annotations

from repro.common.bitmap import Bitmap
from repro.disk.disk import BlockDevice
from repro.fs.ext3.journal import pack_journal_super
from repro.fs.reiserfs.btree import IT_DIRENTRY, IT_STAT, Item, Node
from repro.fs.reiserfs.config import ReiserConfig
from repro.fs.reiserfs.structures import (
    REISER_MAGIC,
    ReiserSuper,
    ROOT_KEY_PAIR,
    StatBody,
    name_hash,
    pack_dirent_body,
)
from repro.vfs.stat import DEFAULT_DIR_MODE

FT_DIR = 2


def mkfs_reiserfs(device: BlockDevice, config: ReiserConfig) -> ReiserSuper:
    """Format *device* with a ReiserFS layout.  Returns the superblock."""
    if device.num_blocks < config.total_blocks:
        raise ValueError("device too small for configured volume")
    if device.block_size != config.block_size:
        raise ValueError("device block size does not match config")
    bs = config.block_size

    root_block = config.data_start
    d, o = ROOT_KEY_PAIR
    root_stat = StatBody(mode=DEFAULT_DIR_MODE, links=2,
                         atime=1.0, mtime=1.0, ctime=1.0)
    root_leaf = Node(level=1, items=[
        Item((d, o, 0, IT_STAT), root_stat.pack()),
        Item((d, o, name_hash("."), IT_DIRENTRY),
             pack_dirent_body(ROOT_KEY_PAIR, FT_DIR, ".")),
        Item((d, o, name_hash(".."), IT_DIRENTRY),
             pack_dirent_body(ROOT_KEY_PAIR, FT_DIR, "..")),
    ])
    device.write_block(root_block, root_leaf.pack(bs))

    # Data bitmap: everything up to and including the root leaf is used;
    # bits beyond the end of the volume are pre-set so they can never be
    # allocated.
    bits_per_block = bs * 8
    for i in range(config.bitmap_blocks):
        bmp = Bitmap(bits_per_block)
        lo = i * bits_per_block
        bmp.set_range(0, root_block + 1 - lo)
        bmp.set_range(config.total_blocks - lo, bits_per_block)
        device.write_block(config.bitmap_start + i, bmp.to_bytes(pad_to=bs))

    device.write_block(config.journal_start, pack_journal_super(bs, 1, clean=True))

    sb = ReiserSuper(
        magic=REISER_MAGIC,
        block_size=bs,
        total_blocks=config.total_blocks,
        free_blocks=config.total_blocks - config.data_start - 1,
        root_block=root_block,
        height=1,
        next_objid=3,
        journal_start=config.journal_start,
        journal_blocks=config.journal_blocks,
        bitmap_start=config.bitmap_start,
        bitmap_blocks=config.bitmap_blocks,
        data_start=config.data_start,
        nobjects=1,
    )
    device.write_block(0, sb.pack(bs))
    return sb
