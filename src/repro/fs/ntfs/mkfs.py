"""mkfs for NTFS volumes: boot file, logfile, bitmaps, MFT with system
records and the root directory (MFT record 5, as on real NTFS)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitmap import Bitmap
from repro.disk.disk import BlockDevice
from repro.fs.ext3.journal import pack_journal_super
from repro.fs.ntfs.structures import (
    BOOT_MAGIC,
    BootFile,
    FLAG_IN_USE,
    FLAG_IS_DIR,
    FIRST_USER_MFT,
    MFTRecord,
    ROOT_MFT,
    pack_index_block,
)
from repro.vfs.stat import DEFAULT_DIR_MODE

FT_DIR = 2


@dataclass(frozen=True)
class NTFSConfig:
    block_size: int = 1024
    total_blocks: int = 768
    logfile_blocks: int = 48
    mft_records: int = 112

    @property
    def logfile_start(self) -> int:
        return 1

    @property
    def vol_bitmap_start(self) -> int:
        return self.logfile_start + self.logfile_blocks

    @property
    def mft_bitmap_block(self) -> int:
        return self.vol_bitmap_start + 1

    @property
    def mft_start(self) -> int:
        return self.mft_bitmap_block + 1

    @property
    def data_start(self) -> int:
        return self.mft_start + self.mft_records


def mkfs_ntfs(device: BlockDevice, config: NTFSConfig) -> BootFile:
    """Format *device* with an NTFS layout.  Returns the boot file."""
    if device.num_blocks < config.total_blocks:
        raise ValueError("device too small for configured volume")
    if device.block_size != config.block_size:
        raise ValueError("device block size does not match config")
    bs = config.block_size

    boot = BootFile(
        magic=BOOT_MAGIC,
        block_size=bs,
        total_blocks=config.total_blocks,
        mft_start=config.mft_start,
        mft_records=config.mft_records,
        logfile_start=config.logfile_start,
        logfile_blocks=config.logfile_blocks,
        vol_bitmap_start=config.vol_bitmap_start,
        mft_bitmap_block=config.mft_bitmap_block,
    )

    device.write_block(config.logfile_start, pack_journal_super(bs, 1, clean=True))

    root_dir_block = config.data_start
    data_bits = config.total_blocks - config.data_start
    vol_bmp = Bitmap(data_bits)
    vol_bmp.set(0)  # root directory index block
    device.write_block(config.vol_bitmap_start, vol_bmp.to_bytes(pad_to=bs))

    mft_bmp = Bitmap(config.mft_records)
    mft_bmp.set_range(0, FIRST_USER_MFT)  # system records, root among them
    device.write_block(config.mft_bitmap_block, mft_bmp.to_bytes(pad_to=bs))

    # System MFT records: in use, empty; root is a directory.
    for i in range(config.mft_records):
        if i == ROOT_MFT:
            rec = MFTRecord(flags=FLAG_IN_USE | FLAG_IS_DIR, links=2,
                            mode=DEFAULT_DIR_MODE, size=bs,
                            atime=1.0, mtime=1.0, ctime=1.0)
            rec.runs[0] = root_dir_block
        elif i < FIRST_USER_MFT:
            rec = MFTRecord(flags=FLAG_IN_USE, links=1)
        else:
            rec = MFTRecord(flags=0)
        device.write_block(config.mft_start + i, rec.pack(bs))

    device.write_block(root_dir_block, pack_index_block(
        [(ROOT_MFT, FT_DIR, "."), (ROOT_MFT, FT_DIR, "..")], bs))

    device.write_block(0, boot.pack(bs))
    return boot
