"""fsck (R_repair): detection and repair of classic inconsistencies."""

import struct

import pytest

from repro.fs.ext3 import Ext3, mkfs_ext3
from repro.fs.ext3.config import INODE_SIZE, ROOT_INO
from repro.fs.ext3.fsck import fsck_ext3
from repro.fs.ext3.structures import (
    DirEntry,
    FT_REG,
    Inode,
    pack_dir_block,
    patch_inode_block,
    unpack_dir_block,
)

from conftest import EXT3_CFG, make_ext3


def populated():
    disk, fs = make_ext3()
    fs.mount()
    fs.mkdir("/d")
    fs.write_file("/d/a", b"alpha" * 100)
    fs.write_file("/d/b", b"beta" * 400)
    fs.write_file("/top", b"top-level")
    fs.link("/top", "/hard")
    fs.unmount()
    return disk, fs


def inode_of(disk, path):
    fs = Ext3(disk)
    fs.mount()
    ino = fs.stat(path).ino
    fs.unmount()
    return ino


class TestCleanVolume:
    def test_fresh_volume_is_clean(self):
        disk, fs = make_ext3()
        report = fsck_ext3(disk)
        assert report.clean, report.render()

    def test_populated_volume_is_clean(self):
        disk, _ = populated()
        report = fsck_ext3(disk)
        assert report.clean, report.render()

    def test_volume_clean_after_crash_recovery(self):
        disk, fs0 = make_ext3()
        fs = Ext3(disk)
        fs.mount()
        fs.crash_after(lambda f: f.write_file("/x", b"y" * 3000))
        fs2 = Ext3(disk)
        fs2.mount()
        fs2.unmount()
        assert fsck_ext3(disk).clean


def corrupt_inode(disk, ino, mutate):
    from repro.fs.ext3.config import INODE_SIZE
    cfg = EXT3_CFG
    block, off = cfg.inode_location(ino)
    raw = disk.peek(block)
    inode = Inode.unpack(raw[off:off + INODE_SIZE])
    mutate(inode)
    disk.poke(block, patch_inode_block(raw, off, inode))


class TestDetectionAndRepair:
    def test_bad_pointer_detected_and_cleared(self):
        disk, _ = populated()
        ino = inode_of(disk, "/d/a")
        corrupt_inode(disk, ino, lambda i: i.direct.__setitem__(0, 0x7FFFFFFF))

        report = fsck_ext3(disk)
        assert not report.clean
        assert any(i == ino for i, _ in report.bad_pointers)

        report = fsck_ext3(disk, repair=True)
        assert report.repaired
        assert fsck_ext3(disk).clean  # second pass is clean

    def test_bad_dir_entry_dropped(self):
        disk, _ = populated()
        # Find /d's directory block and append a bogus entry.
        d_ino = inode_of(disk, "/d")
        cfg = EXT3_CFG
        block, off = cfg.inode_location(d_ino)
        inode = Inode.unpack(disk.peek(block)[off:off + INODE_SIZE])
        dir_block = inode.direct[0]
        entries = unpack_dir_block(disk.peek(dir_block))
        entries.append(DirEntry(9999, FT_REG, "ghost"))
        disk.poke(dir_block, pack_dir_block(entries, cfg.block_size))

        report = fsck_ext3(disk)
        assert any(name == "ghost" for _, name in report.bad_dir_entries)

        fsck_ext3(disk, repair=True)
        assert fsck_ext3(disk).clean
        fs = Ext3(disk)
        fs.mount()
        assert "ghost" not in fs.getdirentries("/d")
        assert fs.read_file("/d/a") == b"alpha" * 100

    def test_wrong_link_count_repaired(self):
        disk, _ = populated()
        ino = inode_of(disk, "/top")  # true link count is 2 (/top + /hard)
        corrupt_inode(disk, ino, lambda i: setattr(i, "links", 9))

        report = fsck_ext3(disk)
        assert any(i == ino and expected == 2
                   for i, _, expected in report.wrong_link_counts)

        fsck_ext3(disk, repair=True)
        assert fsck_ext3(disk).clean
        fs = Ext3(disk)
        fs.mount()
        assert fs.stat("/top").nlink == 2

    def test_orphan_inode_reattached(self):
        disk, _ = populated()
        ino = inode_of(disk, "/top")
        # Remove /top and /hard from the root directory, leaving the
        # inode allocated but unreachable.
        cfg = EXT3_CFG
        block, off = cfg.inode_location(ROOT_INO)
        root = Inode.unpack(disk.peek(block)[off:off + INODE_SIZE])
        dir_block = root.direct[0]
        entries = [e for e in unpack_dir_block(disk.peek(dir_block))
                   if e.name not in ("top", "hard")]
        disk.poke(dir_block, pack_dir_block(entries, cfg.block_size))

        report = fsck_ext3(disk)
        assert ino in report.orphan_inodes

        fsck_ext3(disk, repair=True)
        fs = Ext3(disk)
        fs.mount()
        assert fs.read_file(f"/orphan-{ino}") == b"top-level"

    def test_stale_bitmap_rebuilt(self):
        disk, _ = populated()
        cfg = EXT3_CFG
        # Mark every data block allocated: classic leaked-space state.
        disk.poke(cfg.block_bitmap_block(1), b"\xff" * cfg.block_size)

        report = fsck_ext3(disk)
        assert report.bitmap_fixes >= 1

        fsck_ext3(disk, repair=True)
        assert fsck_ext3(disk).clean
        # The leaked space is usable again.
        fs = Ext3(disk)
        fs.mount()
        before = fs.statfs().free_blocks
        assert before > 0

    def test_wrong_free_counts_repaired(self):
        disk, _ = populated()
        raw = bytearray(disk.peek(0))
        struct.pack_into("<I", raw, 16, 1)  # free_blocks field
        disk.poke(0, bytes(raw))

        report = fsck_ext3(disk)
        assert report.counter_fixes >= 1
        fsck_ext3(disk, repair=True)
        assert fsck_ext3(disk).clean

    def test_doubly_claimed_block_detected(self):
        disk, _ = populated()
        a = inode_of(disk, "/d/a")
        b = inode_of(disk, "/d/b")
        cfg = EXT3_CFG
        blk_a, off_a = cfg.inode_location(a)
        target = Inode.unpack(disk.peek(blk_a)[off_a:off_a + INODE_SIZE]).direct[0]
        corrupt_inode(disk, b, lambda i: i.direct.__setitem__(0, target))

        report = fsck_ext3(disk)
        assert target in report.doubly_claimed

    def test_invalid_superblock_reported(self):
        disk, _ = populated()
        disk.poke(0, b"\x00" * disk.block_size)
        report = fsck_ext3(disk)
        assert not report.clean
        assert "superblock" in report.render()
