"""Integration: cross-cutting robustness scenarios combining crash
recovery, fault injection, scrubbing and fsck."""

import pytest

from repro.common.errors import FSError
from repro.disk import (
    CorruptionMode,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    Persistence,
    corruption,
    make_disk,
    read_failure,
)
from repro.fs.ext3 import Ext3, fsck_ext3
from repro.fs.ixt3 import Ixt3

from conftest import FS_FACTORIES, IXT3_BASE, IXT3_CFG, make_ext3, make_ixt3
from repro.fs.ixt3 import mkfs_ixt3


class TestCrashDuringFaults:
    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_double_crash_recovery(self, name):
        """Crash, recover, crash again mid-work, recover again."""
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.write_file("/gen0", b"generation zero")
        fs.crash_after(lambda f: f.write_file("/gen1", b"generation one"))
        fs2 = type(fs)(disk)
        fs2.mount()
        assert fs2.read_file("/gen1") == b"generation one"
        fs2.crash_after(lambda f: f.write_file("/gen2", b"generation two"))
        fs3 = type(fs)(disk)
        fs3.mount()
        for gen, body in ((0, b"generation zero"), (1, b"generation one"),
                          (2, b"generation two")):
            assert fs3.read_file(f"/gen{gen}") == body

    def test_ext3_blindly_replays_corrupt_journal_data(self):
        """The ext3 blind-replay hazard end to end: a journaled copy is
        corrupted at rest, and recovery writes the garbage straight to
        its home location without any sanity check (§5.1)."""
        from repro.fs.ext3.journal import parse_desc
        disk, fs = make_ext3()
        fs.mount()
        fs.write_file("/seed", b"seed")
        cfg = fs.config
        fs.crash_after(lambda f: f.mkdir("/newdir"))
        # Corrupt the first journaled copy at rest.
        for pos in range(1, cfg.journal_blocks):
            if parse_desc(disk.peek(cfg.journal_start + pos)):
                victim = cfg.journal_start + pos + 1
                disk.poke(victim, b"\x5a" * cfg.block_size)
                break
        fs2 = Ext3(disk)
        fs2.mount()  # replay happens; ext3 notices nothing
        assert not fs2.syslog.has_event("sanity-fail")
        # The volume is now structurally damaged: fsck confirms.
        fs2.unmount()
        assert not fsck_ext3(disk).clean

    def test_ixt3_transactional_checksum_blocks_garbage_replay(self):
        """ixt3 + Tc: the same corrupted-journal crash cannot commit."""
        disk = make_disk(IXT3_CFG.total_blocks, IXT3_CFG.block_size)
        mkfs_ixt3(disk, IXT3_BASE, config=IXT3_CFG)
        fs = Ixt3(disk)
        fs.mount()
        fs.write_file("/seed", b"seed")
        fs.crash_after(lambda f: f.mkdir("/newdir"))
        # Corrupt one journal data block at rest.
        from repro.fs.ext3.journal import parse_desc
        for pos in range(1, IXT3_CFG.journal_blocks):
            if parse_desc(disk.peek(IXT3_CFG.journal_start + pos)):
                disk.poke(IXT3_CFG.journal_start + pos + 1,
                          b"\x66" * IXT3_CFG.block_size)
                break
        fs2 = Ixt3(disk)
        fs2.mount()
        assert fs2.syslog.has_event("txn-checksum-mismatch")
        assert fs2.read_file("/seed") == b"seed"       # old state intact
        assert not fs2.exists("/newdir")               # torn txn discarded
        # And the volume is structurally sound.
        fs2.unmount()
        assert fsck_ext3(disk).clean


class TestScrubRepairLoop:
    def test_scrub_plus_fs_reads_heal_ixt3(self):
        disk, fs = make_ixt3()
        fs.mount()
        for i in range(4):
            fs.write_file(f"/f{i}", bytes([i + 1]) * 3000)
        fs.unmount()

        injector = FaultInjector(disk)
        fs2 = Ixt3(injector)
        fs2.mount()
        injector.set_type_oracle(fs2.block_type)
        injector.arm(read_failure("data"))
        injector.arm(corruption("inode"))

        # Every file still reads back despite both faults.
        for i in range(4):
            assert fs2.read_file(f"/f{i}") == bytes([i + 1]) * 3000
        assert fs2.syslog.has_event("redundancy-used")

    def test_whole_disk_failure_is_fail_stop(self):
        disk, fs = make_ixt3()
        fs.mount()
        fs.write_file("/f", b"x")
        raw = fs._raw_disk()
        raw.fail_whole_disk()
        with pytest.raises(FSError):
            fs.read_file("/f")
        raw.revive()
        assert fs.read_file("/f") == b"x"


class TestFsckAfterBugDamage:
    def test_fsck_cleans_up_after_reiserfs_style_leak_in_ext3(self):
        """Leaked blocks (bitmap says used, nothing references them)
        are reclaimed by fsck."""
        disk, fs = make_ext3()
        fs.mount()
        fs.write_file("/f", b"d" * 5000)
        cfg = fs.config
        fs.unlink("/f")
        free_true = fs.statfs().free_blocks
        fs.unmount()
        # Fake a leak: mark ten data blocks allocated behind the FS's back.
        from repro.common.bitmap import Bitmap
        raw = disk.peek(cfg.block_bitmap_block(0))
        bmp = Bitmap(cfg.data_blocks_per_group, raw)
        for bit in range(40, 50):
            bmp.set(bit)
        disk.poke(cfg.block_bitmap_block(0), bmp.to_bytes(pad_to=cfg.block_size))

        report = fsck_ext3(disk, repair=True)
        assert report.bitmap_fixes >= 1
        fs2 = Ext3(disk)
        fs2.mount()
        assert fs2.statfs().free_blocks == free_true
