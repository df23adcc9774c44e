"""The shared journaled-FS framing: read-only gating, commit batching,
journal pressure, and timing pass-through."""

import pytest

from repro.common.errors import Errno, FSError, ReadOnlyError
from repro.disk import DiskGeometry, make_disk
from repro.fs.ext3 import Ext3, mkfs_ext3

from conftest import EXT3_CFG, make_ext3


class TestMountGating:
    def test_ops_require_mount(self):
        disk, fs = make_ext3()
        with pytest.raises(FSError) as e:
            fs.stat("/")
        assert e.value.errno is Errno.EINVAL

    def test_double_mount_rejected(self):
        disk, fs = make_ext3()
        fs.mount()
        with pytest.raises(FSError):
            fs.mount()

    def test_unmount_then_ops_fail(self):
        disk, fs = make_ext3()
        fs.mount()
        fs.unmount()
        with pytest.raises(FSError):
            fs.getdirentries("/")


class TestReadOnlyGating:
    def test_modifying_ops_blocked_when_ro(self):
        disk, fs = make_ext3()
        fs.mount()
        fs._abort_journal()
        for action in (
            lambda: fs.mkdir("/x"),
            lambda: fs.creat("/y"),
            lambda: fs.unlink("/z"),
            lambda: fs.chmod("/", 0o700),
        ):
            with pytest.raises(FSError) as e:
                action()
            assert e.value.errno is Errno.EROFS

    def test_reads_still_work_when_ro(self):
        disk, fs = make_ext3()
        fs.mount()
        fs.write_file("/keep", b"still readable")
        fs._abort_journal()
        assert fs.read_file("/keep") == b"still readable"
        assert sorted(fs.getdirentries("/"))[-1] == "keep"

    def test_fsync_fails_when_ro(self):
        disk, fs = make_ext3()
        fs.mount()
        fd = fs.creat("/f")
        fs._abort_journal()
        with pytest.raises(ReadOnlyError):
            fs.fsync(fd)

    def test_sync_is_noop_when_ro(self):
        disk, fs = make_ext3()
        fs.mount()
        fs._abort_journal()
        fs.sync()  # must not raise


class TestCommitBatching:
    def test_batched_mode_defers_commits(self):
        disk, fs = make_ext3()
        fs.sync_mode = False
        fs.commit_every = 50
        fs.mount()
        # write_file = open+truncate+write: three modifying ops each.
        for i in range(5):
            fs.write_file(f"/f{i}", b"x")
        assert fs.journal.commits == 0
        for i in range(5, 25):
            fs.write_file(f"/f{i}", b"x")
        assert fs.journal.commits >= 1

    def test_fsync_forces_commit(self):
        disk, fs = make_ext3()
        fs.sync_mode = False
        fs.commit_every = 1000
        fs.mount()
        fd = fs.creat("/f")
        fs.write(fd, b"durable", offset=0)
        before = fs.journal.commits
        fs.fsync(fd)
        assert fs.journal.commits == before + 1

    def test_journal_pressure_forces_commit(self):
        disk, fs = make_ext3()
        fs.sync_mode = False
        fs.commit_every = 10 ** 6  # never by op count
        fs.mount()
        # Dirty far more metadata blocks than half the journal holds.
        for i in range(70):
            fs.mkdir(f"/dir{i:03d}")
        assert fs.journal.commits >= 1

    def test_unmount_flushes_everything(self):
        disk, fs = make_ext3()
        fs.sync_mode = False
        fs.commit_every = 1000
        fs.mount()
        fs.write_file("/f", b"flushed at unmount")
        fs.unmount()
        fs2 = Ext3(disk)
        fs2.mount()
        assert fs2.read_file("/f") == b"flushed at unmount"


class TestTimingPassThrough:
    def test_commit_stall_from_geometry(self):
        disk = make_disk(EXT3_CFG.total_blocks, EXT3_CFG.block_size,
                         rotation_s=0.02)
        mkfs_ext3(disk, EXT3_CFG)
        fs = Ext3(disk)
        assert fs.commit_stall_s == pytest.approx(0.02 * 0.75)

    def test_explicit_commit_stall_wins(self):
        disk, _ = make_ext3()
        fs = Ext3(disk, commit_stall_s=0.001)
        assert fs.commit_stall_s == 0.001

    def test_commits_advance_the_clock(self):
        disk, fs = make_ext3()
        fs.mount()
        t0 = disk.clock
        fs.write_file("/f", b"time passes")
        assert disk.clock > t0 + fs.commit_stall_s  # includes the ordering wait


class TestGeometryProperties:
    def test_access_time_nonnegative(self):
        geo = DiskGeometry(num_blocks=1000, block_size=512)
        for frm in (0, 10, 500, 999):
            for to in (0, 1, 11, 998):
                assert geo.service_time(to - frm) > 0
                assert geo.service_time(to - frm, is_write=True) > 0

    def test_writes_cheaper_than_reads_when_scattered(self):
        geo = DiskGeometry(num_blocks=1000, block_size=512)
        r = geo.service_time(500, is_write=False)
        w = geo.service_time(500, is_write=True)
        assert w < r  # write-back caching overlaps rotation

    def test_near_skip_cheaper_than_far_seek(self):
        geo = DiskGeometry(num_blocks=10000, block_size=512)
        near = geo.service_time(104 - 100)
        far = geo.service_time(5000 - 100)
        assert near < far / 4
