"""JFS failure-policy tests: §5.3's "kitchen sink" behaviors and bugs."""

import pytest

from repro.common.errors import Errno, FSError, KernelPanic
from repro.disk import (
    CorruptionMode,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    Persistence,
    corruption,
    read_failure,
    write_failure,
)
from repro.fs.jfs import JFS
from repro.obs.events import EventLog

from conftest import faulty_remount, make_jfs


@pytest.fixture
def prepared():
    disk, fs = make_jfs()
    fs.mount()
    fs.mkdir("/d")
    bs = fs.statfs().block_size
    fs.write_file("/d/big", bytes((i * 9) % 256 for i in range(30 * bs)))
    fs.write_file("/plain", b"plain jfs file")
    fs.unmount()
    injector, fs2 = faulty_remount("jfs", disk)
    return disk, injector, fs2


class TestGenericRetry:
    def test_metadata_reads_retried_once(self, prepared):
        """The generic layer retries once; a single transient fault is
        invisible to the caller (§5.3)."""
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="inode",
                           persistence=Persistence.TRANSIENT, transient_count=1))
        st = fs.stat("/plain")  # absorbed by the generic retry
        assert st.size == 14
        assert fs.syslog.has_event("read-retry")

    def test_sticky_read_fails_after_single_retry(self, prepared):
        _, injector, fs = prepared
        fault = injector.arm(read_failure("inode"))
        with pytest.raises(FSError) as e:
            fs.stat("/plain")
        assert e.value.errno is Errno.EIO
        assert fault._fired == 2  # first attempt + one generic retry


class TestWritePolicy:
    @pytest.mark.parametrize("btype", ["inode", "dir", "bmap", "j-data", "data"])
    def test_most_write_errors_ignored(self, prepared, btype):
        """The operation reports success while the write is lost —
        which can silently corrupt the volume (§5.3)."""
        _, injector, fs = prepared
        injector.arm(write_failure(btype))
        fd = fs.creat("/newfile")  # succeeds despite the lost write
        fs.write(fd, b"n" * 2048, offset=0)
        fs.close(fd)
        assert not fs.read_only
        assert not fs.syslog.has_event("write-error")
        assert [e for e in injector.events.io_events()
                if e.op == "write" and e.outcome == "error"]

    def test_journal_superblock_write_failure_crashes(self, prepared):
        """The lone exception: j-super write failure → crash (§5.3)."""
        _, injector, fs = prepared
        injector.arm(write_failure("j-super"))
        with pytest.raises(KernelPanic):
            fs.write_file("/x", b"y")
            fs.sync()  # checkpoint updates the journal superblock


class TestAllocationMapPolicy:
    def test_bmap_read_failure_crashes(self, prepared):
        """Block-allocation-map read failure crashes the system (§5.3)."""
        _, injector, fs = prepared
        injector.arm(read_failure("bmap"))
        with pytest.raises(KernelPanic):
            fs.write_file("/alloc", b"a" * 4096)

    def test_imap_read_failure_crashes(self, prepared):
        _, injector, fs = prepared
        injector.arm(read_failure("imap"))
        with pytest.raises(KernelPanic):
            fs.creat("/newfile")

    def test_bmap_corruption_caught_by_equality_check(self, prepared):
        """JFS's duplicated free-count field detects map corruption."""
        _, injector, fs = prepared
        injector.arm(corruption("bmap"))
        with pytest.raises(FSError) as e:
            fs.write_file("/alloc", b"a" * 4096)
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")
        assert fs.read_only  # propagate + remount read-only

    def test_imap_control_read_failure_ignored_bug(self, prepared):
        """The generic layer detects and retries, but JFS ignores the
        error and proceeds (§5.3)."""
        _, injector, fs = prepared
        fault = injector.arm(read_failure("imap-cntl"))
        fd = fs.creat("/ignored-error-file")  # proceeds despite the failure
        fs.close(fd)
        assert fault._fired >= 2  # retried by the generic layer...
        assert fs.exists("/ignored-error-file")  # ...then ignored by JFS


class TestDualSuperblocks:
    def test_primary_read_error_uses_secondary(self):
        disk, fs = make_jfs()
        injector = FaultInjector(disk, events=EventLog())
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=0))
        fs2 = JFS(injector)
        fs2.mount()  # survives via the adjacent secondary copy
        assert fs2.syslog.has_event("redundancy-used")
        assert [e for e in injector.events.io_events()
                if e.is_read() and e.block == 1]

    def test_primary_corruption_does_not_use_secondary(self):
        """The paper's illogical inconsistency: a *corrupt* primary is
        not recovered from the intact secondary (§5.3)."""
        disk, fs = make_jfs()
        disk.poke(0, b"\x13" * disk.block_size)
        fs2 = JFS(disk)
        with pytest.raises(FSError) as e:
            fs2.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs2.syslog.has_event("mount-failed")
        assert not fs2.syslog.has_event("redundancy-used")

    def test_copies_are_adjacent(self):
        """Spatial-locality vulnerability: the secondary sits right next
        to the primary, so one scratch can take both (§5.6)."""
        disk, fs = make_jfs()
        injector = FaultInjector(disk)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=0,
                           locality_run=1))
        fs2 = JFS(injector)
        with pytest.raises(FSError):
            fs2.mount()


class TestAggregateInode:
    def test_read_error_does_not_use_secondary_table(self):
        """Bug: the secondary aggregate-inode table is never consulted."""
        disk, fs = make_jfs()
        fs.mount()
        aggr_block = fs.config.aggr_inode_block
        fs.unmount()
        injector = FaultInjector(disk, events=EventLog())
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=aggr_block))
        fs2 = JFS(injector)
        with pytest.raises(FSError) as e:
            fs2.mount()
        assert e.value.errno is Errno.EIO
        # The adjacent secondary was readable but never read.
        assert not [e for e in injector.events.io_events()
                    if e.is_read() and e.block == aggr_block + 1]


class TestBlankPageBug:
    def test_corrupt_internal_tree_block_returns_blank_page(self, prepared):
        """A failed sanity check on an internal (extent tree) block
        yields zeroes to the user instead of an error (§5.3)."""
        _, injector, fs = prepared
        injector.arm(corruption("internal"))
        bs = fs.statfs().block_size
        data = fs.read_file("/d/big")
        assert len(data) == 30 * bs
        # Blocks reached through the corrupted internal node read as zero.
        assert data.count(0) > bs
        assert fs.syslog.has_event("sanity-fail")


class TestDirectorySanity:
    def test_dir_corruption_detected_and_remounts_ro(self, prepared):
        _, injector, fs = prepared
        injector.arm(corruption("dir", mode=CorruptionMode.FIELD,
                                corruptor=lambda p, t: b"\xff\xff\xff\xff" + p[4:]))
        with pytest.raises(FSError) as e:
            fs.getdirentries("/")
        assert e.value.errno is Errno.EUCLEAN
        assert fs.read_only
