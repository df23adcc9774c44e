"""ext3 failure-policy tests: the behaviors §5.1 documents, including
the bugs, must arise from the implementation's code paths."""

import pytest

from repro.common.errors import Errno, FSError, KernelPanic
from repro.disk import (
    CorruptionMode,
    Fault,
    FaultKind,
    FaultOp,
    Persistence,
    corruption,
    read_failure,
    write_failure,
)
from repro.fs.ext3 import Ext3
from repro.fs.ext3.fsck import fsck_ext3
from repro.fs.ext3.structures import Inode, Superblock, unpack_gdt
from repro.fs.ext3.config import INODE_SIZE
from repro.vfs import O_RDONLY

from conftest import EXT3_CFG, faulty_remount, make_ext3, make_ixt3


@pytest.fixture
def prepared():
    """An ext3 volume with a directory tree and a multi-block file,
    remounted behind a fault injector."""
    disk, fs = make_ext3()
    fs.mount()
    fs.mkdir("/d")
    bs = fs.statfs().block_size
    fs.write_file("/d/file", bytes((i * 3) % 256 for i in range(30 * bs)))
    fs.write_file("/plain", b"plain contents")
    fs.mkdir("/empty")
    fs.unmount()
    injector, fs2 = faulty_remount("ext3", disk)
    return disk, injector, fs2


class TestReadFailures:
    def test_metadata_read_failure_propagates_eio(self, prepared):
        _, injector, fs = prepared
        injector.arm(read_failure("inode"))
        with pytest.raises(FSError) as e:
            fs.stat("/plain")
        assert e.value.errno is Errno.EIO
        assert fs.syslog.has_event("read-error")

    def test_metadata_read_failure_in_write_path_aborts_journal(self, prepared):
        _, injector, fs = prepared
        injector.arm(read_failure("bitmap"))
        with pytest.raises(FSError):
            fs.write_file("/newfile", b"x" * 4096)
        assert fs.read_only
        assert fs.syslog.has_event("journal-abort")
        assert fs.syslog.has_event("remount-ro")

    def test_data_read_failure_propagates_without_stop(self, prepared):
        _, injector, fs = prepared
        injector.arm(read_failure("data"))
        with pytest.raises(FSError) as e:
            fs.read_file("/d/file")
        assert e.value.errno is Errno.EIO
        assert not fs.read_only

    def test_multiblock_read_retries_requested_block_once(self, prepared):
        """The prefetch quirk: a transient failure inside a multi-block
        read is absorbed by retrying the originally requested block."""
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="data",
                           persistence=Persistence.TRANSIENT, transient_count=1))
        data = fs.read_file("/d/file")  # multi-block: retry saves it
        assert len(data) == 30 * fs.statfs().block_size


class TestWriteFailuresIgnored:
    @pytest.mark.parametrize("btype", ["inode", "bitmap", "i-bitmap", "dir",
                                       "super", "g-desc", "j-commit", "j-data"])
    def test_write_errors_silently_ignored(self, prepared, btype):
        """The headline ext3 bug: no write return code is ever checked."""
        _, injector, fs = prepared
        injector.arm(write_failure(btype))
        fs.mkdir("/fresh")  # succeeds despite the lost write
        assert not fs.read_only
        assert not fs.syslog.has_event("write-error")
        assert [e for e in injector.events.io_events()
                if e.op == "write" and e.outcome == "error"]

    def test_failed_journal_write_still_commits(self, prepared):
        """A failed j-data write does not stop the commit block (§5.1)."""
        _, injector, fs = prepared
        injector.arm(write_failure("j-data"))
        fs.mkdir("/doomed")
        jtypes = [e.block_type for e in injector.events.io_events()
                  if e.op == "write" and e.outcome == "ok"]
        assert "j-commit" in jtypes


class TestSilentFailureBugs:
    def test_truncate_fails_silently_on_indirect_read_error(self, prepared):
        _, injector, fs = prepared
        injector.arm(read_failure("indirect"))
        fs.truncate("/d/file", 10)  # no exception: silent failure
        assert fs.syslog.has_event("silent-failure")

    def test_rmdir_fails_silently_on_dir_read_error(self, prepared):
        _, injector, fs = prepared
        # Skip the lookup's read of the parent directory block; fail the
        # emptiness scan of /empty itself.
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL,
                           block_type="dir", match_index=1))
        fs.rmdir("/empty")  # returns "success" without doing anything
        assert fs.exists("/empty")
        assert fs.syslog.has_event("silent-failure")

    def test_unlink_crashes_on_zero_link_count(self, prepared):
        """unlink does not sanity-check the link count (§5.1)."""
        disk, injector, fs = prepared

        def zero_links(payload, btype):
            raw = bytearray(payload)
            for off in range(0, len(raw) - INODE_SIZE + 1, INODE_SIZE):
                inode = Inode.unpack(bytes(raw[off:off + INODE_SIZE]))
                if inode.is_allocated:
                    inode.links = 0
                    raw[off:off + INODE_SIZE] = inode.pack()
            return bytes(raw)

        injector.arm(corruption("inode", mode=CorruptionMode.FIELD, corruptor=zero_links))
        with pytest.raises(KernelPanic):
            fs.unlink("/plain")


class TestSanityChecks:
    def test_corrupt_superblock_fails_mount(self):
        disk, fs = make_ext3()
        disk.poke(0, b"\x00" * disk.block_size)
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")

    @pytest.mark.parametrize("make", [make_ext3, make_ixt3])
    def test_group_count_overrunning_the_descriptor_block_fails_mount(self, make):
        """Superblock noise that makes ``num_groups`` descriptors overrun
        the one GDT block is caught by the superblock sanity check, by
        mount and by fsck alike — never an untyped decode error."""
        disk, fs = make()
        sb = Superblock.unpack(disk.peek(0))
        sb.num_groups = 5000
        disk.poke(0, sb.pack(disk.block_size))
        assert not sb.is_valid(disk.block_size)
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")
        report = fsck_ext3(disk)
        assert not report.clean
        assert "superblock" in report.render()

    @pytest.mark.parametrize("make", [make_ext3, make_ixt3])
    @pytest.mark.parametrize("block_size, num_groups", [(8192, 200), (1 << 20, 2000)])
    def test_block_size_other_than_the_devices_fails_mount(self, make, block_size,
                                                            num_groups):
        """A superblock recording a block size the device does not have
        is garbage: mount fails EUCLEAN with a sanity detection, and fsck
        reports the superblock, instead of a ``struct.error`` from the
        descriptor decode or a ``ValueError`` from the config."""
        disk, fs = make()
        sb = Superblock.unpack(disk.peek(0))
        sb.block_size, sb.num_groups = block_size, num_groups
        disk.poke(0, sb.pack(disk.block_size))
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")
        report = fsck_ext3(disk)
        assert not report.clean
        assert "superblock" in report.render()
        assert sb.is_valid(block_size) and not sb.is_valid(disk.block_size)

    @pytest.mark.parametrize("field", ["blocks_per_group", "inodes_per_group"])
    def test_group_bitmap_overrunning_its_block_fails_mount(self, field):
        """A group of more blocks or inodes than one bitmap block maps is
        garbage too: caught before any allocation reads the bitmap."""
        disk, fs = make_ext3()
        sb = Superblock.unpack(disk.peek(0))
        setattr(sb, field, 8 * disk.block_size + 8)
        disk.poke(0, sb.pack(disk.block_size))
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert "superblock" in fsck_ext3(disk).render()
        assert not sb.is_valid(disk.block_size)

    @pytest.mark.parametrize("make", [make_ext3, make_ixt3])
    @pytest.mark.parametrize("field, value", [("inodes_per_group", 60),
                                              ("journal_blocks", 4)])
    def test_geometry_the_config_rejects_fails_mount(self, make, field, value):
        """Fields that pass the field checks but describe a geometry
        ``Ext3Config`` refuses (a partial inode-table block, a journal
        under 8 blocks) are garbage too: mount fails EUCLEAN with a sanity
        detection and fsck reports the superblock, instead of a
        ``ValueError`` escaping ``Superblock.config()``."""
        disk, fs = make()
        sb = Superblock.unpack(disk.peek(0))
        setattr(sb, field, value)
        disk.poke(0, sb.pack(disk.block_size))
        assert sb.is_valid(disk.block_size)
        assert sb.checked_config(disk.block_size) is None
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")
        report = fsck_ext3(disk)
        assert not report.clean
        assert "superblock" in report.render()

    def test_open_detects_overly_large_size(self, prepared):
        disk, injector, fs = prepared

        def huge_size(payload, btype):
            raw = bytearray(payload)
            for off in range(0, len(raw) - INODE_SIZE + 1, INODE_SIZE):
                inode = Inode.unpack(bytes(raw[off:off + INODE_SIZE]))
                if inode.is_allocated and inode.mode & 0o100000:
                    inode.size = 1 << 60
                    raw[off:off + INODE_SIZE] = inode.pack()
            return bytes(raw)

        injector.arm(corruption("inode", mode=CorruptionMode.FIELD, corruptor=huge_size))
        with pytest.raises(FSError) as e:
            fs.open("/plain", O_RDONLY)
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")

    def test_directory_corruption_is_not_detected(self, prepared):
        """Directories carry no type info; garbage parses blindly (§5.1)."""
        _, injector, fs = prepared
        injector.arm(corruption("dir"))
        try:
            fs.getdirentries("/d")  # blind parse: garbage or empty
        except FSError:
            pass  # downstream consequence, not detection
        assert not fs.syslog.has_event("sanity-fail")


class TestSuperblockReplicasUnused:
    def test_backups_written_at_mkfs_but_never_updated(self):
        disk, fs = make_ext3()
        fs.mount()
        cfg = fs.config
        backup_before = disk.peek(cfg.sb_backup_block(1))
        for i in range(5):
            fs.write_file(f"/f{i}", b"churn" * 100)
        fs.unmount()
        assert disk.peek(cfg.sb_backup_block(1)) == backup_before

    def test_backups_not_consulted_on_primary_failure(self):
        disk, fs = make_ext3()
        injector, fs2 = None, None
        from repro.disk import FaultInjector
        injector = FaultInjector(disk)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=0))
        from repro.fs.ext3 import Ext3
        fs2 = Ext3(injector)
        with pytest.raises(FSError):
            fs2.mount()  # no fallback to the copies: mount just fails


class TestDamagedCounters:
    def test_zeroed_descriptor_block_wraps_its_counters(self):
        """A zeroed group-descriptor block parses blindly as groups with
        nothing free; the next allocation drives the counts below zero,
        and the commit stores them as le16 arithmetic leaves them
        instead of raising ``struct.error``."""
        disk, fs = make_ext3()
        fs.mount()
        fs.mkdir("/d")
        fs.unmount()
        gdt_block = fs.config.gdt_block
        disk.poke(gdt_block, bytes(disk.block_size))
        fs = Ext3(disk)
        fs.mount()
        fs.write_file("/d/f1", b"x" * 5000)
        fs.unmount()
        group = unpack_gdt(disk.peek(gdt_block), fs.config.num_groups)[0]
        assert (group.free_blocks, group.free_inodes) == (0x10000 - 5, 0xFFFF)
        fs = Ext3(disk)
        fs.mount()
        assert fs.read_file("/d/f1") == b"x" * 5000

    def test_superblock_counters_wrap_as_le32(self):
        sb = Superblock.for_config(EXT3_CFG)
        sb.free_blocks, sb.free_inodes, sb.mount_count = -1, -2, 1 << 32
        back = Superblock.unpack(sb.pack(EXT3_CFG.block_size))
        assert (back.free_blocks, back.free_inodes, back.mount_count) == \
            (0xFFFFFFFF, 0xFFFFFFFE, 0)
