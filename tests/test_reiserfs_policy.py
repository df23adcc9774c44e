"""ReiserFS failure-policy tests: §5.2's behaviors and bugs."""

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

from conftest import faulty_remount, make_reiserfs


@pytest.fixture
def prepared():
    disk, fs = make_reiserfs()
    fs.mount()
    fs.mkdir("/d")
    bs = fs.statfs().block_size
    fs.write_file("/d/big", bytes((i * 5) % 256 for i in range(20 * bs)))
    fs.write_file("/plain", b"small file in a direct item")
    fs.unmount()
    injector, fs2 = faulty_remount("reiserfs", disk)
    return disk, injector, fs2


class TestWritePanics:
    @pytest.mark.parametrize("btype", ["super", "bitmap", "j-desc", "j-commit"])
    def test_metadata_write_failure_panics(self, prepared, btype):
        """ReiserFS panics on virtually any write failure (§5.2)."""
        _, injector, fs = prepared
        injector.arm(write_failure(btype))
        with pytest.raises(KernelPanic):
            # write_file allocates blocks, touching bitmap + super +
            # journal blocks in one transaction.
            fs.write_file("/will-panic", b"P" * 4096)
        assert fs.syslog.has_event("write-error")

    def test_tree_node_write_failure_panics(self, prepared):
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL,
                           block_type="dir item"))
        with pytest.raises(KernelPanic):
            fs.mkdir("/will-panic")

    def test_ordered_data_write_failure_ignored(self, prepared):
        """The exception (the paper's bug): a failed ordered data write
        is ignored and the transaction commits anyway."""
        _, injector, fs = prepared
        injector.arm(write_failure("data"))
        bs = fs.statfs().block_size
        fs.write_file("/victim", b"Q" * (3 * bs))  # no panic, no error
        assert not fs.syslog.has_event("write-error")
        write_errors = [e for e in injector.events.io_events()
                        if e.op == "write" and e.outcome == "error"]
        assert write_errors
        # The commit completed despite the lost data write.
        jtypes = [e.block_type for e in injector.events.io_events()
                  if e.op == "write" and e.outcome == "ok"]
        assert "j-commit" in jtypes


class TestReadPolicy:
    def test_tree_read_failure_propagates(self, prepared):
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL,
                           block_type="dir item"))
        with pytest.raises(FSError) as e:
            fs.stat("/plain")
        assert e.value.errno is Errno.EIO
        assert fs.syslog.has_event("read-error")

    def test_data_read_retried_once(self, prepared):
        """A transient data fault is absorbed by the single retry."""
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="data",
                           persistence=Persistence.TRANSIENT, transient_count=1))
        data = fs.read_file("/d/big")
        assert len(data) == 20 * fs.statfs().block_size

    def test_sticky_data_read_fails_after_retry(self, prepared):
        _, injector, fs = prepared
        fault = injector.arm(read_failure("data"))
        with pytest.raises(FSError):
            fs.read_file("/d/big")
        assert fault._fired >= 2  # original + one retry

    def test_writes_never_retried(self, prepared):
        _, injector, fs = prepared
        fault = injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL,
                                   block_type="bitmap"))
        with pytest.raises(KernelPanic):
            fs.write_file("/x", b"y" * 2048)
        assert fault._fired == 1


class TestSpaceLeakBug:
    def test_truncate_leaks_on_indirect_read_failure(self, prepared):
        """Detected but ignored: statfs shows less free space afterwards
        than a clean truncate would give (§5.2)."""
        _, injector, fs = prepared
        free_before = fs.statfs().free_blocks
        # Skip the reads of the indirect-item leaf made during lookup
        # and the stat fetch; fail the body-item scan itself (a latent
        # error appearing at exactly that moment).
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL,
                           block_type="indirect", match_index=2))
        fs.truncate("/d/big", 0)  # returns success
        assert fs.syslog.has_event("ignored-error")
        # The ~20 data blocks were never freed: leaked.
        assert fs.statfs().free_blocks < free_before + 10


class TestSanityChecks:
    def test_corrupt_super_is_unmountable(self):
        disk, fs = make_reiserfs()
        disk.poke(0, b"\xff" * disk.block_size)
        with pytest.raises(FSError) as e:
            fs.mount()
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("unmountable")

    def test_corrupt_leaf_detected_and_propagated(self, prepared):
        _, injector, fs = prepared
        injector.arm(corruption("dir item"))
        with pytest.raises(FSError) as e:
            fs.stat("/plain")
        assert e.value.errno is Errno.EUCLEAN
        assert fs.syslog.has_event("sanity-fail")

    def test_corrupt_internal_node_panics(self, prepared):
        """The paper's bug: sanity failure on an internal node panics
        instead of returning an error."""
        disk, injector, fs = prepared
        assert fs.tree.height >= 2, "setup must produce an internal node"
        injector.arm(corruption("root"))
        with pytest.raises(KernelPanic):
            fs.stat("/plain")
        # (syslog still shows the sanity check fired first)

    def test_bitmap_corruption_not_detected(self, prepared):
        """Bitmaps carry no type information (§5.2)."""
        _, injector, fs = prepared
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT,
                           block_type="bitmap", corruption=CorruptionMode.ZERO))
        fs.write_file("/innocent", b"z" * 2048)  # allocates from garbage bitmap
        assert not fs.syslog.has_event("sanity-fail")


class TestJournalReplayBlindness:
    def test_corrupt_journal_data_replayed_anywhere(self):
        """No sanity check protects j-data: a corrupted copy can land on
        the superblock and render the volume unusable (§5.2)."""
        import struct
        disk, fs = make_reiserfs()
        fs.mount()
        fs.write_file("/seed", b"seed")
        fs.crash_after(lambda f: f.write_file("/crashy", b"logged"))

        # Find a journal descriptor and redirect its first home block to
        # the superblock (block 0).
        from repro.fs.ext3.journal import parse_desc, pack_desc
        jstart = 1
        for pos in range(1, 64):
            raw = disk.peek(jstart + pos)
            parsed = parse_desc(raw)
            if parsed is None:
                continue
            seq, homes = parsed
            # Redirect a journaled tree/bitmap copy onto the superblock.
            victims = [i for i, h in enumerate(homes) if h != 0]
            assert victims, "transaction journals only the superblock"
            homes[victims[-1]] = 0
            disk.poke(jstart + pos, pack_desc(disk.block_size, seq, homes))
            break
        else:
            pytest.fail("no descriptor block found in the journal")

        fs2 = type(fs)(disk)
        try:
            fs2.mount()
            # If the mount survived, the superblock was overwritten by a
            # tree/stat block and the volume is now nonsense; a remount
            # must fail its sanity check.
            fs2.unmount()
            fs3 = type(fs)(disk)
            with pytest.raises(FSError):
                fs3.mount()
        except (FSError, KernelPanic):
            pass  # immediate casualty is equally acceptable
