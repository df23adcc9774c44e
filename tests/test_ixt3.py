"""ixt3 tests: every IRON mechanism of §6, plus the fixed ext3 bugs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.checksum import sha1
from repro.common.errors import Errno, FSError
from repro.disk import (
    CorruptionMode,
    DeviceStack,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    corruption,
    make_disk,
    read_failure,
    write_failure,
)
from repro.fingerprint.adapters import EXT3_FINGERPRINT_CONFIG
from repro.fs.ext3 import Ext3Config
from repro.obs.events import EventLog
from repro.fs.ixt3 import (
    ALL_FEATURES,
    FEAT_DATA_CSUM,
    FEAT_DATA_PARITY,
    FEAT_META_CSUM,
    FEAT_META_REPLICA,
    FEAT_TXN_CSUM,
    Ixt3,
    ixt3_config,
    mkfs_ixt3,
)

from conftest import IXT3_BASE, IXT3_CFG, make_ixt3


def fresh(features=ALL_FEATURES, populate=True):
    disk = make_disk(IXT3_CFG.total_blocks, IXT3_CFG.block_size)
    mkfs_ixt3(disk, IXT3_BASE, features=features, config=IXT3_CFG)
    fs = Ixt3(disk)
    fs.mount()
    if populate:
        fs.mkdir("/d")
        bs = fs.statfs().block_size
        fs.write_file("/d/big", bytes((i * 7) % 256 for i in range(24 * bs)))
        fs.write_file("/plain", b"iron file contents")
    fs.unmount()
    injector = FaultInjector(disk, events=EventLog())
    fs2 = Ixt3(injector)
    fs2.mount()
    injector.set_type_oracle(fs2.block_type)
    return disk, injector, fs2


class TestFeatureFlags:
    def test_features_persist_in_superblock(self):
        _, _, fs = fresh(FEAT_META_CSUM | FEAT_TXN_CSUM)
        assert fs.meta_csum and not fs.data_csum
        assert fs._txn_checksum_enabled()
        assert not fs.meta_replica and not fs.data_parity

    def test_no_features_behaves_like_checked_ext3(self):
        _, injector, fs = fresh(0)
        injector.arm(read_failure("inode"))
        with pytest.raises(FSError):
            fs.stat("/plain")


class TestMetadataReplication:
    def test_read_failure_recovered_from_replica(self):
        _, injector, fs = fresh()
        injector.arm(read_failure("inode"))
        assert fs.stat("/plain").size == 18
        assert fs.syslog.has_event("redundancy-used")
        replica_reads = [e for e in injector.events.io_events()
                        if e.is_read() and e.block_type == "replica"]
        assert replica_reads

    @pytest.mark.parametrize("btype", ["inode", "dir", "indirect"])
    def test_read_path_metadata_recovered(self, btype):
        _, injector, fs = fresh()
        injector.arm(read_failure(btype))
        data = fs.read_file("/d/big")  # walks inode, dir, indirect blocks
        assert len(data) == 24 * fs.statfs().block_size
        assert fs.syslog.has_event("redundancy-used")

    @pytest.mark.parametrize("btype", ["bitmap", "i-bitmap"])
    def test_allocation_metadata_recovered(self, btype):
        _, injector, fs = fresh()
        injector.arm(read_failure(btype))
        fs.mkdir("/newdir")  # allocation reads both bitmaps
        assert fs.syslog.has_event("redundancy-used")
        assert fs.exists("/newdir")

    def test_both_copies_lost_propagates(self):
        _, injector, fs = fresh()
        injector.arm(read_failure("inode"))
        injector.arm(read_failure("replica"))
        with pytest.raises(FSError) as e:
            fs.stat("/plain")
        assert e.value.errno is Errno.EIO

    def test_replicas_updated_with_home(self):
        """Unlike ext3's stale superblock copies, ixt3 replicas track
        their home blocks transactionally."""
        disk, injector, fs = fresh()
        fs.write_file("/fresh", b"new data to move the inode table")
        fs.sync()
        # Every replicated home block's copy matches its home.
        replicas = fs.replicas
        for home, slot in replicas.slots.items():
            assert disk.peek(home) == disk.peek(replicas.slot_block(slot)), home

    @pytest.mark.xfail(strict=True, reason="ReplicaMap.release has no "
                       "caller: a freed directory or indirect block keeps "
                       "its replica slot")
    def test_freed_metadata_gives_back_its_replica_slot(self):
        """Rounds of 25 mkdirs, 25 rmdirs and one 30 KB file on the
        fingerprint geometry (121 slots): each round should keep only
        the file's slots, yet the leak fills the region in the fourth
        (51, 77, 103, 121 used) and later metadata goes unreplicated."""
        base = EXT3_FINGERPRINT_CONFIG
        cfg = ixt3_config(base)
        stack = DeviceStack.build(cfg.total_blocks, cfg.block_size)
        mkfs_ixt3(stack, base, config=cfg)
        fs = Ixt3(stack)
        fs.mount()
        fs.replicas._ensure_loaded()
        used = [len(fs.replicas.slots)]
        for r in range(4):
            for i in range(25):
                fs.mkdir(f"/d{r}.{i}")
            for i in range(25):
                fs.rmdir(f"/d{r}.{i}")
            fs.write_file(f"/f{r}", b"x" * 30 * 1024)
            used.append(len(fs.replicas.slots))
        assert not fs.syslog.has_event("replica-full")
        assert all(b - a < 25 for a, b in zip(used, used[1:])), used


class TestChecksums:
    def test_metadata_corruption_detected_and_repaired(self):
        _, injector, fs = fresh()
        injector.arm(corruption("inode"))
        assert fs.stat("/plain").size == 18
        assert fs.syslog.has_event("checksum-mismatch")
        assert fs.syslog.has_event("redundancy-used")

    def test_data_corruption_detected_and_reconstructed(self):
        _, injector, fs = fresh()
        injector.arm(corruption("data"))
        bs = fs.statfs().block_size
        expected = bytes((i * 7) % 256 for i in range(24 * bs))
        assert fs.read_file("/d/big") == expected

    def test_plausible_field_corruption_caught(self):
        """Misdirected-write-style damage passes type checks but not
        checksums (§5.6 → §6)."""
        from repro.fingerprint.adapters import ext3_field_corruptor
        _, injector, fs = fresh()
        injector.arm(corruption("inode", mode=CorruptionMode.FIELD,
                                corruptor=ext3_field_corruptor))
        st = fs.stat("/plain")
        assert st.size == 18  # repaired, not fooled
        assert fs.syslog.has_event("checksum-mismatch")

    def test_without_dc_data_corruption_undetected(self):
        _, injector, fs = fresh(FEAT_META_CSUM | FEAT_META_REPLICA)
        injector.arm(corruption("data"))
        bs = fs.statfs().block_size
        expected = bytes((i * 7) % 256 for i in range(24 * bs))
        assert fs.read_file("/d/big") != expected  # silently wrong
        assert not fs.syslog.has_event("checksum-mismatch")


class TestParity:
    def test_single_data_block_loss_recovered(self):
        _, injector, fs = fresh()
        injector.arm(read_failure("data"))
        bs = fs.statfs().block_size
        expected = bytes((i * 7) % 256 for i in range(24 * bs))
        assert fs.read_file("/d/big") == expected
        assert fs.syslog.has_event("redundancy-used")

    def test_parity_survives_overwrites(self):
        disk, injector, fs = fresh()
        bs = fs.statfs().block_size
        fd = fs.open("/d/big", 2)
        fs.write(fd, b"OVERWRITE" * 100, offset=5 * bs + 37)
        fs.close(fd)
        fs.sync()
        expected = fs.read_file("/d/big")
        injector.arm(read_failure("data"))
        assert fs.read_file("/d/big") == expected

    def test_parity_survives_truncate(self):
        disk, injector, fs = fresh()
        bs = fs.statfs().block_size
        fs.truncate("/d/big", 7 * bs + 3)
        fs.sync()
        expected = fs.read_file("/d/big")
        injector.arm(read_failure("data"))
        assert fs.read_file("/d/big") == expected

    def test_parity_block_is_bytewise_xor_of_data_blocks(self):
        """The Dp invariant itself, checked on the platter with a
        byte-at-a-time XOR after every kind of size change."""
        disk, _, fs = fresh(FEAT_DATA_PARITY, populate=False)
        bs = fs.statfs().block_size

        def check(*paths):
            fs.sync()
            for path in paths:
                inode = fs._node_get(fs.stat(path).ino)
                assert inode.parity_block != 0
                expected = bytearray(bs)
                for fb in range((inode.size + bs - 1) // bs):
                    bno, _ = fs._bmap(inode, fb, allocate=False)
                    if bno:
                        data = disk.peek(bno)
                        for i in range(bs):
                            expected[i] ^= data[i]
                assert disk.peek(inode.parity_block) == bytes(expected), path

        fs.write_file("/a", bytes((i * 11 + 3) % 256 for i in range(9 * bs + 100)))
        fs.write_file("/b", bytes((i * 5 + 1) % 256 for i in range(3 * bs)))
        fs.write_file("/empty", b"")
        check("/a", "/b", "/empty")
        fd = fs.open("/a", 2)
        fs.write(fd, b"OVERWRITE" * 150, offset=2 * bs + 37)   # overwrite
        fs.write(fd, b"tail" * 300, offset=9 * bs + 100)       # append
        fs.write(fd, b"far", offset=14 * bs + 5)               # past a hole
        fs.close(fd)
        check("/a", "/b")
        fs.truncate("/a", 4 * bs + 3)
        check("/a", "/b")
        fs.truncate("/a", 0)
        fs.truncate("/b", 6 * bs)                              # grow: a hole
        check("/a", "/b")
        fs.unlink("/b")
        fs.write_file("/c", b"reuses the freed blocks " * 100)
        check("/a", "/c", "/empty")

    def test_two_lost_blocks_not_recoverable(self):
        _, injector, fs = fresh()
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL,
                           block_type="data", locality_run=1))
        with pytest.raises(FSError):
            fs.read_file("/d/big")

    def test_parity_block_freed_with_file(self):
        _, _, fs = fresh(populate=False)
        free0 = fs.statfs().free_blocks
        fs.write_file("/p", b"x" * 3000)
        fs.unlink("/p")
        assert fs.statfs().free_blocks == free0

    def test_parity_block_freed_when_rename_replaces_the_file(self):
        """ROADMAP 2(d): only ``unlink`` released the parity block, so
        a file replaced by ``rename`` leaked one block each time."""
        def free_after(replace):
            _, _, fs = fresh(populate=False)
            fs.write_file("/victim", b"v" * 3000)
            fs.write_file("/mover", b"m" * 3000)
            replace(fs)
            assert fs.read_file("/victim") == b"m" * 3000
            return fs.statfs().free_blocks

        def unlink_then_rename(fs):
            fs.unlink("/victim")
            fs.rename("/mover", "/victim")

        assert (free_after(lambda fs: fs.rename("/mover", "/victim"))
                == free_after(unlink_then_rename))


class TestTransactionalChecksum:
    def test_commit_carries_checksum_and_skips_stall(self):
        disk_tc, _, fs_tc = fresh(FEAT_TXN_CSUM, populate=False)
        disk_plain, _, fs_plain = fresh(0, populate=False)
        raw_tc = fs_tc._raw_disk()
        raw_plain = fs_plain._raw_disk()
        for fs in (fs_tc, fs_plain):
            for i in range(10):
                fs.write_file(f"/f{i}", b"z" * 2048)
                fs.sync()
        assert raw_tc.clock < raw_plain.clock  # no pre-commit rotational waits

    def test_torn_commit_not_replayed(self):
        """A crash that corrupts part of a transaction is caught by the
        transactional checksum; the torn transaction is not replayed."""
        from repro.fs.ext3.journal import parse_desc
        disk = make_disk(IXT3_CFG.total_blocks, IXT3_CFG.block_size)
        mkfs_ixt3(disk, IXT3_BASE, features=FEAT_TXN_CSUM, config=IXT3_CFG)
        fs = Ixt3(disk)
        fs.mount()
        fs.write_file("/safe", b"committed and checkpointed")
        fs.crash_after(lambda f: f.write_file("/torn", b"never made it"))
        # Corrupt one journaled copy, simulating a torn concurrent write.
        jstart = IXT3_CFG.journal_start
        for pos in range(1, IXT3_CFG.journal_blocks):
            if parse_desc(disk.peek(jstart + pos)) is not None:
                disk.poke(jstart + pos + 1, b"\xde" * IXT3_CFG.block_size)
                break
        fs2 = Ixt3(disk)
        fs2.mount()
        assert fs2.syslog.has_event("txn-checksum-mismatch")
        assert fs2.read_file("/safe") == b"committed and checkpointed"
        assert not fs2.exists("/torn")


class TestWriteFailurePolicy:
    @pytest.mark.parametrize("btype", ["inode", "bitmap", "j-data", "j-commit"])
    def test_write_failure_aborts_and_remounts_ro(self, btype):
        _, injector, fs = fresh()
        injector.arm(write_failure(btype))
        try:
            fs.write_file("/victim", b"v" * 4096)
        except FSError:
            pass
        assert fs.read_only
        assert fs.syslog.has_event("write-error")
        assert fs.syslog.has_event("remount-ro")

    def test_failed_journal_write_squelches_commit(self):
        """The fixed ext3 bug: after a journal write failure, the commit
        block is never written."""
        _, injector, fs = fresh()
        injector.arm(write_failure("j-data"))
        try:
            fs.write_file("/victim", b"v" * 4096)
        except FSError:
            pass
        committed = [e for e in injector.events.io_events()
                     if e.op == "write" and e.outcome == "ok"
                     and e.block_type == "j-commit"]
        assert not committed


class TestFixedBugs:
    def test_truncate_propagates_errors(self):
        """The fixed ext3 bug: with both copies gone, truncate reports
        the error instead of failing silently."""
        _, injector, fs = fresh()
        injector.arm(read_failure("indirect"))
        injector.arm(read_failure("replica"))
        with pytest.raises(FSError):
            fs.truncate("/d/big", 10)
        assert not fs.syslog.has_event("silent-failure")

    def test_unlink_rejects_zero_link_count_without_crashing(self):
        from repro.fs.ext3.structures import Inode
        from repro.fs.ext3.config import INODE_SIZE
        _, injector, fs = fresh(FEAT_META_REPLICA)  # no checksums: corruption reaches code

        def zero_links(payload, btype):
            raw = bytearray(payload)
            for off in range(0, len(raw) - INODE_SIZE + 1, INODE_SIZE):
                inode = Inode.unpack(bytes(raw[off:off + INODE_SIZE]))
                if inode.is_allocated:
                    inode.links = 0
                    raw[off:off + INODE_SIZE] = inode.pack()
            return bytes(raw)

        injector.arm(corruption("inode", mode=CorruptionMode.FIELD,
                                corruptor=zero_links))
        with pytest.raises(FSError) as e:
            fs.unlink("/plain")
        assert e.value.errno is Errno.EUCLEAN  # error, not a kernel panic


class TestChecksumStoreUnit:
    def test_update_then_verify(self):
        from repro.fs.ixt3.features import ChecksumStore
        store_blocks = {}

        def read(b):
            return store_blocks.get(b, b"\x00" * 1024)

        def journal(b, d):
            store_blocks[b] = d

        store = ChecksumStore(100, 4, 1024, read, journal)
        store.update(7, b"payload")
        assert store.verify(7, b"payload")
        assert not store.verify(7, b"tampered")
        store.forget(7)
        assert store.verify(7, b"anything")  # no digest stored

    @settings(max_examples=30)
    @given(st.dictionaries(st.integers(0, 150), st.binary(min_size=1, max_size=64),
                           max_size=20))
    def test_property_store_tracks_latest(self, contents):
        from repro.fs.ixt3.features import ChecksumStore
        store_blocks = {}
        store = ChecksumStore(
            0, 4, 1024,
            lambda b: store_blocks.get(b, b"\x00" * 1024),
            store_blocks.__setitem__,
        )
        for block, payload in contents.items():
            store.update(block, payload)
        for block, payload in contents.items():
            if store.covers(block):
                assert store.verify(block, payload)
                assert not store.verify(block, payload + b"x")


class TestReplicaMapUnit:
    def test_assign_release_persist(self):
        from repro.fs.ixt3.features import ReplicaMap
        blocks = {}
        rm = ReplicaMap(200, 20, 2, 1024,
                        lambda b: blocks.get(b, b"\x00" * 1024),
                        lambda b, d: blocks.__setitem__(b, d))
        r1 = rm.assign(5)
        r2 = rm.assign(9)
        assert r1 != r2
        assert rm.assign(5) == r1  # stable
        # Reload from the persisted map blocks.
        rm2 = ReplicaMap(200, 20, 2, 1024,
                         lambda b: blocks.get(b, b"\x00" * 1024),
                         lambda b, d: blocks.__setitem__(b, d))
        assert rm2.replica_block_of(5) == r1
        assert rm2.replica_block_of(9) == r2
        rm2.release(5)
        assert rm2.replica_block_of(5) is None

    def test_capacity_exhaustion(self):
        from repro.fs.ixt3.features import ReplicaMap
        blocks = {}
        rm = ReplicaMap(0, 4, 2, 1024,
                        lambda b: blocks.get(b, b"\x00" * 1024),
                        lambda b, d: blocks.__setitem__(b, d))
        assert rm.slot_capacity == 2
        assert rm.assign(1) is not None
        assert rm.assign(2) is not None
        assert rm.assign(3) is None
