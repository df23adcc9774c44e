"""Journal-capacity behaviour across all journaled file systems: logs
must recycle cleanly under sustained load, and recovery must handle a
log that wrapped many times."""

import pytest

from repro.common.errors import FSError
from repro.common.syslog import SysLog
from repro.crash.engine import CRASH_PROFILES, check_state, enumerate_states, record
from repro.crash.workloads import CrashWorkload
from repro.disk import make_disk
from repro.fs.ext3 import Ext3
from repro.fs.ext3.journal import (
    Journal,
    desc_capacity,
    pack_journal_super,
    parse_revoke,
)
from repro.fs.jfs import JFS
from repro.fs.ntfs import NTFS
from repro.fs.reiserfs import ReiserFS

from conftest import FS_FACTORIES


class TestSustainedLoad:
    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_hundreds_of_ops_in_sync_mode(self, name):
        """Each op commits + checkpoints: the log recycles constantly."""
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        for i in range(60):
            fs.write_file(f"/f{i % 12}", bytes([i % 256]) * 700)
        for i in range(12):
            assert len(fs.read_file(f"/f{i}")) == 700
        fs.unmount()
        fs2 = type(fs)(disk)
        fs2.mount()
        for i in range(12):
            assert len(fs2.read_file(f"/f{i}")) == 700

    @pytest.mark.parametrize("name", ["ext3", "ixt3", "reiserfs", "ntfs"])
    def test_batched_mode_overflows_into_checkpoint(self, name):
        """One giant batch larger than the journal forces a mid-commit
        checkpoint; nothing is lost."""
        disk, fs = FS_FACTORIES[name]()
        fs.sync_mode = False
        fs.commit_every = 10 ** 6
        fs.mount()
        for i in range(50):
            fs.mkdir(f"/dir{i:03d}")
        fs.sync()
        fs.unmount()
        fs2 = type(fs)(disk)
        fs2.mount()
        listing = set(fs2.getdirentries("/"))
        assert {f"dir{i:03d}" for i in range(50)} <= listing

    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_crash_after_many_wraps(self, name):
        """The log wrapped repeatedly before the crash: recovery replays
        only the last, real transactions — not stale ones."""
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        for i in range(40):
            fs.write_file(f"/warm{i % 8}", bytes([i % 256]) * 600)
        fs.crash_after(lambda f: f.write_file("/last", b"final transaction"))
        fs2 = type(fs)(disk)
        fs2.mount()
        assert fs2.read_file("/last") == b"final transaction"
        for i in range(32, 40):
            assert len(fs2.read_file(f"/warm{i % 8}")) == 600


class TestJournalCounters:
    def test_checkpoint_count_grows_under_pressure(self):
        from conftest import make_ext3
        disk, fs = make_ext3()
        fs.mount()
        before = fs.journal.checkpoints
        for i in range(30):
            fs.write_file(f"/f{i}", b"p" * 1500)
        assert fs.journal.checkpoints > before

    def test_commit_counter_matches_sync_mode(self):
        from conftest import make_jfs
        disk, fs = make_jfs()
        fs.mount()
        n0 = fs.journal.commits
        fs.mkdir("/a")
        fs.mkdir("/b")
        assert fs.journal.commits >= n0 + 2  # one commit per op


BIG_BLOCKS = 300  # ReiserFS revokes every block it frees: two revoke blocks


def _write_big(fs, path, nblocks=BIG_BLOCKS):
    fd = fs.creat(path)
    written = 0
    try:
        for _ in range(nblocks):
            written += fs.write(fd, bytes([written // 1024 % 251 + 1]) * 1024)
    except FSError:
        pass  # this file system's size limit comes first
    fs.close(fd)
    return written


def _revoke_blocks(disk, start, nblocks):
    """The homes each revoke block of the newest transaction in the
    journal region names (older ones are stale log contents)."""
    found = [parse_revoke(disk.peek(b)) for b in range(start + 1, start + nblocks)]
    newest = max(seq for seq, _ in filter(None, found))
    return [blocks for seq, blocks in filter(None, found) if seq == newest]


class TestRevokeOverflow:
    """ROADMAP 2(b): ``Journal.commit`` packed every revoke of a
    transaction into one block, so more than ``desc_capacity`` of them
    reached the disk as an oversized write — an untyped ``ValueError``
    out of ``unlink``."""

    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_freeing_a_big_file_in_one_transaction(self, name):
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        free = fs.statfs().free_blocks
        size = _write_big(fs, "/big")
        assert size >= 48 * 1024 and fs.stat("/big").size == size
        fs.truncate("/big", 0)
        assert _write_big(fs, "/big") == size
        fs.unlink("/big")
        assert fs.statfs().free_blocks == free
        fs.unmount()
        fs2 = type(fs)(disk)
        fs2.mount()
        assert not fs2.exists("/big")
        assert fs2.statfs().free_blocks == free

    def test_reiserfs_unlink_survives_a_crash_after_commit(self):
        disk, fs = FS_FACTORIES["reiserfs"]()
        fs.mount()
        fs.write_file("/keep", b"kept" * 300)
        assert _write_big(fs, "/big") == BIG_BLOCKS * 1024
        with_big = fs.statfs().free_blocks
        fs.crash_after(lambda f: f.unlink("/big"))
        cfg = fs.config
        revoked = _revoke_blocks(disk, cfg.journal_start, cfg.journal_blocks)
        cap = desc_capacity(cfg.block_size)
        assert len(revoked) == 2 and [len(r) <= cap for r in revoked] == [True] * 2
        assert len(set(revoked[0]) | set(revoked[1])) >= BIG_BLOCKS
        fs2 = type(fs)(disk)
        fs2.mount()
        assert not fs2.exists("/big")
        assert fs2.read_file("/keep") == b"kept" * 300
        # The tree keeps a couple of emptied nodes; every data block is back.
        assert fs2.statfs().free_blocks >= with_big + BIG_BLOCKS

    def test_replay_honours_revokes_from_every_revoke_block(self):
        bs, start, nblocks = 1024, 1, 400
        disk = make_disk(1024, bs)
        disk.write_block(start, pack_journal_super(bs, 1, clean=True))
        labels = {}

        def journal():
            return Journal(
                start=start, nblocks=nblocks, block_size=bs, syslog=SysLog(),
                journal_write=disk.write_block, home_write=disk.write_block,
                ordered_write=disk.write_block, read_block=disk.read_block,
                set_type=labels.__setitem__, stall=lambda seconds: None,
                commit_stall_s=0.0)

        log = journal()
        homes = list(range(500, 500 + BIG_BLOCKS))
        for home in homes:
            log.add_meta(home, bytes([home % 251 + 1]) * bs)
        log.commit()                       # txn 1 journals every home
        for home in homes:
            log.revoke(home)
        log.add_meta(900, b"\x07" * bs)
        log.commit()                       # txn 2 revokes them all
        assert log.head <= nblocks
        log.crash()

        revoked = _revoke_blocks(disk, start, nblocks)
        assert [len(r) for r in revoked] == [desc_capacity(bs),
                                             BIG_BLOCKS - desc_capacity(bs)]
        assert sorted(revoked[0] + revoked[1]) == homes
        assert sorted(b for b, t in labels.items() if t == "j-revoke") == [
            b for b in range(start + 1, start + nblocks)
            if parse_revoke(disk.peek(b))]

        assert journal().recover() == 2
        # A home named only in the *second* revoke block is not
        # replayed either; the one block still live is.
        assert all(disk.peek(home) == bytes(bs) for home in homes)
        assert disk.peek(900) == b"\x07" * bs

    def test_footprint_counts_every_revoke_block(self):
        disk, fs = FS_FACTORIES["ext3"]()
        fs.mount()
        cap = desc_capacity(fs.block_size)
        footprint = fs.journal._txn_footprint
        assert footprint(0, 0) == 1
        assert footprint(3, 1) == 1 + 3 + 1 + 1
        assert footprint(cap + 1, cap + 1) == 2 + (cap + 1) + 2 + 1
        assert footprint(0, BIG_BLOCKS) == 2 + 1

    def test_ext3_type_walk_labels_each_revoke_block(self):
        """The gray-box oracle relearns journal roles from the stored
        headers at mount; every revoke block must come back ``j-revoke``
        (ReiserFS's walk has no such row: its Table-4 types list none,
        and a revoke block reads as ``j-data`` after a mount)."""
        disk, fs = FS_FACTORIES["ext3"]()
        fs.mount()
        fs.sync_mode = False
        for block in range(300, 300 + BIG_BLOCKS):
            fs.journal.revoke(block)
        fs.journal.commit()
        fs._relearn_types()
        fs._types_state()
        cfg = fs.config
        assert [b for b, t in sorted(fs._jtypes.items()) if t == "j-revoke"] == [
            b for b in range(cfg.journal_start + 1,
                             cfg.journal_start + cfg.journal_blocks)
            if parse_revoke(disk.peek(b))]
        assert len(_revoke_blocks(disk, cfg.journal_start, cfg.journal_blocks)) == 2

    def test_crash_exploration_over_the_big_unlink(self):
        """What ``repro crash reiserfs`` does — record, enumerate,
        check every state — on a workload whose middle epoch is that
        unlink: recording used to die in ``commit_transaction``."""
        workload = CrashWorkload(
            key="big-unlink",
            name="unlink a file of 300 blocks in one transaction",
            setup=lambda fs: (fs.write_file("/keep", b"kept" * 64),
                              _write_big(fs, "/big")),
            steps=(lambda fs: fs.write_file("/before", b"b" * 100),
                   lambda fs: fs.unlink("/big"),
                   lambda fs: fs.write_file("/after", b"a" * 100)),
            protected=("/keep",),
        )
        rec = record(CRASH_PROFILES["reiserfs"], workload)
        assert len(rec.boundaries) == 3
        states = enumerate_states(rec, 4)
        observations = [check_state(rec, state) for state in states]
        assert len(observations) == len(states) > len(rec.boundaries)
        lost = [v for obs in observations for v in obs.violations
                if "/keep" in v.detail]
        assert not lost
