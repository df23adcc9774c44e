"""JFS internals: structures, sanity checks, and the record journal."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitmap import Bitmap
from repro.common.errors import CorruptionDetected
from repro.common.syslog import SysLog
from repro.fs.jfs.config import JFSConfig
from repro.fs.jfs.journal import (
    LogRecord,
    RecordJournal,
    diff_records,
    pack_log_super,
    parse_log_super,
)
from repro.fs.jfs.structures import (
    AggregateInode,
    AGGR_MAGIC,
    JFSInode,
    JFSSuper,
    JFS_MAGIC,
    JFS_VERSION,
    check_inode_block,
    pack_dir_block,
    pack_inode_block,
    pack_map_block,
    pack_tree_block,
    unpack_dir_block,
    unpack_map_block,
    unpack_tree_block,
)


class TestConfigLayout:
    def test_regions_in_order(self):
        cfg = JFSConfig()
        order = [cfg.journal_super, cfg.journal_data_start,
                 cfg.aggr_inode_block, cfg.aggr_inode_secondary,
                 cfg.bmap_desc_block, cfg.bmap_start,
                 cfg.imap_control_block, cfg.imap_start,
                 cfg.inode_table_start, cfg.data_start]
        assert order == sorted(order)
        assert cfg.data_start < cfg.total_blocks

    def test_secondary_aggr_is_adjacent(self):
        cfg = JFSConfig()
        assert cfg.aggr_inode_secondary == cfg.aggr_inode_block + 1

    def test_inode_location(self):
        cfg = JFSConfig()
        seen = set()
        for ino in range(1, cfg.num_inodes + 1):
            loc = cfg.inode_location(ino)
            assert loc not in seen
            seen.add(loc)
        with pytest.raises(ValueError):
            cfg.inode_location(cfg.num_inodes + 1)

    def test_cached_layout_is_invisible_to_the_dataclass(self):
        """The derived layout is computed once per instance and kept
        beside the fields, never among them."""
        warm, cold = JFSConfig(), JFSConfig()
        layout = [warm.data_start, warm.inode_table_start, warm.bmap_blocks,
                  warm.inodes_per_block, warm.max_file_blocks]
        assert "data_start" in vars(warm)  # computed once, then a plain attribute
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) and "data_start" not in repr(warm)
        assert [f.name for f in dataclasses.fields(warm)] == [
            "block_size", "total_blocks", "journal_blocks", "num_inodes",
            "num_direct", "tree_fanout", "inode_size"]
        # replace() starts from the fields alone: nothing stale rides along.
        bigger = dataclasses.replace(warm, journal_blocks=warm.journal_blocks + 8,
                                     total_blocks=1024)
        assert bigger != warm and bigger.data_start == warm.data_start + 8
        assert [warm.data_start, warm.inode_table_start, warm.bmap_blocks,
                warm.inodes_per_block, warm.max_file_blocks] == layout
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.block_size = 2048


class TestStructures:
    def test_super_roundtrip_and_sanity(self):
        sb = JFSSuper(magic=JFS_MAGIC, version=JFS_VERSION, block_size=1024,
                      total_blocks=768, free_blocks=700, free_inodes=90,
                      num_inodes=98, journal_blocks=48, num_direct=8,
                      tree_fanout=16)
        assert JFSSuper.unpack(sb.pack(1024)) == sb
        assert sb.is_valid()
        bad = JFSSuper.unpack(b"\x00" * 1024)
        assert not bad.is_valid()

    @given(st.builds(JFSInode,
                     mode=st.integers(0, 0xFFFF),
                     links=st.integers(0, 100),
                     size=st.integers(0, 2**40),
                     direct=st.lists(st.integers(0, 2**31), min_size=8, max_size=8),
                     tree_root=st.integers(0, 2**31),
                     tree_levels=st.integers(0, 2)))
    def test_property_inode_roundtrip(self, inode):
        assert JFSInode.unpack(inode.pack(128)) == inode

    def test_inode_block_count_checked(self):
        inodes = [JFSInode(mode=1, links=1)] * 3 + [None] * 4
        block = pack_inode_block(inodes, 1024, 128)
        check_inode_block(block, 0, 7)  # fine
        import struct
        bad = bytearray(block)
        struct.pack_into("<I", bad, 0, 5000)
        with pytest.raises(CorruptionDetected):
            check_inode_block(bytes(bad), 0, 7)

    def test_dir_block_roundtrip_and_sanity(self):
        entries = [(2, 2, "."), (2, 2, ".."), (17, 1, "mail")]
        block = pack_dir_block(entries, 1024)
        assert unpack_dir_block(block, 0, 1024) == entries
        import struct
        bad = bytearray(block)
        struct.pack_into("<I", bad, 0, 100000)
        with pytest.raises(CorruptionDetected):
            unpack_dir_block(bytes(bad), 0, 1024)

    def test_tree_block_roundtrip_and_sanity(self):
        block = pack_tree_block(2, [5, 6, 7], 1024, 16)
        assert unpack_tree_block(block, 0, 16) == (2, [5, 6, 7])
        with pytest.raises(CorruptionDetected):
            unpack_tree_block(b"\x00" * 1024, 0, 16)  # level 0 invalid
        with pytest.raises(ValueError):
            pack_tree_block(1, list(range(99)), 1024, 16)

    def test_map_block_equality_check(self):
        bmp = Bitmap(100)
        bmp.set(3)
        block = pack_map_block(bmp, 1024)
        again = unpack_map_block(block, 0, 100)
        assert again.test(3) and not again.test(4)
        import struct
        bad = bytearray(block)
        struct.pack_into("<I", bad, 0, 999)  # free-count fields now disagree
        with pytest.raises(CorruptionDetected):
            unpack_map_block(bytes(bad), 0, 100)

    def test_map_block_bits_vs_count_check(self):
        bmp = Bitmap(100)
        block = bytearray(pack_map_block(bmp, 1024))
        block[8] |= 1  # flip a bit without touching the counts
        with pytest.raises(CorruptionDetected):
            unpack_map_block(bytes(block), 0, 100)

    def test_aggregate_inode(self):
        aggr = AggregateInode(magic=AGGR_MAGIC, bmap_desc=5, imap_cntl=9,
                              log_start=2)
        assert AggregateInode.unpack(aggr.pack(1024)).is_valid()
        assert not AggregateInode.unpack(b"\x00" * 1024).is_valid()


def _diff_spans_bytewise(old, new, max_span_gap):
    """The per-byte loop ``diff_records`` used to be, kept as the
    reference: ``(start, end)`` of each run of differing bytes, runs
    fewer than ``max_span_gap + 1`` equal bytes apart merged."""
    spans = []
    i, n = 0, len(new)
    while i < n:
        if old[i] == new[i]:
            i += 1
            continue
        j = i + 1
        gap = 0
        while j < n and gap <= max_span_gap:
            if old[j] != new[j]:
                gap = 0
            else:
                gap += 1
            j += 1
        spans.append((i, j - gap))
        i = j
    return spans


_GAPS = (0, 1, 16, 40)


class TestDiffRecords:
    @staticmethod
    def _check(old, new, gap):
        recs = diff_records(7, old, new, max_span_gap=gap)
        assert recs == [LogRecord(7, s, new[s:e])
                        for s, e in _diff_spans_bytewise(old, new, gap)]

    @settings(max_examples=120, deadline=None)
    @given(size=st.sampled_from([64, 128, 1024]), seed=st.integers(0, 2**32),
           runs=st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 48)),
                         max_size=8),
           gap=st.sampled_from(_GAPS))
    def test_property_matches_bytewise_reference(self, size, seed, runs, gap):
        old = random.Random(seed).randbytes(size)
        new = bytearray(old)
        for start, length in runs:
            for i in range(start % size, min(start % size + length, size)):
                new[i] ^= 1 + (i * 7 + seed) % 255  # never the old byte
        self._check(old, bytes(new), gap)

    @pytest.mark.parametrize("gap", _GAPS)
    @pytest.mark.parametrize("size", [64, 128, 1024])
    def test_edges_and_exact_gaps_match_reference(self, size, gap):
        old = bytes(size)

        def differing_at(*offsets):
            new = bytearray(size)
            for off in offsets:
                new[off] = 0xFF
            return bytes(new)

        self._check(old, differing_at(0), gap)
        self._check(old, differing_at(size - 1), gap)
        self._check(old, differing_at(0, size - 1), gap)
        self._check(old, bytes([0xFF]) * size, gap)
        # Two diffs with exactly ``gap`` equal bytes between them share a
        # record; one more equal byte splits them.
        merged = diff_records(7, old, differing_at(3, 3 + gap + 1), max_span_gap=gap)
        split = diff_records(7, old, differing_at(3, 3 + gap + 2), max_span_gap=gap)
        assert [(r.offset, len(r.data)) for r in merged] == [(3, gap + 2)]
        assert [(r.offset, len(r.data)) for r in split] == [(3, 1), (3 + gap + 2, 1)]
        self._check(old, differing_at(3, 3 + gap + 1), gap)
        self._check(old, differing_at(3, 3 + gap + 2), gap)
        # ... at the far end of the block too.
        self._check(old, differing_at(size - gap - 2, size - 1), gap)
        self._check(old, differing_at(size - gap - 3, size - 1), gap)

    @pytest.mark.parametrize("gap", _GAPS)
    def test_no_usable_prior_image_logs_whole_block(self, gap):
        new = bytes(range(64))
        whole = [LogRecord(7, 0, new)]
        assert diff_records(7, None, new, max_span_gap=gap) == whole
        assert diff_records(7, new[:-1], new, max_span_gap=gap) == whole
        assert diff_records(7, new + b"x", new, max_span_gap=gap) == whole

    def test_no_prior_image_logs_whole_block(self):
        recs = diff_records(7, None, b"abc")
        assert len(recs) == 1 and recs[0].offset == 0 and recs[0].data == b"abc"

    def test_identical_logs_nothing(self):
        assert diff_records(7, b"same", b"same") == []

    def test_single_span(self):
        old = b"aaaaaaaaaa"
        new = b"aaaXXXaaaa"
        recs = diff_records(7, old, new)
        assert len(recs) == 1
        assert recs[0].offset == 3 and recs[0].data == b"XXX"

    def test_distant_spans_split(self):
        old = bytearray(200)
        new = bytearray(200)
        new[5] = 1
        new[150] = 2
        recs = diff_records(7, bytes(old), bytes(new), max_span_gap=16)
        assert len(recs) == 2

    @settings(max_examples=50)
    @given(st.binary(min_size=32, max_size=256),
           st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=10))
    def test_property_patches_reconstruct(self, old, edits):
        new = bytearray(old)
        for pos, val in edits:
            new[pos % len(new)] = val
        new = bytes(new)
        image = bytearray(old)
        for rec in diff_records(7, old, new):
            image[rec.offset:rec.offset + len(rec.data)] = rec.data
        assert bytes(image) == new


class TestRecordJournal:
    def _journal(self):
        store = {}

        def write(block, data):
            store[block] = data

        def read(block):
            return store.get(block, b"\x00" * 1024)

        j = RecordJournal(
            super_block=0, data_start=1, nblocks=16, block_size=1024,
            syslog=SysLog(), super_write=write, record_write=write,
            home_write=write, read_block=read,
            stall=lambda s: None, commit_stall_s=0.0,
        )
        store[0] = pack_log_super(1024, 1, clean=True)
        return j, store

    def test_commit_and_recover(self):
        j, store = self._journal()
        j.begin()
        j.log(100, b"A" * 1024, b"\x00" * 1024)
        j.log(101, b"B" * 1024, None)
        j.commit()
        # Homes are not yet written (no checkpoint)...
        assert 100 not in store or store.get(100) != b"A" * 1024
        # ...but recovery replays the committed records.
        j2, _ = self._journal()
        j2._read_block = lambda b: store.get(b, b"\x00" * 1024)
        j2._home_write = lambda b, d: store.__setitem__(b, d)
        j2._super_write = lambda b, d: store.__setitem__(b, d)
        replayed = j2.recover()
        assert replayed == 1
        assert store[100] == b"A" * 1024
        assert store[101] == b"B" * 1024

    def test_cached_view(self):
        j, _ = self._journal()
        j.begin()
        j.log(50, b"X" * 1024, None)
        assert j.cached(50) == b"X" * 1024
        j.commit()
        assert j.cached(50) == b"X" * 1024  # now from checkpoint set
        j.checkpoint()
        assert j.cached(50) is None

    def test_empty_commit_is_noop(self):
        j, store = self._journal()
        j.begin()
        before = dict(store)
        j.commit()
        assert store == before

    def test_corrupt_record_block_aborts_replay(self):
        j, store = self._journal()
        j.begin()
        j.log(100, b"A" * 1024, None)
        j.commit()
        # Corrupt the record block's header fields beyond the magic.
        import struct
        raw = bytearray(store[1])
        struct.pack_into("<H", raw, 8, 60000)  # absurd record count
        store[1] = bytes(raw)
        j2, _ = self._journal()
        j2._read_block = lambda b: store.get(b, b"\x00" * 1024)
        with pytest.raises(CorruptionDetected):
            j2.recover()

    def test_log_super_roundtrip(self):
        raw = pack_log_super(1024, 17, clean=False)
        assert parse_log_super(raw) == (17, False)
        assert parse_log_super(b"\xff" * 1024) is None

    def test_abort_stops_commits(self):
        j, store = self._journal()
        j.begin()
        j.log(100, b"A" * 1024, None)
        j.abort()
        j.commit()
        assert j.aborted
        assert 1 not in store or parse_log_super(store.get(1, b"\x00" * 16)) is None
