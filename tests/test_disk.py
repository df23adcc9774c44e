"""Tests for the simulated disk: storage semantics, timing, failure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import OutOfRangeError, ReadError, WriteError
from repro.disk import DiskGeometry, SimulatedDisk, make_disk


class TestBasicIO:
    def test_unwritten_blocks_read_zero(self):
        disk = make_disk(16, 1024)
        assert disk.read_block(5) == b"\x00" * 1024

    def test_read_after_write(self):
        disk = make_disk(16, 512)
        payload = bytes(range(256)) * 2
        disk.write_block(3, payload)
        assert disk.read_block(3) == payload

    def test_write_wrong_size_rejected(self):
        disk = make_disk(4, 512)
        with pytest.raises(ValueError):
            disk.write_block(0, b"short")

    def test_out_of_range(self):
        disk = make_disk(4, 512)
        with pytest.raises(OutOfRangeError):
            disk.read_block(4)
        with pytest.raises(OutOfRangeError):
            disk.write_block(-1, b"\x00" * 512)

    def test_stats_accumulate(self):
        disk = make_disk(16, 512)
        disk.write_block(0, b"\x00" * 512)
        disk.read_block(0)
        disk.read_block(8)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.bytes_read == 1024


class TestTimingModel:
    def test_clock_advances(self):
        disk = make_disk(1024, 512)
        t0 = disk.clock
        disk.read_block(500)
        assert disk.clock > t0

    def test_sequential_cheaper_than_random(self):
        geo = dict(num_blocks=100000, block_size=512)
        seq = make_disk(**geo)
        for i in range(100):
            seq.read_block(i)
        rnd = make_disk(**geo)
        for i in range(100):
            rnd.read_block((i * 7919) % 100000)
        assert seq.clock < rnd.clock

    def test_stall_adds_time(self):
        disk = make_disk(4, 512)
        disk.stall(0.5)
        assert disk.clock == pytest.approx(0.5)
        with pytest.raises(ValueError):
            disk.stall(-1.0)

    def test_seek_time_monotone_in_distance(self):
        geo = DiskGeometry(num_blocks=10000, block_size=512)
        # Positioning is whatever a request costs beyond its transfer.
        near = geo.service_time(10) - geo.transfer_s
        far = geo.service_time(9000) - geo.transfer_s
        assert 0 < near < far

    def test_same_and_next_block_are_free_seeks(self):
        geo = DiskGeometry(num_blocks=100, block_size=512)
        assert geo.service_time(0) == geo.transfer_s
        assert geo.service_time(1) == geo.transfer_s

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DiskGeometry(num_blocks=0)
        with pytest.raises(ValueError):
            DiskGeometry(num_blocks=4, block_size=100)


class TestWholeDiskFailure:
    def test_fail_stop(self):
        disk = make_disk(8, 512)
        disk.write_block(0, b"\x01" * 512)
        disk.fail_whole_disk()
        with pytest.raises(ReadError):
            disk.read_block(0)
        with pytest.raises(WriteError):
            disk.write_block(1, b"\x00" * 512)

    def test_revive(self):
        disk = make_disk(8, 512)
        disk.write_block(0, b"\x01" * 512)
        disk.fail_whole_disk()
        disk.revive()
        assert disk.read_block(0) == b"\x01" * 512


class TestSnapshotRestore:
    def test_roundtrip(self):
        disk = make_disk(8, 512)
        disk.write_block(2, b"\xaa" * 512)
        snap = disk.snapshot()
        disk.write_block(2, b"\xbb" * 512)
        disk.restore(snap)
        assert disk.read_block(2) == b"\xaa" * 512
        assert disk.clock > 0  # the verification read itself costs time

    def test_restore_resets_clock_and_stats(self):
        disk = make_disk(8, 512)
        disk.write_block(1, b"\x00" * 512)
        snap = disk.snapshot()
        disk.restore(snap)
        assert disk.clock == 0.0
        assert disk.stats.reads == 0

    def test_size_mismatch_rejected(self):
        disk = make_disk(8, 512)
        with pytest.raises(ValueError):
            disk.restore(make_disk(4, 512).snapshot())

    def test_only_a_slab_image_of_this_geometry_restores(self):
        """A list, a tuple, an array snapshot, raw bytes and an image of
        another block size are each refused with ValueError, and the
        device keeps its contents."""
        from repro.redundancy import make_array

        disk = make_disk(8, 512)
        disk.write_block(3, b"\x33" * 512)
        array = make_array("mirror", 8, 512, members=2)
        wrong = [
            [None] * 8,
            (None,) * 8,
            array.snapshot(),
            bytes(8),
            make_disk(8, 1024).snapshot(),
        ]
        for snapshot in wrong:
            with pytest.raises(ValueError):
                disk.restore(snapshot)
        assert disk.peek(3) == b"\x33" * 512

    def test_cow_roundtrip_is_bit_identical(self):
        """snapshot -> mutate -> restore round-trips every block exactly,
        and the golden image itself is never modified (restore aliases
        it; writes privatize into the delta)."""
        disk = make_disk(8, 512)
        disk.write_block(1, b"\x01" * 512)
        disk.write_block(6, b"\x06" * 512)
        snap = disk.snapshot()
        # independent record of the snapshot contents
        golden = [snap.block(i) for i in range(8)]
        disk.restore(snap)
        disk.write_block(1, b"\xee" * 512)
        disk.write_block(3, b"\x33" * 512)
        disk.poke(6, b"\x99" * 512)
        assert [snap.block(i) for i in range(8)] == golden, \
            "mutating a restored disk altered its snapshot"
        disk.restore(snap)
        for block in range(8):
            expected = golden[block] if golden[block] is not None else b"\x00" * 512
            assert disk.peek(block) == expected, f"block {block} differs"
        assert [snap.block(i) for i in range(8)] == golden

    def test_cow_restore_resets_head_clock_stats_identically(self):
        """restore()-via-aliasing must reset the timing state exactly as
        a fresh device: same head position, zero clock, zero stats."""
        disk = make_disk(1024, 512)
        disk.write_block(900, b"\x0a" * 512)  # drag the head far out
        snap = disk.snapshot()
        disk.read_block(500)
        disk.restore(snap)
        assert disk._head == 0
        assert disk.clock == 0.0
        assert disk.stats.reads == 0 and disk.stats.writes == 0
        assert disk.stats.seeks == 0 and disk.stats.busy_time_s == 0.0
        assert not disk.failed
        # Behavioral check: the restored disk charges the same time for
        # the same access pattern as a brand-new device.
        fresh = make_disk(1024, 512)
        for block in (700, 3, 350):
            disk.read_block(block)
            fresh.read_block(block)
        assert disk.clock == pytest.approx(fresh.clock)

    def test_many_restores_from_one_snapshot(self):
        """The harness pattern: one golden image restored per cell."""
        disk = make_disk(8, 512)
        disk.write_block(2, b"\xaa" * 512)
        snap = disk.snapshot()
        for fill in (b"\x10", b"\x20", b"\x30"):
            disk.restore(snap)
            disk.write_block(2, fill * 512)
            disk.write_block(5, fill * 512)
            assert disk.read_block(2) == fill * 512
        disk.restore(snap)
        assert disk.read_block(2) == b"\xaa" * 512
        assert disk.read_block(5) == b"\x00" * 512


class TestPeekPoke:
    def test_peek_costs_no_time(self):
        disk = make_disk(8, 512)
        disk.write_block(3, b"\x42" * 512)
        t = disk.clock
        assert disk.peek(3) == b"\x42" * 512
        assert disk.clock == t

    def test_poke_changes_contents_silently(self):
        disk = make_disk(8, 512)
        disk.poke(1, b"\x07" * 512)
        assert disk.read_block(1) == b"\x07" * 512
        assert disk.stats.writes == 0


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 31), st.binary(min_size=512, max_size=512)),
                max_size=40))
def test_property_disk_is_a_block_map(ops):
    """The disk behaves exactly as a dict of block -> last write."""
    disk = make_disk(32, 512)
    model = {}
    for block, payload in ops:
        disk.write_block(block, payload)
        model[block] = payload
    for block in range(32):
        expected = model.get(block, b"\x00" * 512)
        assert disk.read_block(block) == expected
