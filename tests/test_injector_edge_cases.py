"""Fault-injector edge cases: stacking, passthrough, multi-fault
interactions, and oracle dynamics."""

import pytest

from repro.common.errors import ReadError, WriteError
from repro.disk import (
    BlockCache,
    CorruptionMode,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    Persistence,
    make_disk,
)
from repro.obs.events import EventLog


def build():
    disk = make_disk(32, 512)
    for i in range(32):
        disk.write_block(i, bytes([i]) * 512)
    return disk, FaultInjector(disk, type_oracle=lambda b: f"t{b % 3}",
                               events=EventLog())


class TestStacking:
    def test_injector_under_cache(self):
        disk, inj = build()
        cache = BlockCache(inj, 8)
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=4))
        with pytest.raises(ReadError):
            cache.read_block(4)
        # A cached block shields later reads from a new fault.
        cache.read_block(5)
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=5))
        assert cache.read_block(5) == bytes([5]) * 512

    def test_clock_and_stall_passthrough(self):
        disk, inj = build()
        t = inj.clock
        inj.stall(0.25)
        assert inj.clock == pytest.approx(t + 0.25)
        cache = BlockCache(inj, 4)
        cache.stall(0.25)
        assert cache.clock == pytest.approx(t + 0.5)

    def test_double_injector_stack(self):
        disk, inj = build()
        outer = FaultInjector(inj, type_oracle=lambda b: "outer")
        outer.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=3))
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=7))
        with pytest.raises(ReadError):
            outer.read_block(3)  # outer layer fault
        with pytest.raises(ReadError):
            outer.read_block(7)  # inner layer fault
        assert outer.read_block(9) == bytes([9]) * 512


class TestMultipleFaults:
    def test_first_matching_fault_wins(self):
        disk, inj = build()
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT, block=5,
                      corruption=CorruptionMode.ZERO))
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=5))
        assert inj.read_block(5) == b"\x00" * 512  # corruption armed first

    @pytest.mark.parametrize("op", [FaultOp.READ, FaultOp.WRITE])
    def test_a_skipping_first_match_shields_later_faults(self, op):
        """Only the first matching fault is consulted: while it is still
        skipping toward its ``match_index`` the request is served, and
        a fault armed after it is neither consumed nor fired."""
        disk, inj = build()
        first = inj.arm(Fault(op=op, kind=FaultKind.FAIL, block=5,
                              match_index=1))
        later = inj.arm(Fault(op=op, kind=FaultKind.FAIL, block=5))
        if op is FaultOp.READ:
            assert inj.read_block(5) == bytes([5]) * 512
        else:
            inj.write_block(5, bytes([7]) * 512)
        assert (first._skipped, first._fired, later._fired) == (1, 0, 0)
        with pytest.raises((ReadError, WriteError)):
            if op is FaultOp.READ:
                inj.read_block(5)
            else:
                inj.write_block(5, bytes([8]) * 512)
        assert (first._fired, later._fired) == (1, 0)

    def test_read_and_write_faults_coexist(self):
        disk, inj = build()
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=5))
        inj.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=6))
        with pytest.raises(ReadError):
            inj.read_block(5)
        with pytest.raises(WriteError):
            inj.write_block(6, b"\x00" * 512)
        inj.write_block(5, b"\x01" * 512)  # write to 5 unaffected
        assert inj.read_block(6) == bytes([6]) * 512

    def test_type_faults_bind_independently(self):
        disk, inj = build()
        f1 = inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="t0"))
        f2 = inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="t1"))
        with pytest.raises(ReadError):
            inj.read_block(0)   # t0
        with pytest.raises(ReadError):
            inj.read_block(1)   # t1
        assert f1._locked_block == 0
        assert f2._locked_block == 1
        assert inj.read_block(3) == bytes([3]) * 512  # different t0 block: free


class TestOracleDynamics:
    def test_type_changes_are_seen_at_access_time(self):
        disk = make_disk(8, 512)
        types = {3: "before"}
        inj = FaultInjector(disk, type_oracle=types.get)
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="after"))
        inj.read_block(3)  # no match yet
        types[3] = "after"
        with pytest.raises(ReadError):
            inj.read_block(3)

    def test_trace_records_types(self):
        disk, inj = build()
        inj.read_block(0)
        inj.write_block(1, b"\x00" * 512)
        first, second = inj.events.io_events()
        assert (first.block_type, second.block_type) == ("t0", "t1")


class TestTransientSemantics:
    def test_transient_type_fault_releases_binding(self):
        disk, inj = build()
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="t0",
                      persistence=Persistence.TRANSIENT, transient_count=2))
        with pytest.raises(ReadError):
            inj.read_block(0)
        with pytest.raises(ReadError):
            inj.read_block(0)
        assert inj.read_block(0) == bytes([0]) * 512  # exhausted
        assert inj.read_block(3) == bytes([3]) * 512  # never rebinds

    def test_corrupt_transient(self):
        disk, inj = build()
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT, block=4,
                      corruption=CorruptionMode.ZERO,
                      persistence=Persistence.TRANSIENT, transient_count=1))
        assert inj.read_block(4) == b"\x00" * 512
        assert inj.read_block(4) == bytes([4]) * 512


class TestLocalityWithTypes:
    def test_type_fault_with_locality_covers_neighbours(self):
        disk, inj = build()
        inj.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type="t1",
                      locality_run=2))
        with pytest.raises(ReadError):
            inj.read_block(1)  # binds at 1
        for b in (2, 3):
            with pytest.raises(ReadError):
                inj.read_block(b)
        assert inj.read_block(4) == bytes([4]) * 512
