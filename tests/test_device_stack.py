"""DeviceStack: declarative layer composition with one shared event
stream and a lifecycle (flush / snapshot / restore / stats) that
propagates correctly through every layer, under any stacking order."""

from __future__ import annotations

import pytest

from repro.disk import (
    BlockCache,
    DeviceStack,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    SimulatedDisk,
    make_disk,
)
from repro.common.errors import ReadError
from repro.common.syslog import SysLog
from repro.disk.recorder import WriteRecorder
from repro.fs.ext3 import Ext3, mkfs_ext3
from repro.obs.events import (
    EventLog,
    FaultArmedEvent,
    IOEvent,
    LogEvent,
    Severity,
    WriteImageEvent,
)

from tests.conftest import EXT3_CFG

BLOCKS = 64
BS = 512


def payload(tag: int) -> bytes:
    return bytes([tag]) * BS


def read_fail_at(block: int) -> Fault:
    return Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=block)


class TestComposition:
    def test_bare_stack_is_passthrough(self):
        stack = DeviceStack.build(BLOCKS, BS)
        assert stack.injector is None and stack.cache is None
        assert stack.top is stack.disk
        assert stack.describe() == "SimulatedDisk"

    def test_injector_only(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True)
        assert isinstance(stack.top, FaultInjector)
        assert stack.describe() == "SimulatedDisk -> FaultInjector"

    def test_cache_only(self):
        stack = DeviceStack.build(BLOCKS, BS, cache_blocks=8)
        assert isinstance(stack.top, BlockCache)
        assert stack.describe() == "SimulatedDisk -> BlockCache"

    def test_full_stack_canonical_order(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        assert stack.describe() == "SimulatedDisk -> FaultInjector -> BlockCache"
        assert stack.layers() == [stack.disk, stack.injector, stack.cache]
        # The cache sits above the injector, which sits above the disk.
        assert stack.cache.lower is stack.injector
        assert stack.injector.lower is stack.disk

    def test_wraps_existing_disk(self):
        disk = make_disk(BLOCKS, BS)
        disk.write_block(3, payload(7))
        stack = DeviceStack(disk, inject=True)
        assert stack.disk is disk
        assert stack.read_block(3) == payload(7)

    def test_block_device_protocol_delegates_to_top(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        assert stack.num_blocks == BLOCKS
        assert stack.block_size == BS
        stack.write_block(5, payload(1))
        assert stack.read_block(5) == payload(1)
        assert stack.disk.peek(5) == payload(1)  # write-through reached the medium

    def test_gray_box_access_bypasses_upper_layers(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        stack.poke(9, payload(2))
        assert stack.peek(9) == payload(2)
        # poke went straight to the medium: no I/O event, no cache fill.
        assert stack.events.io_events() == []
        assert stack.cache.misses == 0


class TestEventSharing:
    def test_one_log_spans_all_layers(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        assert stack.injector.events is stack.events
        assert stack.cache.events is stack.events

    def test_empty_shared_log_is_still_adopted(self):
        """Regression: EventLog is sized, so an empty one is len()==0 —
        layer adoption must not treat it as absent and fork the stream."""
        shared = EventLog()
        assert len(shared) == 0 and bool(shared)
        stack = DeviceStack.build(BLOCKS, BS, inject=True, events=shared)
        assert stack.events is shared
        assert stack.injector.events is shared

    def test_mounted_fs_joins_the_stream(self):
        disk = make_disk(EXT3_CFG.total_blocks, EXT3_CFG.block_size)
        mkfs_ext3(disk, EXT3_CFG)
        stack = DeviceStack(disk, inject=True)
        fs = Ext3(stack)
        assert fs.events is stack.events
        assert fs.syslog.events_log is stack.events

    def test_injector_io_and_arming_are_typed_events(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True)
        stack.write_block(4, payload(3))
        stack.injector.arm(read_fail_at(4))
        with pytest.raises(ReadError):
            stack.read_block(4)
        kinds = [e.kind for e in stack.events]
        assert kinds == ["io", "fault-armed", "io"]
        armed = stack.events.of_type(FaultArmedEvent)[0]
        assert (armed.op, armed.fault_kind, armed.block) == ("read", "fail", 4)
        failed = stack.events.io_events()[-1]
        assert (failed.op, failed.block, failed.outcome) == ("read", 4, "error")


class TestLifecycle:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"inject": True},
        {"cache_blocks": 8},
        {"inject": True, "cache_blocks": 8},
    ])
    def test_snapshot_restore_any_stacking_order(self, kwargs):
        stack = DeviceStack.build(BLOCKS, BS, **kwargs)
        stack.write_block(2, payload(1))
        snap = stack.snapshot()
        stack.write_block(2, payload(9))
        stack.restore(snap)
        assert stack.read_block(2) == payload(1)

    def test_cache_invalidated_on_restore(self):
        """Regression (the stale-read bug): a restore that rewinds the
        medium but leaves the LRU populated serves pre-restore data."""
        stack = DeviceStack.build(BLOCKS, BS, cache_blocks=8)
        stack.write_block(2, payload(1))
        snap = stack.snapshot()
        stack.write_block(2, payload(9))     # now hot in the LRU
        assert stack.cache.read_block(2) == payload(9)
        stack.restore(snap)
        assert stack.read_block(2) == payload(1)   # not the cached 9s
        assert stack.disk.peek(2) == payload(1)

    def test_restore_on_bare_cache_invalidates_too(self):
        """The fix lives in BlockCache.restore itself, not in the stack
        wrapper — hand-wired caches get it as well."""
        disk = make_disk(BLOCKS, BS)
        cache = BlockCache(disk, capacity_blocks=8)
        cache.write_block(2, payload(1))
        snap = cache.snapshot()
        cache.write_block(2, payload(9))
        cache.restore(snap)
        assert cache.read_block(2) == payload(1)
        assert cache.hits == 0 and cache.misses == 1  # stats reset, cold read

    def test_restore_drops_io_history_keeps_armed_faults(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True)
        snap = stack.snapshot()
        stack.write_block(1, payload(1))
        stack.injector.arm(read_fail_at(1))
        stack.restore(snap)
        assert stack.events.io_events() == []
        assert len(stack.injector.faults) == 1  # configuration survives
        with pytest.raises(ReadError):
            stack.read_block(1)

    def test_flush_propagates_to_the_medium(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        stack.write_block(1, payload(1))
        stack.flush()  # must not raise through any layer

    def test_stats_and_clock_read_the_raw_disk(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8)
        assert stack.stats is stack.disk.stats
        stack.write_block(1, payload(1))
        assert stack.stats.writes == 1
        assert stack.clock == stack.disk.clock

    def test_cache_absorbs_repeat_reads(self):
        stack = DeviceStack.build(BLOCKS, BS, cache_blocks=8)
        stack.write_block(1, payload(1))
        before = stack.stats.reads
        for _ in range(5):
            stack.read_block(1)
        assert stack.stats.reads == before  # write-through filled the LRU


class TestRecorderAndHighWater:
    def test_recorder_composes_uppermost(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True, cache_blocks=8,
                                  record=True)
        assert isinstance(stack.top, WriteRecorder)
        assert stack.describe() == (
            "SimulatedDisk -> FaultInjector -> BlockCache -> WriteRecorder"
        )

    def test_recorder_captures_write_images(self):
        stack = DeviceStack.build(BLOCKS, BS, record=True)
        stack.write_block(3, payload(7))
        images = stack.events.of_type(WriteImageEvent)
        assert [(e.block, e.data) for e in images] == [(3, payload(7))]

    def test_consume_new_advances_the_mark(self):
        stack = DeviceStack.build(BLOCKS, BS, record=True)
        stack.write_block(1, payload(1))
        first = stack.events.consume_new()
        assert [e.block for e in first if isinstance(e, WriteImageEvent)] == [1]
        assert stack.events.consume_new() == []
        stack.write_block(2, payload(2))
        second = stack.events.consume_new()
        assert [e.block for e in second if isinstance(e, WriteImageEvent)] == [2]

    def test_restore_resets_the_high_water_mark(self):
        """Regression: restore() rewinds the medium and drops the event
        history, but a stale high-water mark pointing past the (now
        shorter) log would make the next consume_new() miss everything
        a replayed workload writes."""
        stack = DeviceStack.build(BLOCKS, BS, record=True)
        snap = stack.snapshot()
        stack.write_block(1, payload(1))
        stack.write_block(2, payload(2))
        stack.events.consume_new()               # mark now at the log's end
        stack.restore(snap)
        assert stack.events.high_water == 0
        stack.write_block(3, payload(3))
        replayed = [
            e.block for e in stack.events.consume_new()
            if isinstance(e, WriteImageEvent)
        ]
        assert 3 in replayed

    def test_restore_never_replays_stale_events_as_new(self):
        """After restore + consume_new, the only events handed out are
        the ones emitted after the restore — pre-restore writes must
        not leak into the next recording window."""
        stack = DeviceStack.build(BLOCKS, BS, record=True)
        stack.write_block(9, payload(9))         # pre-snapshot history
        snap = stack.snapshot()
        stack.events.consume_new()
        stack.restore(snap)
        stack.write_block(4, payload(4))
        blocks = [
            e.block for e in stack.events.consume_new()
            if isinstance(e, WriteImageEvent)
        ]
        assert 9 not in blocks

    def test_remove_where_clamps_the_mark(self):
        log = EventLog()
        log.emit(IOEvent(op="write", block=1, outcome="ok"))
        log.emit(IOEvent(op="write", block=2, outcome="ok"))
        log.consume_new()
        log.remove_where(lambda e: True)
        assert log.high_water == 0
        log.emit(IOEvent(op="write", block=3, outcome="ok"))
        assert [e.block for e in log.consume_new()] == [3]

    @pytest.mark.parametrize("view", [SysLog, FaultInjector])
    def test_clearing_a_view_keeps_the_unconsumed_tail(self, view):
        """``SysLog.clear()`` and ``FaultInjector.restore`` each remove
        their own events from both sides of the mark; the other kind's
        unconsumed event must still reach the incremental reader."""
        log = EventLog()
        io = IOEvent(op="write", block=1, outcome="ok")
        line = LogEvent(Severity.INFO, "fs", "note", "a log line")
        mine, other = (line, io) if view is SysLog else (io, line)
        log.emit(mine)
        log.emit(other)
        log.consume_new()
        log.emit(mine)
        log.emit(other)
        if view is SysLog:
            SysLog(log).clear()
        else:
            disk = make_disk(BLOCKS, BS)
            FaultInjector(disk, events=log).restore(disk.snapshot())
        assert log.high_water == 1
        assert log.consume_new() == [other]


class TestIntrospection:
    def test_repr_mentions_composition(self):
        stack = DeviceStack.build(BLOCKS, BS, inject=True)
        assert "SimulatedDisk -> FaultInjector" in repr(stack)

    def test_geometry_exposed(self):
        stack = DeviceStack.build(BLOCKS, BS)
        assert stack.geometry is stack.disk.geometry

    def test_disk_type(self):
        stack = DeviceStack.build(BLOCKS, BS)
        assert isinstance(stack.disk, SimulatedDisk)
