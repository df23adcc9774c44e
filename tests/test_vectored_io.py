"""Vectored member I/O is *observably identical* to the per-block loop.

Four contracts, each checked on twin stacks driven through the same
history — one twin takes the vectored / clean-run / wide-integer path,
the other a reference that does the work one block (or one cell) at a
time:

(i)   ``SimulatedDisk`` and ``FaultInjector`` ``read_blocks`` /
      ``write_blocks`` against a loop of ``read_block`` / ``write_block``,
      and the wrappers above them that forward the vectored calls —
      ``BlockCache``, ``WriteRecorder`` and ``DeviceStack``;
(ii)  ``ArrayDevice.scrub`` / ``scrub_step`` / ``rebuild_member`` against
      test-local per-unit and per-block reference loops;
(iii) the wide-integer RDP kernel against a cell-by-cell solver;
(iv)  interned ``IOEvent``\\ s and ``EventLog.emit_many`` against freshly
      built events emitted one at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import ReadError, WriteError
from repro.disk import make_disk
from repro.disk.faults import (
    CorruptionMode, Fault, FaultKind, FaultOp, Persistence,
)
from repro.disk.injector import FaultInjector
from repro.disk.stack import DeviceStack
from repro.obs import events as events_mod
from repro.obs.events import (
    ArrayPolicyEvent, ArrayRecoveryEvent, EventLog, IOEvent, Severity,
    fold_digest, io_event,
)
from repro.redundancy import make_array
from repro.redundancy.array import ArrayScrubReport
from repro.redundancy.rdp import RDPStripe

from member_requests import MemberRequests

BS = 512
DISK_BLOCKS = 16


# -- shared helpers -----------------------------------------------------------


def _payload(tag: int) -> bytes:
    return bytes([tag % 256]) * BS


def _outcome(call):
    """``("ok", result)`` or ``("raised", type, block)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the contract is "same exception"
        return ("raised", type(exc), getattr(exc, "block", None))


def _disk_state(disk):
    return (dataclasses.astuple(disk.stats), disk.clock, disk._head,
            [disk.peek(b) for b in range(disk.num_blocks)])


def _log_state(log):
    return (log.key_sequence(), log.dropped, log.high_water, len(log))


# -- (i) disk and injector ------------------------------------------------------


block_lists = st.lists(
    st.integers(min_value=-1, max_value=DISK_BLOCKS), max_size=24)


@st.composite
def fault_specs(draw):
    """``Fault`` arguments, plus ``consumed``: the blocks whose accesses
    the fault registers right after it is armed."""
    spec = dict(
        op=draw(st.sampled_from(list(FaultOp))),
        kind=draw(st.sampled_from(list(FaultKind))),
        block=draw(st.integers(min_value=0, max_value=DISK_BLOCKS - 1)),
        persistence=draw(st.sampled_from(list(Persistence))),
        transient_count=draw(st.integers(min_value=1, max_value=3)),
        corruption=draw(st.sampled_from(
            [CorruptionMode.ZERO, CorruptionMode.SHIFT, CorruptionMode.NOISE])),
        locality_run=draw(st.integers(min_value=0, max_value=2)),
        match_index=draw(st.integers(min_value=0, max_value=2)),
        consumed=[],
    )
    target = draw(st.sampled_from(["block", "type", "locked", "exhausted"]))
    if target in ("type", "locked"):
        # Type-targeted; "locked" fires once, binding it to that block.
        block = spec.pop("block")
        spec.update(block_type="inode", match_index=0)
        if target == "locked":
            spec["consumed"] = [block]
    elif target == "exhausted":
        spec["persistence"] = Persistence.TRANSIENT
        spec["consumed"] = [spec["block"]] * (
            spec["match_index"] + spec["transient_count"])
    return spec


class _Stack:
    """A disk under an injector with a small ring, plus whatever the
    latency observer saw."""

    def __init__(self, faults, failed, observed, ring, oracle=None):
        self.disk = make_disk(DISK_BLOCKS, BS)
        for block in range(0, DISK_BLOCKS, 2):
            self.disk.poke(block, _payload(block + 1))
        self.log = EventLog(max_events=ring)
        self.injector = FaultInjector(self.disk, type_oracle=oracle,
                                      events=self.log)
        # A partly consumed, already full ring.
        for block in range(ring + 2):
            self.log.emit(IOEvent("read", block, "ok"))
        self.log.consume_new()
        for spec in faults:
            spec = dict(spec)
            consumed = spec.pop("consumed")
            fault = self.injector.arm(Fault(**spec))
            for block in consumed:
                fault.consume(block)
        self.seen = []
        if observed:
            self.disk.latency_observer = lambda op, t: self.seen.append(
                (op, t, self.disk.clock))
        if failed:
            self.disk.fail_whole_disk()

    def state(self):
        return (_disk_state(self.disk), _log_state(self.log), self.seen,
                [(f._fired, f._skipped) for f in self.injector.faults])


class TestDiskVectored:
    @settings(max_examples=120, deadline=None)
    @given(blocks=block_lists, failed=st.booleans(), observed=st.booleans(),
           warm=block_lists)
    def test_read_blocks_matches_the_loop(self, blocks, failed, observed, warm):
        twins = [_Stack([], False, observed, 8) for _ in range(2)]
        for twin in twins:
            # Move the head and clock somewhere first.
            _outcome(lambda: [twin.disk.read_block(b) for b in warm])
            if failed:
                twin.disk.fail_whole_disk()
        vectored, looped = twins
        got = _outcome(lambda: vectored.disk.read_blocks(blocks))
        want = _outcome(lambda: [looped.disk.read_block(b) for b in blocks])
        assert got == want
        assert vectored.state() == looped.state()

    @settings(max_examples=120, deadline=None)
    @given(blocks=block_lists, failed=st.booleans(), observed=st.booleans(),
           short=st.integers(min_value=-1, max_value=24))
    def test_write_blocks_matches_the_loop(self, blocks, failed, observed,
                                           short):
        payloads = [_payload(i + 100) for i in range(len(blocks))]
        if 0 <= short < len(payloads):
            payloads[short] = payloads[short][:-1]  # a wrong-size payload
        vectored, looped = [_Stack([], failed, observed, 8) for _ in range(2)]
        got = _outcome(lambda: vectored.disk.write_blocks(blocks, payloads))

        def loop():
            for block, data in zip(blocks, payloads):
                looped.disk.write_block(block, data)

        assert got == _outcome(loop)
        assert vectored.state() == looped.state()

    def test_write_blocks_wants_one_payload_per_block(self):
        stack = _Stack([], False, False, 8)
        before = stack.state()
        for device in (stack.disk, stack.injector):
            with pytest.raises(ValueError):
                device.write_blocks([1, 2], [_payload(1)])
        assert stack.state() == before


class TestInjectorVectored:
    @settings(max_examples=200, deadline=None)
    @given(faults=st.lists(fault_specs(), max_size=4), blocks=block_lists,
           failed=st.booleans(), observed=st.booleans(),
           ring=st.integers(min_value=1, max_value=40))
    def test_read_blocks_matches_the_loop(self, faults, blocks, failed,
                                          observed, ring):
        vectored, looped = [_Stack(faults, failed, observed, ring)
                            for _ in range(2)]
        got = _outcome(lambda: vectored.injector.read_blocks(blocks))
        want = _outcome(
            lambda: [looped.injector.read_block(b) for b in blocks])
        assert got == want
        assert vectored.state() == looped.state()

    @settings(max_examples=200, deadline=None)
    @given(faults=st.lists(fault_specs(), max_size=4), blocks=block_lists,
           failed=st.booleans(), observed=st.booleans(),
           ring=st.integers(min_value=1, max_value=40))
    def test_write_blocks_matches_the_loop(self, faults, blocks, failed,
                                           observed, ring):
        payloads = [_payload(i + 100) for i in range(len(blocks))]
        vectored, looped = [_Stack(faults, failed, observed, ring)
                            for _ in range(2)]
        got = _outcome(
            lambda: vectored.injector.write_blocks(blocks, payloads))

        def loop():
            for block, data in zip(blocks, payloads):
                looped.injector.write_block(block, data)

        assert got == _outcome(loop)
        assert vectored.state() == looped.state()

    @settings(max_examples=100, deadline=None)
    @given(blocks=block_lists, failed=st.booleans())
    def test_nothing_armed_path_matches_the_typed_path(self, blocks, failed):
        """The straight path (no fault, no oracle) against the general
        one, reached through an oracle that types nothing."""
        straight = _Stack([], failed, False, 12)
        general = _Stack([], failed, False, 12, oracle=lambda block: None)
        for stack in (straight, general):
            stack.result = _outcome(lambda: [
                (stack.injector.write_block(b, _payload(b)),
                 stack.injector.read_block(b)) for b in blocks])
        assert straight.result == general.result
        assert straight.state() == general.state()

    @settings(max_examples=150, deadline=None)
    @given(faults=st.lists(fault_specs(), max_size=4), blocks=block_lists,
           op=st.sampled_from(["read", "write"]))
    def test_clean_prefix_is_pure_and_exact(self, faults, blocks, op):
        stack = _Stack(faults, False, False, 8)
        blocks = [b for b in blocks if 0 <= b < DISK_BLOCKS]
        before = stack.state()
        prefix = stack.injector.clean_prefix(op, blocks)
        assert stack.state() == before
        hits = [any(f.matches(op, b, None) for f in stack.injector.faults)
                for b in blocks]
        assert prefix == (hits.index(True) if True in hits else len(blocks))

    def test_lower_without_vectored_calls_is_served_per_block(self):
        class Plain:
            """A lower device that only has the per-block protocol."""

            def __init__(self, disk):
                self._disk = disk
                self.read_block = disk.read_block
                self.write_block = disk.write_block
                self.stats = disk.stats

        disk = make_disk(DISK_BLOCKS, BS)
        injector = FaultInjector(Plain(disk), events=EventLog())
        injector.write_blocks([3, 4], [_payload(3), _payload(4)])
        assert injector.read_blocks([4, 3]) == [_payload(4), _payload(3)]
        assert [e.key()[1:4] for e in injector.events] == [
            ("write", 3, "ok"), ("write", 4, "ok"),
            ("read", 4, "ok"), ("read", 3, "ok")]


class _Wrapped:
    """A ``DeviceStack`` of disk, injector, a small cache and (when
    *recording*) a recorder over the same contents and faults as
    :class:`_Stack`, its cache warmed by *warm* before the disk (maybe)
    fails whole."""

    def __init__(self, faults, failed, capacity, warm, recording):
        disk = make_disk(DISK_BLOCKS, BS)
        for block in range(0, DISK_BLOCKS, 2):
            disk.poke(block, _payload(block + 1))
        self.stack = DeviceStack(disk, inject=True, cache_blocks=capacity,
                                 record=recording)
        for spec in faults:
            spec = dict(spec)
            consumed = spec.pop("consumed")
            fault = self.stack.injector.arm(Fault(**spec))
            for block in consumed:
                fault.consume(block)
        _outcome(lambda: [self.stack.read_block(b) for b in warm])
        if failed:
            disk.fail_whole_disk()

    def layer(self, name):
        return getattr(self.stack, name) if name != "stack" else self.stack

    def state(self):
        stack = self.stack
        return (_disk_state(stack.disk), _log_state(stack.events),
                list(stack.cache._lru.items()), stack.cache.hits,
                stack.cache.misses, stack.recorder and stack.recorder.recorded,
                [(f._fired, f._skipped) for f in stack.injector.faults])


wrapper_layers = st.sampled_from(["cache", "recorder", "stack"])


class TestWrappersForwardVectored:
    r"""Each wrapper's vectored calls against its own per-block loop:
    payloads, the exception and its block, cache contents and LRU
    order, hit and miss counts, the recorder's ``WriteImageEvent``\ s
    (in the shared stream, between the injector's ``IOEvent``\ s) and
    the disk's stats, head, clock and contents."""

    @settings(max_examples=200, deadline=None)
    @given(layer=wrapper_layers, faults=st.lists(fault_specs(), max_size=3),
           blocks=block_lists, warm=block_lists, failed=st.booleans(),
           capacity=st.integers(min_value=1, max_value=6),
           recording=st.booleans())
    def test_read_blocks_matches_the_loop(self, layer, faults, blocks, warm,
                                          failed, capacity, recording):
        assume(recording or layer != "recorder")
        vectored, looped = [_Wrapped(faults, failed, capacity, warm, recording)
                            for _ in range(2)]
        got = _outcome(lambda: vectored.layer(layer).read_blocks(blocks))
        device = looped.layer(layer)
        want = _outcome(lambda: [device.read_block(b) for b in blocks])
        assert got == want
        assert vectored.state() == looped.state()

    @settings(max_examples=200, deadline=None)
    @given(layer=wrapper_layers, faults=st.lists(fault_specs(), max_size=3),
           blocks=block_lists, warm=block_lists, failed=st.booleans(),
           capacity=st.integers(min_value=1, max_value=6),
           recording=st.booleans(),
           short=st.integers(min_value=-1, max_value=24))
    def test_write_blocks_matches_the_loop(self, layer, faults, blocks, warm,
                                           failed, capacity, recording,
                                           short):
        payloads = [_payload(i + 100) for i in range(len(blocks))]
        if 0 <= short < len(payloads):
            payloads[short] = payloads[short][:-1]  # a wrong-size payload
        assume(recording or layer != "recorder")
        vectored, looped = [_Wrapped(faults, failed, capacity, warm, recording)
                            for _ in range(2)]
        got = _outcome(
            lambda: vectored.layer(layer).write_blocks(blocks, payloads))
        device = looped.layer(layer)

        def loop():
            for block, data in zip(blocks, payloads):
                device.write_block(block, data)

        assert got == _outcome(loop)
        assert vectored.state() == looped.state()

    def test_a_fault_mid_run_leaves_the_loops_state(self):
        vectored, looped = [_Wrapped([], False, 4, [1], True) for _ in range(2)]
        for twin in (vectored, looped):
            twin.stack.injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=6))
        with pytest.raises(ReadError) as raised:
            vectored.stack.read_blocks([1, 4, 5, 6, 7])
        assert raised.value.block == 6
        with pytest.raises(ReadError):
            for block in (1, 4, 5, 6, 7):
                looped.stack.read_block(block)
        # Block 1 was a hit; 4 and 5 were cached before the read of 6
        # failed, and 6 counts as a miss.
        assert list(vectored.stack.cache._lru) == [1, 4, 5]
        assert (vectored.stack.cache.hits, vectored.stack.cache.misses) == (1, 4)
        assert vectored.state() == looped.state()

    def test_recorded_write_images_precede_their_writes(self):
        stack = _Wrapped([], False, 4, [], True).stack
        stack.write_blocks([6, 7], [_payload(6), _payload(7)])
        assert list(stack.cache._lru) == [6, 7]
        assert [e.key()[:2] for e in stack.events][-4:] == [
            ("write-image", 6), ("io", "write"),
            ("write-image", 7), ("io", "write")]

    def test_a_payload_count_mismatch_is_refused(self):
        stack = _Wrapped([], False, 4, [], True).stack
        for device in (stack, stack.cache, stack.recorder):
            with pytest.raises(ValueError):
                device.write_blocks([1, 2], [_payload(1)])
        assert stack.disk.stats.writes == 0


# -- (ii) scrub and rebuild against per-unit reference loops --------------------

NUM_BLOCKS = 32
GEOMETRIES = [("mirror", 2), ("mirror", 3), ("parity", 4), ("rdp", 5)]


def _reference_scrub(array, start=0, end=None):
    """``ArrayDevice.scrub`` as a plain loop over ``_scrub_unit``."""
    if end is None:
        end = array.scrub_units
    report = ArrayScrubReport()
    array._in_scrub = True
    try:
        for unit in range(start, end):
            array._scrub_unit(unit, report)
            report.units_scanned += 1
    finally:
        array._in_scrub = False
    array.scrub_repairs += len(report.repaired)
    if report.unrepairable:
        array._emit(ArrayPolicyEvent(
            Severity.ERROR, array._source(), "scrub-loss",
            f"{len(report.unrepairable)} member blocks unrepairable"))
    if end == array.scrub_units:
        array.scrub_passes += 1
        array._emit(ArrayPolicyEvent(
            Severity.INFO, array._source(), "scrub-complete",
            f"pass complete: {report.render()}"))
    return report


def _reference_scrub_step(array, units):
    start = array._scrub_cursor
    end = min(start + units, array.scrub_units)
    report = _reference_scrub(array, start, end)
    array._scrub_cursor = 0 if end >= array.scrub_units else end
    return report


def _reference_rebuild(array, index):
    """``ArrayDevice.rebuild_member`` one member block at a time."""
    rebuilt = 0
    lost = []
    member = array.members[index]
    for mb in range(member.disk.num_blocks):
        content = array._member_content(index, mb)
        if content is None:
            lost.append(mb)
            continue
        try:
            member.device.write_block(mb, content)
        except WriteError:
            lost.append(mb)
            continue
        array._suspect.discard((index, mb))
        rebuilt += 1
    array._stale.discard(index)
    for mb in lost:
        array._suspect.add((index, mb))
    array.rebuilt_blocks += rebuilt
    array._emit(ArrayRecoveryEvent(
        Severity.INFO, array._source(), "rebuild",
        f"rebuilt member {index}: {rebuilt} blocks"
        + (f", {len(lost)} lost" if lost else ""),
        member=index))
    if lost:
        array._emit(ArrayPolicyEvent(
            Severity.ERROR, array._source(), "rebuild-loss",
            f"member {index}: {len(lost)} blocks unreconstructable",
            member=index))
    return rebuilt


@st.composite
def damage(draw, members, member_blocks):
    """A random mix of what a fleet trial does to an array."""
    member = st.integers(min_value=0, max_value=members - 1)
    block = st.integers(min_value=0, max_value=member_blocks - 1)
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(
            ["lse", "transient", "write-fault", "poke", "suspect"]))
        steps.append((kind, draw(member), draw(block),
                      draw(st.integers(min_value=0, max_value=255))))
    return steps


def _build(geometry, members, history, steps, reference, requests):
    array = make_array(geometry, NUM_BLOCKS, BS, members=members)
    requests.watch(array)
    if reference:
        # No clean runs anywhere: every column read is per block too.
        array._clean_run = lambda op, m, blocks: 0
    for block, tag in history:
        array.write_block(block, _payload(tag))
    for kind, m, mb, tag in steps:
        injector = array.members[m].injector
        mb %= array.members[m].disk.num_blocks
        if kind == "lse":
            injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=mb,
                               locality_run=tag % 2))
        elif kind == "transient":
            injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=mb,
                               persistence=Persistence.TRANSIENT,
                               transient_count=1 + tag % 2,
                               match_index=tag % 2))
        elif kind == "write-fault":
            injector.arm(Fault(FaultOp.WRITE, FaultKind.FAIL, block=mb))
        elif kind == "poke":
            array.members[m].disk.poke(mb, _payload(tag))
        else:
            array._suspect.add((m, mb))
    return array


def _array_state(array, requests):
    members = [
        (_disk_state(member.disk), requests.of(member),
         [(f._fired, f._skipped) for f in member.injector.faults])
        for member in array.members]
    logical = [] if array.events is None else array.events.key_sequence()
    counters = (array.scrub_repairs, array.scrub_passes, array.rebuilt_blocks,
                array.degraded_reads, array.read_repairs, array.scrub_cursor)
    return (members, logical, sorted(array._suspect), sorted(array._stale),
            counters, dataclasses.astuple(array.stats))


histories = st.lists(
    st.tuples(st.integers(min_value=0, max_value=NUM_BLOCKS - 1),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=40)


@contextlib.contextmanager
def _twins(geometry, members, history, data):
    """The twins, and their :func:`_array_state` with every member
    request recorded from the first write on."""
    probe = make_array(geometry, NUM_BLOCKS, BS, members=members)
    steps = data.draw(damage(len(probe.members),
                             probe.members[0].disk.num_blocks))
    with pytest.MonkeyPatch.context() as patch:
        requests = MemberRequests(patch)
        yield (_build(geometry, members, history, steps, False, requests),
               _build(geometry, members, history, steps, True, requests),
               lambda twin: _array_state(twin, requests))


class TestArrayCleanRuns:
    @pytest.mark.parametrize("geometry,members", GEOMETRIES)
    @settings(max_examples=40, deadline=None)
    @given(history=histories, data=st.data())
    def test_scrub_matches_the_per_unit_loop(self, geometry, members,
                                             history, data):
        with _twins(geometry, members, history, data) as (
                array, reference, state):
            down = data.draw(st.sampled_from(["none", "failed", "stale"]))
            victim = data.draw(st.integers(
                min_value=0, max_value=len(array.members) - 1))
            for twin in (array, reference):
                if down == "failed":
                    twin.fail_member(victim)
                elif down == "stale":
                    twin.replace_member(victim)
            for _ in range(2):  # the second pass sees the first one's repairs
                assert array.scrub() == _reference_scrub(reference)
                assert state(array) == state(reference)

    @pytest.mark.parametrize("geometry,members", GEOMETRIES)
    @settings(max_examples=25, deadline=None)
    @given(history=histories, data=st.data(),
           units=st.integers(min_value=1, max_value=5))
    def test_scrub_step_matches_the_per_unit_loop(self, geometry, members,
                                                  history, data, units):
        with _twins(geometry, members, history, data) as (
                array, reference, state):
            for _ in range(-(-array.scrub_units // units) + 1):
                assert array.scrub_step(units) == \
                    _reference_scrub_step(reference, units)
                assert state(array) == state(reference)

    @pytest.mark.parametrize("geometry,members", GEOMETRIES)
    @settings(max_examples=40, deadline=None)
    @given(history=histories, data=st.data())
    def test_rebuild_matches_the_per_block_loop(self, geometry, members,
                                                history, data):
        with _twins(geometry, members, history, data) as (
                array, reference, state):
            count = len(array.members)
            index = data.draw(st.integers(min_value=0, max_value=count - 1))
            other = data.draw(st.integers(min_value=0, max_value=count - 1))
            second = data.draw(st.sampled_from(["none", "failed", "stale"]))
            # A live target is rebuilt in place, never replaced.
            live = data.draw(st.booleans())
            for twin in (array, reference):
                if not live:
                    twin.fail_member(index)
                    twin.replace_member(index)
                if other != index and second == "failed":
                    twin.fail_member(other)
                elif other != index and second == "stale":
                    twin.replace_member(other)
            if live and geometry == "rdp":
                # Its own column is among the per-block body's stripe reads.
                total = array.members[index].disk.num_blocks
                assert array._rebuild_clean_run(index, 0, total) == 0
            assert array.rebuild_member(index) == \
                _reference_rebuild(reference, index)
            assert state(array) == state(reference)
            # And what a reader sees afterwards is the same too.
            reads = [[_outcome(lambda b=b: twin.read_block(b))
                      for b in range(NUM_BLOCKS)] for twin in (array, reference)]
            assert reads[0] == reads[1]
            assert state(array) == state(reference)

    @pytest.mark.parametrize("geometry,members", GEOMETRIES)
    def test_healthy_scrub_and_rebuild_take_one_call_per_member(
            self, geometry, members):
        """The point of the exercise: on a healthy array a whole pass is
        one vectored read per member, and a rebuild one vectored write
        (RDP's survivors each read a stripe per rebuilt cell, as the
        per-block body does)."""
        array = make_array(geometry, NUM_BLOCKS, BS, members=members)
        for block in range(NUM_BLOCKS):
            array.write_block(block, _payload(block))
        calls = []
        for member in array.members:
            injector = member.injector

            def read_blocks(blocks, injector=injector, m=member.index):
                calls.append(("read", m, len(blocks)))
                return FaultInjector.read_blocks(injector, blocks)

            def write_blocks(blocks, payloads, injector=injector,
                             m=member.index):
                calls.append(("write", m, len(blocks)))
                return FaultInjector.write_blocks(injector, blocks, payloads)

            injector.read_blocks = read_blocks
            injector.write_blocks = write_blocks
        member_blocks = array.members[0].disk.num_blocks
        assert array.scrub().problems == 0
        assert calls == [("read", m, member_blocks)
                         for m in range(len(array.members))]
        del calls[:]
        array.replace_member(0)
        array.rebuild_member(0)
        assert [c for c in calls if c[0] == "write"] == \
            [("write", 0, member_blocks)]
        reads = [c for c in calls if c[0] == "read"]
        if geometry == "rdp":
            assert reads == [("read", m, member_blocks * (members - 1))
                             for m in range(1, members + 1)]
        else:
            assert sum(c[2] for c in reads) == \
                member_blocks * (1 if geometry == "mirror" else members - 1)

    def test_latency_observer_keeps_the_per_unit_order(self):
        def run(array):
            seen = []
            array.latency_observer = lambda op, t: seen.append((op, t))
            for block in range(NUM_BLOCKS):
                array.write_block(block, _payload(block))
            del seen[:]
            return seen

        array = make_array("mirror", NUM_BLOCKS, BS, members=3)
        reference = make_array("mirror", NUM_BLOCKS, BS, members=3)
        seen, wanted = run(array), run(reference)
        assert array.scrub() == _reference_scrub(reference)
        assert seen == wanted and len(seen) == 3 * NUM_BLOCKS


# -- (iii) the wide RDP kernel against a cell-by-cell solver -------------------


def _xor_cells(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _reference_encode(p, bs, data):
    rows = p - 1
    columns = [list(col) for col in data]
    row_parity = []
    for r in range(rows):
        acc = bytes(bs)
        for c in range(p - 1):
            acc = _xor_cells(acc, columns[c][r])
        row_parity.append(acc)
    columns.append(row_parity)
    diag = [bytes(bs) for _ in range(rows)]
    for c in range(p):
        for r in range(rows):
            d = (r + c) % p
            if d != p - 1:
                diag[d] = _xor_cells(diag[d], columns[c][r])
    columns.append(diag)
    return columns


def _reference_reconstruct(p, bs, columns):
    """The iterative row/diagonal chain, one cell at a time."""
    rows = p - 1
    missing = [c for c, col in enumerate(columns) if col is None]
    grid = {(r, c): None if columns[c] is None else bytes(columns[c][r])
            for c in range(p + 1) for r in range(rows)}
    if p in missing:
        for other in (c for c in missing if c != p):
            for r in range(rows):
                acc = bytes(bs)
                for c in range(p):
                    if c != other:
                        acc = _xor_cells(acc, grid[(r, c)])
                grid[(r, other)] = acc
        return _reference_encode(
            p, bs, [[grid[(r, c)] for r in range(rows)] for c in range(p - 1)])
    unknown = {cell for cell, value in grid.items() if value is None}
    while unknown:
        before = len(unknown)
        for r in range(rows):
            holes = [(r, c) for c in range(p) if (r, c) in unknown]
            if len(holes) == 1:
                acc = bytes(bs)
                for c in range(p):
                    if (r, c) != holes[0]:
                        acc = _xor_cells(acc, grid[(r, c)])
                grid[holes[0]] = acc
                unknown.remove(holes[0])
        for d in range(p - 1):
            cells = [(r, c) for c in range(p) for r in range(rows)
                     if (r + c) % p == d]
            holes = [cell for cell in cells if cell in unknown]
            if len(holes) == 1:
                acc = grid[(d, p)]
                for cell in cells:
                    if cell != holes[0]:
                        acc = _xor_cells(acc, grid[cell])
                grid[holes[0]] = acc
                unknown.remove(holes[0])
        assert len(unknown) < before, "reference chain stalled"
    return [[grid[(r, c)] for r in range(rows)] for c in range(p + 1)]


def _stripe_data(p, bs, seed):
    digest = hashlib.sha256(f"{p}:{seed}".encode()).digest()
    stream = itertools.cycle(digest)
    return [[bytes(next(stream) for _ in range(bs)) for _ in range(p - 1)]
            for _ in range(p - 1)]


class TestWideRDPKernel:
    BS = 16

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_erasure_pattern_matches_the_cell_solver(self, p):
        stripe = RDPStripe(p, self.BS)
        data = _stripe_data(p, self.BS, seed=1)
        full = stripe.encode(data)
        assert full == _reference_encode(p, self.BS, data)
        assert stripe.verify(full)
        assert stripe.syndromes(full) == (0, 0)
        patterns = [()] + [(a,) for a in range(p + 1)] + list(
            itertools.combinations(range(p + 1), 2))
        for erased in patterns:
            columns = [None if c in erased else full[c] for c in range(p + 1)]
            assert stripe.reconstruct(columns) == full, erased
            assert _reference_reconstruct(p, self.BS, columns) == full, erased

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_inconsistent_stripes_reconstruct_like_the_cell_solver(self, p):
        """Byte-identical on damaged input too (what a scrub or a read
        around corruption actually feeds the kernel)."""
        stripe = RDPStripe(p, self.BS)
        full = stripe.encode(_stripe_data(p, self.BS, seed=2))
        for bad_col in range(p + 1):
            damaged = [list(col) for col in full]
            damaged[bad_col][0] = bytes(self.BS)
            for erased in [(a,) for a in range(p + 1)] + [
                    (a, p) for a in range(p)]:
                columns = [None if c in erased else damaged[c]
                           for c in range(p + 1)]
                assert stripe.reconstruct(columns) == \
                    _reference_reconstruct(p, self.BS, columns), \
                    (bad_col, erased)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), seed=st.integers(0, 1000),
           col=st.integers(0, 7), row=st.integers(0, 5),
           flip=st.integers(1, 255))
    def test_syndromes_are_the_cellwise_syndromes(self, p, seed, col, row,
                                                  flip):
        stripe = RDPStripe(p, self.BS)
        full = stripe.encode(_stripe_data(p, self.BS, seed))
        col %= p + 1
        row %= p - 1
        full[col][row] = bytes([full[col][row][0] ^ flip]) + full[col][row][1:]
        row_wide, diag_wide = stripe.syndromes(full)
        rows = []
        for r in range(p - 1):
            acc = bytes(self.BS)
            for c in range(p):
                acc = _xor_cells(acc, full[c][r])
            rows.append(acc)
        diags = []
        for d in range(p - 1):
            acc = full[p][d]
            for c in range(p):
                r = (d - c) % p
                if r <= p - 2:
                    acc = _xor_cells(acc, full[c][r])
            diags.append(acc)
        assert stripe.split(row_wide) == rows
        assert stripe.split(diag_wide) == diags

    def test_malformed_columns_are_rejected(self):
        stripe = RDPStripe(5, self.BS)
        full = stripe.encode(_stripe_data(5, self.BS, seed=3))
        full[1][2] = full[1][2][:-1]
        with pytest.raises(ValueError):
            stripe.reconstruct([None] + full[1:])
        with pytest.raises(ValueError):
            stripe.syndromes(full)


# -- (iv) interning and batched emission -----------------------------------------

io_fields = st.tuples(
    st.sampled_from(["read", "write"]), st.integers(0, 50),
    st.sampled_from(["ok", "error", "corrupted", "dropped"]),
    st.sampled_from([None, "inode", "data"]))


class TestInternedEvents:
    @settings(max_examples=100, deadline=None)
    @given(fields=st.lists(io_fields, max_size=30))
    def test_equal_keys_share_one_object_and_digests_do_not_move(self, fields):
        interned, fresh = EventLog(), EventLog()
        for f in fields:
            event = io_event(*f)
            assert event is io_event(*f)
            assert event == IOEvent(*f) and type(event) is IOEvent
            interned.emit(event)
            fresh.emit(IOEvent(*f))
        assert interned.key_sequence() == fresh.key_sequence()
        assert interned.digest() == fresh.digest()
        hashers = [hashlib.sha256(), hashlib.sha256()]
        fold_digest(hashers[0], "run", interned)
        fold_digest(hashers[1], "run", fresh)
        assert hashers[0].digest() == hashers[1].digest()

    def test_intern_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(events_mod, "IO_EVENT_CACHE_MAX", 8)
        fresh = range(10 ** 9, 10 ** 9 + 100)  # keys no other test makes
        kept = [io_event("read", block, "ok") for block in fresh]
        assert len(events_mod._IO_EVENTS) <= 8
        assert [e.block for e in kept] == list(fresh)
        assert io_event("read", fresh[-1], "ok") is kept[-1]

    @settings(max_examples=150, deadline=None)
    @given(ring=st.one_of(st.none(), st.integers(1, 12)),
           batches=st.lists(st.lists(st.integers(0, 9), max_size=20),
                            max_size=6),
           consume_after=st.integers(0, 6))
    def test_emit_many_is_a_run_of_emits(self, ring, batches, consume_after):
        batched, single = EventLog(max_events=ring), EventLog(max_events=ring)
        for i, batch in enumerate(batches):
            events = [io_event("read", block, "ok") for block in batch]
            batched.emit_many(events)
            for event in events:
                single.emit(event)
            if i == consume_after:
                assert batched.consume_new() == single.consume_new()
            assert _log_state(batched) == _log_state(single)

    def test_trace_length_counts_io_events_only(self):
        disk = make_disk(DISK_BLOCKS, BS)
        injector = FaultInjector(disk, events=EventLog())
        injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=9))
        injector.read_blocks([1, 2, 3])
        assert len(injector.events.io_events()) == 3
        assert len(injector.events) == 4

    def test_an_injector_with_no_stream_records_nothing(self):
        """Given no stream and over a disk with none, the injector
        serves, faults and restores exactly as a recording one does."""
        quiet = FaultInjector(make_disk(DISK_BLOCKS, BS))
        loud = FaultInjector(make_disk(DISK_BLOCKS, BS), events=EventLog())
        assert quiet.events is None
        snaps = [injector.snapshot() for injector in (quiet, loud)]
        for injector in (quiet, loud):
            injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=3))
            injector.write_blocks([1, 2], [_payload(1), _payload(2)])
            injector.write_block(5, _payload(5))
        for injector in (quiet, loud):
            assert injector.read_blocks([1, 2]) == [_payload(1), _payload(2)]
        assert [_outcome(lambda: i.read_blocks([5, 3])) for i in (quiet, loud)] \
            == [("raised", ReadError, 3)] * 2
        assert _disk_state(quiet.lower) == _disk_state(loud.lower)
        assert len(loud.events.io_events()) == 7
        for injector, snap in zip((quiet, loud), snaps):
            injector.restore(snap)
        assert loud.events.io_events() == []
        assert quiet.events is None and repr(quiet) == "FaultInjector(faults=1)"
