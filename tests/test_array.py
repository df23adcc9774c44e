"""Redundancy arrays: geometry math, typed events, scrub, rebuild,
snapshot/restore, and DeviceStack integration."""

from __future__ import annotations

import pytest

from repro.common.errors import OutOfRangeError, ReadError, WriteError
from repro.disk import DeviceStack
from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.disk.injector import FaultInjector
from repro.obs.events import (
    ArrayDetectionEvent,
    ArrayPolicyEvent,
    ArrayRecoveryEvent,
    EventLog,
)
from repro.obs.metrics import MetricsRegistry
from repro.redundancy import (
    ArraySnapshot,
    GEOMETRIES,
    MirrorDevice,
    RDPDevice,
    StripeParityDevice,
    make_array,
)

NUM_BLOCKS = 48
BS = 512


def _payload(b: int, salt: int = 0) -> bytes:
    return bytes([(b * 31 + salt + 7) % 256]) * BS


def _fill(array):
    for b in range(array.num_blocks):
        array.write_block(b, _payload(b))


def _assert_contents(array, salt: int = 0):
    for b in range(array.num_blocks):
        assert array.read_block(b) == _payload(b, salt), b


DEFAULT_MEMBERS = {"mirror": 2, "parity": 4, "rdp": 5}

#: The four array shapes the fleet matrix runs.
FOUR_GEOMETRIES = [("mirror", 2), ("mirror", 3), ("parity", 4), ("rdp", 5)]


@pytest.fixture(params=list(GEOMETRIES))
def any_array(request):
    array = make_array(request.param, NUM_BLOCKS, BS,
                       members=DEFAULT_MEMBERS[request.param])
    array.events = EventLog()
    return array


@pytest.fixture(params=FOUR_GEOMETRIES, ids=lambda g: f"{g[0]}{g[1]}")
def each_array(request):
    geometry, members = request.param
    array = make_array(geometry, NUM_BLOCKS, BS, members=members)
    array.events = EventLog()
    return array


class TestGeometry:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_locate_is_injective(self, geometry):
        array = make_array(geometry, NUM_BLOCKS, BS,
                           members=DEFAULT_MEMBERS[geometry])
        seen = set()
        for b in range(NUM_BLOCKS):
            m, mb = array._locate(b)
            assert 0 <= m < len(array.members)
            assert 0 <= mb < array.members[m].disk.num_blocks
            assert (m, mb) not in seen
            seen.add((m, mb))

    def test_mirror_members_hold_full_copies(self):
        array = MirrorDevice(NUM_BLOCKS, BS, copies=3)
        assert len(array.members) == 3
        for member in array.members:
            assert member.disk.num_blocks >= NUM_BLOCKS

    def test_parity_rotates_across_members(self):
        array = StripeParityDevice(NUM_BLOCKS, BS, members=4)
        parity_members = {array._parity_member(s) for s in range(array.stripes)}
        assert len(parity_members) > 1  # RAID-5, not RAID-4

    def test_rdp_member_count_is_p_plus_one(self):
        array = RDPDevice(NUM_BLOCKS, BS, p=5)
        assert len(array.members) == 6

    def test_rdp_rejects_composite_p(self):
        with pytest.raises(ValueError):
            RDPDevice(NUM_BLOCKS, BS, p=6)

    def test_make_array_rejects_unknown_geometry(self):
        with pytest.raises(ValueError):
            make_array("raid0", NUM_BLOCKS, BS)


class TestIO:
    def test_roundtrip(self, any_array):
        _fill(any_array)
        _assert_contents(any_array)

    def test_out_of_range(self, any_array):
        with pytest.raises(OutOfRangeError):
            any_array.read_block(NUM_BLOCKS)
        with pytest.raises(OutOfRangeError):
            any_array.write_block(-1, b"\0" * BS)

    @pytest.mark.parametrize("geometry,members", FOUR_GEOMETRIES)
    def test_peek_view_checks_the_logical_range(self, geometry, members):
        # 10 logical blocks leave padding slots in the last parity / RDP
        # stripe; peek_view used to hand those out, or fail naming a
        # *member* block.
        array = make_array(geometry, 10, BS, members=members)
        for block in (-1, 10, 12, 15, 10 ** 6):
            with pytest.raises(OutOfRangeError) as peeked:
                array.peek(block)
            with pytest.raises(OutOfRangeError) as viewed:
                array.peek_view(block)
            assert str(viewed.value) == str(peeked.value)
        assert bytes(array.peek_view(9)) == array.peek(9)

    def test_wrong_block_size_rejected(self, any_array):
        with pytest.raises(ValueError):
            any_array.write_block(0, b"short")

    def test_peek_poke_bypass_faults_but_keep_parity(self, any_array):
        _fill(any_array)
        any_array.poke(5, _payload(5, salt=9))
        assert any_array.peek(5) == _payload(5, salt=9)
        # Parity/replicas were maintained: the poked value survives the
        # loss of the member holding it.
        m, _ = any_array._locate(5)
        any_array.fail_member(m)
        assert any_array.read_block(5) == _payload(5, salt=9)

    def test_stats_accumulate(self, any_array):
        _fill(any_array)
        _assert_contents(any_array)
        assert any_array.stats.reads == NUM_BLOCKS
        assert any_array.stats.writes == NUM_BLOCKS
        assert any_array.stats.bytes_read == NUM_BLOCKS * BS


class TestDegradedPaths:
    def test_survives_single_member_loss(self, any_array):
        _fill(any_array)
        for victim in range(len(any_array.members)):
            any_array.fail_member(victim)
            _assert_contents(any_array)
            any_array.revive_member(victim)

    def test_rdp_survives_any_two_member_losses(self):
        array = RDPDevice(NUM_BLOCKS, BS, p=5)
        _fill(array)
        n = len(array.members)
        for a in range(n):
            for b in range(a + 1, n):
                array.fail_member(a)
                array.fail_member(b)
                _assert_contents(array)
                array.revive_member(a)
                array.revive_member(b)

    def test_mirror2_double_loss_fails(self):
        array = MirrorDevice(NUM_BLOCKS, BS, copies=2)
        _fill(array)
        array.fail_member(0)
        array.fail_member(1)
        with pytest.raises(ReadError):
            array.read_block(0)

    def test_latent_error_triggers_read_repair(self, any_array):
        _fill(any_array)
        m, mb = any_array._locate(7)
        any_array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        assert any_array.read_block(7) == _payload(7)
        tags = [e.tag for e in any_array.events]
        assert "member-read-error" in tags
        assert "degraded-read" in tags
        assert "read-repair" in tags
        detections = [e for e in any_array.events
                      if isinstance(e, ArrayDetectionEvent)]
        assert detections and detections[0].member == m
        repairs = [e for e in any_array.events
                   if isinstance(e, ArrayRecoveryEvent)
                   and e.tag == "read-repair"]
        assert repairs and repairs[0].mechanism == "redundancy"

    def test_parity_peek_leaves_a_suspect_parity_block_out(self):
        from repro.common.xor import xor_all

        array = StripeParityDevice(NUM_BLOCKS, BS, members=4)
        _fill(array)
        dm, stripe = array._locate(16)
        pm = array._parity_member(stripe)
        # The data write is refused (parity lands), then a neighbour's
        # write is refused by the parity member: both cells suspect.
        array.members[dm].injector.arm(
            Fault(FaultOp.WRITE, FaultKind.FAIL, block=stripe))
        array.write_block(16, _payload(16, salt=3))
        array.members[dm].injector.clear_faults()
        array.members[pm].injector.arm(
            Fault(FaultOp.WRITE, FaultKind.FAIL, block=stripe))
        array.write_block(17, _payload(17, salt=3))
        assert {(dm, stripe), (pm, stripe)} <= array._suspect
        through_stale_parity = xor_all([
            member.disk.peek(stripe)
            for m, member in enumerate(array.members) if m != dm])
        # Nothing trustworthy to rebuild from: the peek shows what the
        # member holds, not an XOR through parity the array distrusts.
        assert array.peek(16) != through_stale_parity
        assert array.peek(16) == array.members[dm].disk.peek(stripe)

    def test_degraded_write_lands_and_rebuild_heals(self, any_array):
        _fill(any_array)
        victim, _ = any_array._locate(3)
        any_array.fail_member(victim)
        any_array.write_block(3, _payload(3, salt=1))
        assert any_array.read_block(3) == _payload(3, salt=1)
        assert any_array.degraded_writes >= 1
        any_array.revive_member(victim)
        any_array.replace_member(victim)
        rebuilt = any_array.rebuild_member(victim)
        assert rebuilt > 0
        assert any_array.rebuilt_blocks == rebuilt
        tags = [e.tag for e in any_array.events]
        assert "member-replaced" in tags
        assert "rebuild" in tags
        assert "rebuild-loss" not in tags
        # After rebuild the member serves reads again, fault-free.
        for other in range(len(any_array.members)):
            if other != victim:
                any_array.fail_member(other)
        assert any_array.read_block(3) == _payload(3, salt=1)

    def test_total_write_failure_raises(self):
        array = MirrorDevice(NUM_BLOCKS, BS, copies=2)
        _fill(array)
        for member in array.members:
            member.injector.arm(
                Fault(FaultOp.WRITE, FaultKind.FAIL, block=0))
        with pytest.raises(WriteError):
            array.write_block(0, _payload(0, salt=2))


class TestScrub:
    def test_clean_array_scrubs_clean(self, any_array):
        _fill(any_array)
        report = any_array.scrub()
        assert report.problems == 0
        assert report.units_scanned == any_array.scrub_units
        assert any_array.scrub_passes == 1

    def test_mirror3_majority_vote_repairs_corruption(self):
        array = MirrorDevice(NUM_BLOCKS, BS, copies=3)
        array.events = EventLog()
        _fill(array)
        m, mb = array._locate(11)
        array.members[m].disk.poke(mb, b"\xa5" * BS)
        report = array.scrub()
        assert (m, mb) in report.corruptions
        assert (m, mb) in report.repaired
        assert not report.unrepairable
        assert array.members[m].disk.peek(mb) == _payload(11)
        mismatches = [e for e in array.events if e.tag == "member-mismatch"]
        assert mismatches and mismatches[0].mechanism == "redundancy"

    def test_mirror2_tie_is_unrepairable(self):
        array = MirrorDevice(NUM_BLOCKS, BS, copies=2)
        array.events = EventLog()
        _fill(array)
        m, mb = array._locate(11)
        array.members[m].disk.poke(mb, b"\xa5" * BS)
        report = array.scrub()
        assert report.unrepairable
        assert "scrub-loss" in [e.tag for e in array.events]

    def test_parity_scrub_heals_latent_error(self):
        array = StripeParityDevice(NUM_BLOCKS, BS, members=4)
        _fill(array)
        m, mb = array._locate(11)
        array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        report = array.scrub()
        assert (m, mb) in report.latent_errors
        assert (m, mb) in report.repaired
        assert array.scrub_repairs >= 1
        _assert_contents(array)

    def test_rdp_syndromes_locate_silent_corruption(self):
        array = RDPDevice(NUM_BLOCKS, BS, p=5)
        _fill(array)
        m, mb = array._locate(11)
        array.members[m].disk.poke(mb, b"\xa5" * BS)
        report = array.scrub()
        assert (m, mb) in report.repaired
        assert array.members[m].disk.peek(mb) == _payload(11)
        _assert_contents(array)


class TestScrubStep:
    """``scrub_step`` is the one incremental-scrub primitive; whoever
    owns the cadence calls it."""

    def test_partial_progress_across_calls(self, each_array):
        _fill(each_array)
        total = each_array.scrub_units
        assert total > 2
        first = each_array.scrub_step(2)
        assert first.units_scanned == 2
        assert each_array.scrub_cursor == 2
        second = each_array.scrub_step(1)
        assert second.units_scanned == 1
        assert each_array.scrub_cursor == 3 % total
        assert each_array.scrub_passes == (1 if total == 3 else 0)

    def test_cursor_wraps_after_one_pass(self, each_array):
        _fill(each_array)
        total = each_array.scrub_units
        steps = scanned = 0
        while True:
            report = each_array.scrub_step(5)
            steps += 1
            scanned += report.units_scanned
            if each_array.scrub_cursor == 0:
                break
            assert each_array.scrub_passes == 0
        assert scanned == total
        assert steps == -(-total // 5)  # ceil division
        assert each_array.scrub_passes == 1
        completions = [e for e in each_array.events.of_type(ArrayPolicyEvent)
                       if e.tag == "scrub-complete"]
        assert len(completions) == 1

    def test_full_pass_when_units_cover_the_rest(self, each_array):
        _fill(each_array)
        total = each_array.scrub_units
        each_array.scrub_step(1)
        report = each_array.scrub_step(total)  # more than is left
        assert report.units_scanned == total - 1
        assert each_array.scrub_cursor == 0
        assert each_array.scrub_passes == 1
        whole = each_array.scrub_step(total)
        assert whole.units_scanned == total
        assert whole.blocks_scanned == sum(
            member.disk.num_blocks for member in each_array.members)
        assert each_array.scrub_passes == 2

    @pytest.mark.parametrize("units", [0, -3])
    def test_a_step_advances_at_least_one_unit(self, each_array, units):
        with pytest.raises(ValueError):
            each_array.scrub_step(units)
        assert each_array.scrub_cursor == 0


class TestSnapshotRestore:
    def test_roundtrip_restores_contents_and_sets(self, any_array):
        _fill(any_array)
        m, mb = any_array._locate(4)
        any_array.members[m].injector.arm(
            Fault(FaultOp.WRITE, FaultKind.FAIL, block=mb))
        any_array.write_block(4, _payload(4, salt=3))  # leaves a suspect
        snap = any_array.snapshot()
        assert isinstance(snap, ArraySnapshot)
        for b in range(NUM_BLOCKS):
            any_array.poke(b, _payload(b, salt=5))
        any_array.restore(snap)
        assert any_array.read_block(4) == _payload(4, salt=3)
        assert (m, mb) in any_array._suspect
        assert any_array.dirty_count == 0

    def test_restore_rejects_foreign_snapshot(self, any_array):
        other = make_array("mirror", NUM_BLOCKS * 2, BS, members=2)
        with pytest.raises(ValueError):
            any_array.restore(other.snapshot())

    def test_snapshot_equality_and_reduce(self, any_array):
        _fill(any_array)
        a = any_array.snapshot()
        b = any_array.snapshot()
        assert a == b
        cls, args = a.__reduce__()
        assert cls(*args) == a
        any_array.write_block(0, _payload(0, salt=1))
        assert any_array.snapshot() != a

    def test_base_image_serves_golden_contents(self, any_array):
        _fill(any_array)
        any_array.restore(any_array.snapshot())
        view = any_array.base_image
        assert view is not None
        assert view.block(9) == _payload(9)
        view.meta["k"] = "v"
        assert any_array.base_image.meta["k"] == "v"


class TestStackIntegration:
    def test_device_stack_builds_on_array(self):
        stack = DeviceStack.build(NUM_BLOCKS, BS, array="mirror",
                                  members=2, cache_blocks=8)
        stack.write_block(1, _payload(1))
        stack.flush()
        assert stack.read_block(1) == _payload(1)
        assert "MirrorDevice" in stack.describe()
        assert "BlockCache" in stack.describe()

    def test_array_events_flow_into_stack_log(self):
        stack = DeviceStack.build(NUM_BLOCKS, BS, array="mirror", members=2)
        stack.write_block(2, _payload(2))
        array = stack.disk
        m, mb = array._locate(2)
        array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        assert stack.read_block(2) == _payload(2)
        tags = [e.tag for e in stack.events]
        assert "degraded-read" in tags

    def test_collect_metrics_exports_member_series(self):
        array = make_array("parity", NUM_BLOCKS, BS, members=4)
        _fill(array)
        array.fail_member(0)
        _assert_contents(array)
        registry = MetricsRegistry()
        array.collect_metrics(registry)
        snapshot = registry.snapshot()
        names = {c["name"] for c in snapshot["counters"]}
        assert "repro_array_member_reads_total" in names
        assert "repro_array_degraded_reads_total" in names
        member_rows = [c for c in snapshot["counters"]
                       if c["name"] == "repro_array_member_reads_total"]
        assert len(member_rows) == 4

    def test_rebuild_emits_span(self):
        from repro.obs.trace import enable_tracing

        array = make_array("mirror", NUM_BLOCKS, BS, members=2)
        array.events = EventLog()
        enable_tracing(array.events)
        _fill(array)
        array.replace_member(0)
        array.rebuild_member(0)
        spans = [e for e in array.events
                 if getattr(e, "name", None) == "rebuild"]
        assert spans

    def test_degraded_read_span_nests_under_open_parent(self):
        from repro.obs.trace import SpanStartEvent, enable_tracing

        array = make_array("mirror", NUM_BLOCKS, BS, members=2)
        array.events = EventLog()
        tracer = enable_tracing(array.events)
        _fill(array)
        m, mb = array._locate(6)
        array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        outer = tracer.start("read-op", "vfs-op")
        assert array.read_block(6) == _payload(6)
        tracer.end(outer)
        starts = [e for e in array.events if isinstance(e, SpanStartEvent)]
        degraded = [e for e in starts if e.name == "degraded-read"]
        assert degraded and degraded[0].parent_id == outer
