"""Single-trial mechanics of the fleet simulator (repro.fleet.sim)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import ReadError
from repro.disk import make_disk
from repro.disk.faults import Fault, FaultKind, FaultOp, Persistence
from repro.disk.injector import FaultInjector
from repro.fleet.rates import FaultRates, ZERO_RATES
from repro.fleet.sim import _RetryDevice, run_trial
from repro.obs.events import EventLog
from repro.fleet.spec import (
    CROSSCHECK_GEOMETRY,
    CROSSCHECK_POLICY,
    FleetSpec,
    GeometrySpec,
    PolicySpec,
)
from repro.redundancy import make_array

MIRROR2 = GeometrySpec("mirror2", "mirror", 2)
PARITY4 = GeometrySpec("parity4", "parity", 4)
SINGLE = GeometrySpec("single", "single", 1)

BASELINE = PolicySpec("baseline")


def _spec(**kw) -> FleetSpec:
    base = dict(trials=4, num_blocks=32, block_size=512,
                mission_hours=2000.0, seed=99)
    base.update(kw)
    return FleetSpec(**base)


class TestTrialDeterminism:
    def test_same_inputs_same_outcome(self):
        spec = _spec()
        a = run_trial(spec, MIRROR2, BASELINE, trial=0)
        b = run_trial(spec, MIRROR2, BASELINE, trial=0)
        assert a == b
        assert a.digest == b.digest

    def test_trial_index_changes_draws(self):
        spec = _spec()
        a = run_trial(spec, MIRROR2, BASELINE, trial=0)
        b = run_trial(spec, MIRROR2, BASELINE, trial=1)
        assert a.digest != b.digest

    def test_cells_do_not_share_streams(self):
        spec = _spec()
        a = run_trial(spec, MIRROR2, BASELINE, trial=0)
        b = run_trial(spec, PARITY4, BASELINE, trial=0)
        assert a.digest != b.digest


class TestZeroRates:
    def test_quiet_mission_survives(self):
        spec = _spec(rates=ZERO_RATES)
        for geometry in (SINGLE, MIRROR2, PARITY4):
            out = run_trial(spec, geometry, BASELINE, trial=0)
            assert out.outcome == "survived"
            assert out.ttdl_hours is None
            assert out.counters.get("failstops", 0) == 0
            assert out.counters.get("lse", 0) == 0
            assert out.counters.get("corruptions", 0) == 0
            assert out.device_hours == geometry.members * spec.mission_hours


class TestFailStop:
    # One fail-stop is certain within the first hours at this rate.
    HOT = FaultRates(failstop_per_hour=0.05, lse_per_hour=0.0,
                     transient_fraction=0.0, corruption_per_hour=0.0)

    def test_single_loses_on_first_failstop(self):
        spec = _spec(rates=self.HOT)
        out = run_trial(spec, SINGLE, BASELINE, trial=0)
        assert out.outcome == "detected-loss"
        assert out.ttdl_hours is not None
        assert out.ttdl_hours < spec.mission_hours
        # The trial ends at the loss, not at mission end.
        assert out.end_hours == out.ttdl_hours

    def test_r_stop_freezes_before_loss(self):
        spec = _spec(rates=self.HOT)
        policy = PolicySpec("stop", stop_on_fault=True)
        for geometry in (SINGLE, MIRROR2):
            out = run_trial(spec, geometry, policy, trial=0)
            assert out.outcome == "stopped"
            assert out.ttdl_hours is None

    def test_mirror2_loses_when_repair_cannot_finish(self):
        # Replacement takes longer than the survivor's own expected
        # lifetime: the double-failure window closes on every trial.
        spec = _spec(rates=self.HOT, mission_hours=5000.0)
        policy = PolicySpec("slow-spare", replace_delay_hours=4000.0,
                            scrub_interval_hours=0.0, io_reads_per_tick=0)
        losses = sum(
            run_trial(spec, MIRROR2, policy, trial=t).lost for t in range(6))
        assert losses == 6

    def test_mirror2_survives_with_instant_repair(self):
        # A rebuilt window of ~1.3h at 0.05/h survivor hazard: the
        # overwhelmingly common outcome is full recovery; counters must
        # show the real rebuild machinery ran.
        spec = _spec(rates=FaultRates(0.002, 0.0, 0.0, 0.0),
                     mission_hours=2000.0)
        policy = PolicySpec("fast-spare", replace_delay_hours=0.5,
                            rebuild_rate_blocks_per_hour=1000.0,
                            scrub_interval_hours=0.0, io_reads_per_tick=0)
        outs = [run_trial(spec, MIRROR2, policy, trial=t) for t in range(8)]
        rebuilt = sum(o.counters.get("rebuilds", 0) for o in outs)
        assert rebuilt >= 4
        assert sum(o.outcome == "survived" for o in outs) >= 7


class TestLatentAndSilent:
    def test_scrub_heals_latent_errors(self):
        # LSE-only process with weekly scrub: repairs happen and the
        # mission survives far more often than not.
        rates = FaultRates(0.0, 0.002, 0.0, 0.0)
        spec = _spec(rates=rates, mission_hours=4000.0)
        outs = [run_trial(spec, MIRROR2, BASELINE, trial=t)
                for t in range(8)]
        assert sum(o.counters.get("lse", 0) for o in outs) > 0
        assert sum(o.counters.get("scrub_repairs", 0) for o in outs) > 0
        assert sum(o.outcome == "survived" for o in outs) >= 7

    def test_verify_catches_silent_corruption_on_single(self):
        # Corruption below the injector on a bare disk: no mechanism
        # ever flags it, the mission-end verify scores silent-loss.
        rates = FaultRates(0.0, 0.0, 0.0, 0.01)
        spec = _spec(rates=rates, mission_hours=1000.0)
        policy = PolicySpec("blind", scrub_interval_hours=0.0,
                            io_reads_per_tick=0)
        outs = [run_trial(spec, SINGLE, policy, trial=t) for t in range(4)]
        assert all(o.counters.get("corruptions", 0) > 0 for o in outs)
        assert all(o.outcome == "silent-loss" for o in outs)
        # Silent loss is established at the mission-end audit.
        assert all(o.ttdl_hours == spec.mission_hours for o in outs)

    def test_retry_recovers_transient_errors(self):
        # All-transient LSE process on a bare disk: without retries the
        # first touched error is user-visible loss; with R_retry depth
        # the trials ride through.
        rates = FaultRates(0.0, 0.01, 1.0, 0.0)
        spec = _spec(rates=rates, mission_hours=2000.0)
        plain = PolicySpec("plain")
        retry = PolicySpec("retry", retries=2)
        lost_plain = sum(
            run_trial(spec, SINGLE, plain, trial=t).lost for t in range(6))
        retry_outs = [run_trial(spec, SINGLE, retry, trial=t)
                      for t in range(6)]
        lost_retry = sum(o.lost for o in retry_outs)
        assert lost_retry < lost_plain
        assert sum(o.counters.get("retry_recoveries", 0)
                   for o in retry_outs) > 0


class TestRetryDeviceVectored:
    """``_RetryDevice.read_blocks`` gives every block the policy's
    retries, exactly like a loop of its ``read_block``."""

    @staticmethod
    def _member(persistence):
        disk = make_disk(8, 512)
        for block in range(8):
            disk.poke(block, bytes([block + 1]) * 512)
        injector = FaultInjector(disk, events=EventLog())
        injector.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=3,
                           persistence=persistence))
        return _RetryDevice(injector, 1, EventLog(), 0), disk, injector

    @staticmethod
    def _outcome(call):
        try:
            return ("ok", call())
        except ReadError as exc:
            return ("raised", exc.block)

    @pytest.mark.parametrize("persistence", list(Persistence))
    @pytest.mark.parametrize("blocks", [[2, 3], [3, 2, 3], list(range(8))])
    def test_read_blocks_matches_the_retrying_loop(self, persistence, blocks):
        vectored, looped = (self._member(persistence) for _ in range(2))
        got = self._outcome(lambda: vectored[0].read_blocks(blocks))
        want = self._outcome(
            lambda: [looped[0].read_block(block) for block in blocks])
        assert got == want
        if persistence is Persistence.TRANSIENT:
            assert got[0] == "ok"

        def state(member):
            device, disk, injector = member
            return (injector.events.key_sequence(),
                    device._log.key_sequence(),
                    dataclasses.astuple(disk.stats), disk.clock,
                    device.retry_recoveries)

        assert state(vectored) == state(looped)


class TestCrosscheckCell:
    def test_isolates_failstop_process(self):
        spec = _spec()
        out = run_trial(spec, CROSSCHECK_GEOMETRY, CROSSCHECK_POLICY, 0)
        assert out.counters.get("lse", 0) == 0
        assert out.counters.get("corruptions", 0) == 0
        assert out.counters.get("scrub_ticks", 0) == 0


class TestFlightRecorder:
    """Instrumentation riding the trial: site attribution, sampled
    series, retained streams, tracing, and profiling."""

    HOT = FaultRates(failstop_per_hour=0.05, lse_per_hour=0.0,
                     transient_fraction=0.0, corruption_per_hour=0.0)

    def _lost(self, **kw):
        out = run_trial(_spec(rates=self.HOT, **kw), SINGLE, BASELINE, 0)
        assert out.outcome == "detected-loss"
        return out

    def test_terminal_trials_carry_a_site(self):
        assert self._lost().site == "failstop"

    def test_survivors_have_no_site_and_no_stream(self):
        out = run_trial(_spec(rates=ZERO_RATES), MIRROR2, BASELINE, 0)
        assert out.outcome == "survived"
        assert out.site == ""
        assert out.stream is None

    def test_series_cover_the_recorder_gauges(self):
        from repro.fleet.sim import GAUGES
        from repro.obs.timeseries import SERIES_BINS

        out = run_trial(_spec(), MIRROR2, BASELINE, 0)
        slots = out.series.slots
        assert slots and list(slots) == sorted(set(slots))
        assert 0 <= slots[0] and slots[-1] < SERIES_BINS
        assert len(out.series.counts) == len(slots) and all(out.series.counts)
        for column in (out.series.sums, out.series.mins, out.series.maxs):
            assert len(column) == len(GAUGES)
            assert all(len(values) == len(slots) for values in column)

    def test_terminal_stream_is_log_events_with_clock_arrivals(self):
        from repro.obs.events import FleetClockEvent, LogEvent

        out = self._lost()
        assert out.stream is not None
        assert all(isinstance(e, LogEvent) for e in out.stream)
        clock = [e for e in out.stream if isinstance(e, FleetClockEvent)]
        tags = {e.tag for e in clock}
        assert "failstop-arrival" in tags
        assert "loss-established" in tags
        # Arrivals carry the virtual clock, not wall time.
        assert all(0.0 <= e.t_hours <= out.end_hours for e in clock)
        assert out.dropped_events == 0

    def test_trace_rerun_same_verdict_different_digest(self):
        from repro.obs.trace import SpanEndEvent, SpanStartEvent

        spec = _spec(rates=self.HOT)
        plain = run_trial(spec, SINGLE, BASELINE, 0)
        traced = run_trial(spec, SINGLE, BASELINE, 0, trace=True)
        assert traced.outcome == plain.outcome
        assert traced.ttdl_hours == plain.ttdl_hours
        assert traced.site == plain.site
        # Spans join the stream, so the digest differs by construction.
        assert traced.digest != plain.digest
        kinds = {type(e) for e in traced.stream}
        assert SpanStartEvent in kinds and SpanEndEvent in kinds
        assert traced.observed.by_label() == {
            "fleet:single:baseline:0": traced.stream}
        assert traced.observed.flight["schema"] == "repro-timeseries/1"

    def test_plain_runs_carry_no_heavy_payloads(self):
        out = run_trial(_spec(rates=ZERO_RATES), MIRROR2, BASELINE, 0)
        assert out.observed is None


class TestArrayScrubStep:
    def test_cursor_advances_and_wraps(self):
        array = make_array("parity", 24, 512, members=4)
        for b in range(24):
            array.write_block(b, bytes([b]) * 512)
        total = array.scrub_units
        seen = 0
        while True:
            report = array.scrub_step(3)
            seen += report.units_scanned
            if array.scrub_cursor == 0:
                break
            assert array.scrub_cursor == seen
        assert seen == total

    def test_step_repairs_in_its_window(self):
        # Three-way mirror: majority vote attributes the bad copy, so
        # the increment that covers block 3 repairs it in place.
        array = make_array("mirror", 16, 512, members=3)
        for b in range(16):
            array.write_block(b, bytes([b]) * 512)
        array.members[1].disk.poke(3, b"\xee" * 512)
        repaired = []
        while True:
            repaired += array.scrub_step(4).repaired
            if array.scrub_cursor == 0:
                break
        assert (1, 3) in repaired
        assert array.members[1].disk.peek(3) == bytes([3]) * 512

    def test_zero_units_rejected(self):
        array = make_array("mirror", 8, 512, members=2)
        with pytest.raises(ValueError):
            array.scrub_step(0)
