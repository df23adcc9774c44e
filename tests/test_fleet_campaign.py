"""Campaign aggregation and schedule-independence (repro.fleet.campaign)."""

from __future__ import annotations

import pytest

from repro.disk.disk import DiskStats
from repro.fleet.campaign import OUTCOMES, CellResult, run_fleet
from repro.fleet.rates import ZERO_RATES
from repro.fleet.spec import (
    CROSSCHECK_GEOMETRY,
    CROSSCHECK_POLICY,
    FleetSpec,
    GeometrySpec,
    PolicySpec,
)
from repro.obs.events import FleetTrialEvent
from repro.obs.metrics import validate_snapshot

SMALL = FleetSpec(
    trials=3, num_blocks=32, mission_hours=2000.0, seed=7,
    geometries=(GeometrySpec("single", "single", 1),
                GeometrySpec("mirror2", "mirror", 2),
                GeometrySpec("parity4", "parity", 4)),
    policies=(PolicySpec("baseline"),
              PolicySpec("no-scrub", scrub_interval_hours=0.0)),
)


class TestScheduleIndependence:
    def test_jobs_width_does_not_change_digest(self):
        serial = run_fleet(SMALL, jobs=1)
        fanned = run_fleet(SMALL, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.matrix() == fanned.matrix()
        assert serial.render() == fanned.render()
        assert [(e.geometry, e.policy, e.trial, e.outcome)
                for e in serial.events] == \
            [(e.geometry, e.policy, e.trial, e.outcome)
             for e in fanned.events]

    def test_seed_changes_digest(self):
        a = run_fleet(SMALL, jobs=1)
        b = run_fleet(SMALL.scaled(seed=8), jobs=1)
        assert a.digest != b.digest


class TestWholeReportAcrossWidths:
    """Everything a campaign reports, merged series included, must not
    depend on how ``pool_map`` cuts the trials into chunks."""

    @pytest.mark.parametrize("trials", [1, 11, 40])
    def test_campaign_report_bytes_match_at_every_width(self, trials):
        import json

        from repro.common import pool

        spec = SMALL.scaled(trials=trials)
        tasks = len(spec.cells()) * trials
        for width in {pool.effective_jobs(jobs) for jobs in (2, 3)} - {1}:
            size = -(-tasks // (width * pool.CHUNKS_PER_WORKER))
            # 7 tasks: one a chunk, fewer than the chunks the rule aims
            # for; 77 and 280: the last chunk is a short one.
            assert (tasks % size != 0) == (trials > 1)
        bodies = []
        for jobs in (1, 2, 3):
            body = run_fleet(spec, jobs=jobs).campaign_report()
            assert body.pop("jobs") == jobs     # the one field that may differ
            bodies.append(json.dumps(body, indent=2, sort_keys=True))
        assert bodies[0] == bodies[1] == bodies[2]
        assert json.loads(bodies[0])["timeseries"]


class TestAggregation:
    def test_matrix_covers_every_cell(self):
        report = run_fleet(SMALL, jobs=1)
        matrix = report.matrix()
        for geometry, policy in SMALL.cells():
            assert policy.name in matrix[geometry.label]
        # Every cell saw every trial, plus the cross-check cell.
        assert report.trials == len(SMALL.cells()) * SMALL.trials
        assert all(cell.trials == SMALL.trials
                   for cell in report.cells.values())

    def test_event_stream_is_one_typed_event_per_trial(self):
        report = run_fleet(SMALL, jobs=1)
        events = list(report.events)
        assert len(events) == report.trials
        assert all(isinstance(e, FleetTrialEvent) for e in events)
        assert all(e.outcome in OUTCOMES for e in events)

    def test_crosscheck_attached(self):
        report = run_fleet(SMALL, jobs=1)
        cc = report.crosscheck
        assert cc is not None
        assert cc["trials"] == SMALL.trials
        cell = report.cell(CROSSCHECK_GEOMETRY.label, CROSSCHECK_POLICY.name)
        assert cc["simulated_loss_probability"] == \
            round(cell.loss_probability, 6)

    def test_to_record_round_trips_json(self):
        import json

        report = run_fleet(SMALL, jobs=1)
        record = json.loads(json.dumps(report.to_record()))
        assert record["trials"] == report.trials
        assert record["matrix"] == report.matrix()


class TestEdgeCases:
    def test_empty_fleet(self):
        spec = SMALL.scaled(geometries=(), policies=(), crosscheck=False)
        report = run_fleet(spec, jobs=1)
        assert report.trials == 0
        assert report.cells == {}
        assert report.crosscheck is None
        # Digest of zero trials is still deterministic.
        assert report.digest == run_fleet(spec, jobs=2).digest

    def test_zero_rates_all_survive(self):
        spec = SMALL.scaled(rates=ZERO_RATES, crosscheck=False)
        report = run_fleet(spec, jobs=1)
        assert all(cell.outcomes["survived"] == cell.trials
                   for cell in report.cells.values())
        assert all(value == 0.0
                   for row in report.matrix().values()
                   for value in row.values())


class TestMetrics:
    def test_snapshot_validates(self):
        report = run_fleet(SMALL, jobs=1)
        snapshot = report.metrics().snapshot()
        assert validate_snapshot(snapshot) == []

    def test_trials_total_matches(self):
        report = run_fleet(SMALL, jobs=1)
        snapshot = report.metrics().snapshot()
        total = sum(
            counter["value"] for counter in snapshot["counters"]
            if counter["name"] == "repro_fleet_trials_total")
        assert total == report.trials


class TestIncidents:
    def test_every_terminal_trial_maps_to_one_incident(self):
        report = run_fleet(SMALL, jobs=1)
        terminal = sum(
            cell.outcomes["detected-loss"] + cell.outcomes["silent-loss"]
            + cell.outcomes["stopped"] for cell in report.cells.values())
        assert terminal == len(report.incidents) > 0
        keys = {(i.geometry, i.policy, i.trial) for i in report.incidents}
        assert len(keys) == len(report.incidents)

    def test_incident_digest_is_jobs_invariant(self):
        serial = run_fleet(SMALL, jobs=1)
        fanned = run_fleet(SMALL, jobs=2)
        assert serial.incident_digest == fanned.incident_digest
        assert serial.incident_digest

    def test_cause_refs_resolve_against_retained_streams(self):
        from repro.obs.trace import resolve_ref

        report = run_fleet(SMALL, jobs=1)
        for incident in report.incidents:
            assert incident.stream_label in report.streams
            for cause in incident.causes:
                event = resolve_ref(cause.ref, report.streams)
                assert event.tag == cause.tag

    def test_cells_count_incident_modes(self):
        report = run_fleet(SMALL, jobs=1)
        for (geometry, policy), cell in report.cells.items():
            expected = sum(1 for i in report.incidents
                           if (i.geometry, i.policy) == (geometry, policy))
            assert sum(cell.incident_modes.values()) == expected

    def test_incident_summary_lines(self):
        report = run_fleet(SMALL, jobs=1)
        summary = report.incident_summary()
        assert summary
        for line in summary:
            assert " incidents, top " in line

    def test_series_fold_into_the_registry(self):
        report = run_fleet(SMALL, jobs=1)
        snapshot = report.metrics().snapshot()
        names = {entry["name"] for entry in snapshot["timeseries"]}
        assert "repro_fleet_degraded_members" in names
        assert validate_snapshot(snapshot) == []


class TestCampaignReport:
    def test_schema_valid_and_self_consistent(self):
        from repro.common.schema import schema_root, validate_json

        report = run_fleet(SMALL, jobs=1)
        body = report.campaign_report()
        assert validate_json(
            body, schema_root() / "campaign_report.schema.json") == []
        assert body["schema"] == "repro-campaign-report/1"
        assert body["incident_digest"] == report.incident_digest
        assert body["outcome_digest"] == report.digest
        assert len(body["incidents"]) == len(report.incidents)
        assert body["timeseries"]

    def test_two_runs_give_equal_reports(self):
        spec = SMALL.scaled(trials=1, crosscheck=False)
        first = run_fleet(spec, jobs=1).campaign_report()
        again = run_fleet(spec, jobs=1).campaign_report()
        assert first == again
        assert "profile" not in first


class TestCellResult:
    def test_probabilities(self):
        cell = CellResult("g", "p")
        assert cell.loss_probability == 0.0
        cell.outcomes["detected-loss"] = 3
        cell.outcomes["silent-loss"] = 1
        cell.outcomes["survived"] = 4
        cell.outcomes["stopped"] = 2
        cell.trials = 10
        assert cell.losses == 4
        assert cell.loss_probability == pytest.approx(0.4)
        assert cell.stop_probability == pytest.approx(0.2)


class TestDiskStatsMerge:
    def _stats(self, n: int) -> DiskStats:
        s = DiskStats()
        s.reads = n
        s.writes = 2 * n
        s.bytes_read = 512 * n
        s.bytes_written = 1024 * n
        s.seeks = 3 * n
        s.busy_time_s = 0.5 * n
        return s

    def test_merge_accumulates_and_returns_self(self):
        a, b = self._stats(1), self._stats(2)
        out = a.merge(b)
        assert out is a
        assert (a.reads, a.writes, a.seeks) == (3, 6, 9)
        assert (a.bytes_read, a.bytes_written) == (1536, 3072)
        assert a.busy_time_s == pytest.approx(1.5)

    def test_merge_is_associative(self):
        xs = [self._stats(n) for n in (1, 2, 3)]
        ys = [self._stats(n) for n in (1, 2, 3)]
        left = DiskStats().merge(xs[0]).merge(xs[1]).merge(xs[2])
        right = DiskStats().merge(ys[0].merge(ys[1].merge(ys[2])))
        assert vars(left) == vars(right)
