"""Loss post-mortems: mode classification, causal chains, provenance
refs, and the campaign incident digest (repro.obs.postmortem)."""

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import pytest

from repro.common import Severity
from repro.common.schema import schema_root
from repro.obs.events import FleetClockEvent, StorageEvent
from repro.obs.postmortem import (
    CAUSE_CAP,
    INCIDENT_MODES,
    build_incident,
    classify,
    fold_incidents,
    mode_counts,
    stream_label,
)
from repro.obs.trace import resolve_ref


def clock(t, tag, member=None, block=None):
    return FleetClockEvent(Severity.INFO, "fleet", tag, tag,
                           block=block, t_hours=t, member=member)


@dataclass
class FakeOutcome:
    """Duck-typed trial verdict — postmortem must not need the real
    fleet dataclass (layering: obs sits below fleet)."""

    geometry: str = "mirror2"
    policy: str = "baseline"
    trial: int = 0
    outcome: str = "detected-loss"
    site: str = "rebuild"
    ttdl_hours: Optional[float] = 100.0
    end_hours: float = 100.0
    stream: Tuple[StorageEvent, ...] = field(default_factory=tuple)
    dropped_events: int = 0


class TestClassify:
    def test_stopped_is_rstop_freeze(self):
        out = FakeOutcome(outcome="stopped", site="failstop")
        assert classify(out, members=2) == "rstop-freeze"

    def test_silent_loss_is_corruption_past_scrub(self):
        out = FakeOutcome(outcome="silent-loss", site="verify")
        assert classify(out, members=2) == "silent-corruption-past-scrub"

    def test_rebuild_site_is_double_fault(self):
        out = FakeOutcome(site="rebuild")
        assert classify(out, members=4) == "double-fault-in-rebuild-window"

    def test_unprotected_failstop(self):
        out = FakeOutcome(geometry="single", site="failstop")
        assert classify(out, members=1) == "whole-disk-fail-stop"

    def test_unprotected_read_error(self):
        out = FakeOutcome(geometry="single", site="foreground")
        assert classify(out, members=1) == "unrecovered-media-error"

    def test_scrub_site_is_unrepairable_damage(self):
        out = FakeOutcome(site="scrub")
        assert classify(out, members=2) == "scrub-unrepairable-damage"

    def test_redundant_read_loss_is_latent_exposure(self):
        for site in ("foreground", "verify", ""):
            out = FakeOutcome(site=site)
            assert classify(out, members=2) == \
                "latent-error-exposed-by-reconstruction"

    def test_every_mode_is_in_the_closed_vocabulary(self):
        cases = [
            (FakeOutcome(outcome="stopped"), 2),
            (FakeOutcome(outcome="silent-loss"), 2),
            (FakeOutcome(site="rebuild"), 2),
            (FakeOutcome(site="failstop"), 1),
            (FakeOutcome(site="foreground"), 1),
            (FakeOutcome(site="scrub"), 2),
            (FakeOutcome(site="foreground"), 2),
        ]
        assert {classify(out, m) for out, m in cases} == set(INCIDENT_MODES)


class TestBuildIncident:
    def test_causes_in_stream_order_with_resolvable_refs(self):
        stream = (
            clock(10.0, "lse-arrival", member=1, block=7),
            clock(20.0, "failstop-arrival", member=0),
            clock(20.0, "spare-seated", member=0),  # not a cause
            clock(30.0, "loss-established"),
        )
        out = FakeOutcome(stream=stream)
        incident = build_incident(out, members=2)
        assert [c.tag for c in incident.causes] == [
            "lse-arrival", "failstop-arrival", "loss-established"]
        assert [c.t_hours for c in incident.causes] == [10.0, 20.0, 30.0]
        streams = {stream_label(out): stream}
        for cause in incident.causes:
            event = resolve_ref(cause.ref, streams)
            assert event.tag == cause.tag
            assert event.t_hours == cause.t_hours

    def test_mode_and_site_carried(self):
        incident = build_incident(FakeOutcome(), members=2)
        assert incident.mode == "double-fault-in-rebuild-window"
        assert incident.site == "rebuild"
        assert incident.stream_label == "fleet:mirror2:baseline:0"

    def test_long_chains_keep_head_and_tail(self):
        stream = tuple(clock(float(i), "lse-arrival", member=0, block=i)
                       for i in range(50)) + (clock(50.0, "loss-established"),)
        incident = build_incident(FakeOutcome(stream=stream), members=2)
        assert len(incident.causes) == CAUSE_CAP
        assert incident.dropped_causes == 51 - CAUSE_CAP
        # Head preserved, terminal verdict preserved.
        assert incident.causes[0].t_hours == 0.0
        assert incident.causes[-1].tag == "loss-established"
        # Tail refs still resolve (indices are stream positions, not
        # positions in the capped cause list).
        streams = {incident.stream_label: stream}
        for cause in incident.causes:
            assert resolve_ref(cause.ref, streams).tag == cause.tag

    def test_ring_truncation_reported_honestly(self):
        incident = build_incident(
            FakeOutcome(stream=(clock(1.0, "loss-established"),),
                        dropped_events=123),
            members=2)
        assert incident.dropped_events == 123

    def test_record_is_json_serializable(self):
        incident = build_incident(
            FakeOutcome(stream=(clock(1.0, "lse-arrival", 0, 3),
                                clock(2.0, "loss-established"))),
            members=2)
        record = json.loads(json.dumps(incident.to_record()))
        assert record["mode"] == "double-fault-in-rebuild-window"
        assert record["causes"][0]["block"] == 3


class TestDigest:
    def test_fold_is_order_sensitive_and_content_sensitive(self):
        a = build_incident(FakeOutcome(trial=0), members=2)
        b = build_incident(FakeOutcome(trial=1), members=2)
        assert fold_incidents([a, b]) != fold_incidents([b, a])
        assert fold_incidents([a]) != fold_incidents([b])
        assert fold_incidents([a, b]) == fold_incidents([a, b])

    def test_mode_counts(self):
        incidents = [
            build_incident(FakeOutcome(trial=i), members=2)
            for i in range(3)
        ] + [build_incident(FakeOutcome(trial=9, outcome="stopped"),
                            members=2)]
        assert mode_counts(incidents) == {
            "double-fault-in-rebuild-window": 3,
            "rstop-freeze": 1,
        }


class TestContracts:
    def test_postmortem_does_not_import_fleet(self):
        import repro.obs.postmortem as pm

        source = open(pm.__file__).read()
        assert "import repro.fleet" not in source
        assert "from repro.fleet" not in source

    def test_schema_enum_matches_incident_modes(self):
        schema = json.loads(
            (schema_root() / "campaign_report.schema.json").read_text())
        enum = schema["properties"]["incidents"]["items"][
            "properties"]["mode"]["enum"]
        assert tuple(enum) == INCIDENT_MODES
