"""Explainable inference: every fingerprint cell and crash violation
must carry provenance references that resolve to real events in the
recorded streams."""

import pytest

from repro.crash import explore
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter
from repro.obs.events import IOEvent
from repro.obs.trace import SpanStartEvent, resolve_ref

SUBSET = [WORKLOAD_BY_KEY[k] for k in "ab"]


class TestFingerprintProvenance:
    @pytest.fixture(scope="class")
    def traced_run(self):
        fp = Fingerprinter(make_ext3_adapter(), workloads=SUBSET, trace=True)
        matrix = fp.run()
        return matrix, fp.observed.by_label()

    def test_every_cell_carries_provenance(self, traced_run):
        matrix, _ = traced_run
        assert matrix.cells
        for key, obs in matrix.cells.items():
            assert obs.provenance, f"cell {key} has no provenance"

    def test_all_references_resolve(self, traced_run):
        matrix, streams = traced_run
        resolved = 0
        for obs in matrix.cells.values():
            for ref in obs.provenance:
                resolve_ref(ref, streams)
                resolved += 1
        assert resolved >= len(matrix.cells)

    def test_faulty_io_reference_points_at_the_fault(self, traced_run):
        matrix, streams = traced_run
        for key, obs in matrix.cells.items():
            io_refs = [r for r in obs.provenance if ":io" in r]
            assert io_refs, f"cell {key} lacks a faulty-io reference"
            event = resolve_ref(io_refs[0], streams)
            assert isinstance(event, IOEvent)
            assert event.outcome in ("error", "corrupted")

    def test_cell_labels_match_their_cell(self, traced_run):
        # A cell's references must point into the stream of the very
        # run that produced it: "{workload}:{fault_class}:{btype}".
        matrix, _ = traced_run
        for (fault_class, btype, workload_name), obs in matrix.cells.items():
            for ref in obs.provenance:
                label = ref.rpartition("#")[0]
                assert f":{fault_class}:" in label, (ref, fault_class)

    def test_span_references_resolve_when_traced(self, traced_run):
        matrix, streams = traced_run
        span_refs = [
            r for obs in matrix.cells.values() for r in obs.provenance
            if r.rpartition("#")[2].startswith("s")
        ]
        assert span_refs, "traced run produced no span references"
        for ref in span_refs:
            assert isinstance(resolve_ref(ref, streams), SpanStartEvent)

    def test_untraced_run_still_carries_event_provenance(self):
        fp = Fingerprinter(make_ext3_adapter(), workloads=SUBSET[:1])
        matrix = fp.run()
        for key, obs in matrix.cells.items():
            assert obs.provenance, f"cell {key} has no provenance"
            assert all("#e" in r for r in obs.provenance)


class TestCrashProvenance:
    # Only a traced exploration keeps streams and cites them; an
    # untraced one's violations are referenced by state key alone.
    @pytest.fixture(scope="class")
    def report(self):
        return explore("ext3", "creat", trace=True)

    def test_every_violation_resolves(self, report):
        assert report.violations
        streams = report.observed.by_label()
        for violation in report.violations:
            assert violation.provenance
            for ref in violation.provenance:
                resolve_ref(ref, streams)

    def test_replay_span_names_the_state(self, report):
        streams = report.observed.by_label()
        for violation in report.violations:
            span_refs = [r for r in violation.provenance
                         if r.rpartition("#")[2].startswith("s")]
            assert span_refs, f"{violation.state_key}: no replay-span ref"
            start = resolve_ref(span_refs[0], streams)
            assert start.name == f"replay:{violation.state_key}"

    def test_violation_digest_excludes_provenance(self, report):
        # as_tuple is the cross-version determinism witness: adding
        # provenance must not have widened it.
        assert all(len(v.as_tuple()) == 3 for v in report.violations)
