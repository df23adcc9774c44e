"""Tracing must not perturb results, and traced fan-outs must merge to
byte-identical span trees and metrics at any --jobs width."""

import json

import pytest

from repro.crash import explore
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter
from repro.obs.metrics import MetricsRegistry, validate_snapshot
from repro.taxonomy import render_full_figure

SUBSET = [WORKLOAD_BY_KEY[k] for k in "ab"]


@pytest.fixture(scope="module")
def traced_serial_and_parallel():
    fp1 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET,
                        trace=True, metrics=True)
    fp4 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET,
                        trace=True, metrics=True, jobs=4)
    return fp1.run(), fp4.run(), fp1, fp4


class TestFingerprintTraceDeterminism:
    def test_span_digests_identical_across_jobs(self, traced_serial_and_parallel):
        _, _, fp1, fp4 = traced_serial_and_parallel
        assert fp1.observed.span_digest() == fp4.observed.span_digest()
        assert [part.root for part in fp1.observed.parts] == ["a", "b"]
        assert [part.span_digest() for part in fp1.observed.parts] == \
            [part.span_digest() for part in fp4.observed.parts]

    def test_merged_metrics_identical_across_jobs(self, traced_serial_and_parallel):
        _, _, fp1, fp4 = traced_serial_and_parallel
        m1, m4 = fp1.observed.metrics, fp4.observed.metrics
        assert json.dumps(m1, sort_keys=True) == json.dumps(m4, sort_keys=True)
        assert validate_snapshot(m1) == []

    def test_tracing_does_not_change_the_figure(self, traced_serial_and_parallel):
        m_traced, _, _, _ = traced_serial_and_parallel
        fp_plain = Fingerprinter(make_ext3_adapter(), workloads=SUBSET)
        m_plain = fp_plain.run()
        assert render_full_figure(m_traced) == render_full_figure(m_plain)
        for key in m_plain.cells:
            assert m_plain.cells[key].detection == m_traced.cells[key].detection
            assert m_plain.cells[key].recovery == m_traced.cells[key].recovery
        # The event digests folded per workload must also be unaffected:
        # a disabled tracer emits nothing into untraced streams, and
        # traced streams fold the same non-span events.
        assert fp_plain.workload_digest.keys() == \
            traced_serial_and_parallel[2].workload_digest.keys()

    def test_workload_metrics_merge_associatively(self, traced_serial_and_parallel):
        _, _, fp1, _ = traced_serial_and_parallel
        snaps = [part.metrics for part in fp1.observed.parts]
        assert len(snaps) == len(SUBSET)
        left = MetricsRegistry.merge_snapshots(
            [MetricsRegistry.merge_snapshots(snaps[:1]), snaps[1]]
        )
        flat = MetricsRegistry.merge_snapshots(snaps)
        assert json.dumps(left, sort_keys=True) == json.dumps(flat, sort_keys=True)


class TestCrashTraceDeterminism:
    @pytest.fixture(scope="class")
    def reports(self):
        r1 = explore("ext3", "creat", jobs=1, trace=True)
        r4 = explore("ext3", "creat", jobs=4, trace=True)
        return r1, r4

    def test_span_digests_identical_across_jobs(self, reports):
        r1, r4 = reports
        assert r1.observed.span_digest() == r4.observed.span_digest()

    def test_violation_digest_unchanged_by_tracing(self, reports):
        r1, _ = reports
        plain = explore("ext3", "creat", jobs=1)
        assert r1.violation_digest() == plain.violation_digest()

    def test_traced_run_keeps_every_state_stream(self, reports):
        r1, _ = reports
        assert r1.traced
        assert len(r1.observed.streams) == r1.states_explored
