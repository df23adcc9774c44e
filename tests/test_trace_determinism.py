"""Tracing must not perturb results: the traced runs give the same
figure, digests and verdicts as untraced ones."""

import json

import pytest

from repro.crash import explore
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter
from repro.obs.metrics import MetricsRegistry, validate_snapshot
from repro.taxonomy import render_full_figure

SUBSET = [WORKLOAD_BY_KEY[k] for k in "ab"]


@pytest.fixture(scope="module")
def traced():
    fp = Fingerprinter(make_ext3_adapter(), workloads=SUBSET,
                       trace=True, metrics=True)
    return fp.run(), fp


class TestFingerprintTraceDeterminism:
    def test_tracing_does_not_change_the_figure(self, traced):
        m_traced, fp_traced = traced
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
            fp_traced.workload_digest.keys()

    def test_workload_metrics_merge_associatively(self, traced):
        _, fp = traced
        assert [part.root for part in fp.observed.parts] == ["a", "b"]
        assert validate_snapshot(fp.observed.metrics) == []
        snaps = [part.metrics for part in fp.observed.parts]
        assert len(snaps) == len(SUBSET)
        left = MetricsRegistry.merge_snapshots(
            [MetricsRegistry.merge_snapshots(snaps[:1]), snaps[1]]
        )
        flat = MetricsRegistry.merge_snapshots(snaps)
        assert json.dumps(left, sort_keys=True) == json.dumps(flat, sort_keys=True)


class TestCrashTraceDeterminism:
    @pytest.fixture(scope="class")
    def report(self):
        return explore("ext3", "creat", trace=True)

    def test_violation_digest_unchanged_by_tracing(self, report):
        plain = explore("ext3", "creat")
        assert report.violation_digest() == plain.violation_digest()

    def test_traced_run_keeps_every_state_stream(self, report):
        assert report.traced
        assert len(report.observed.streams) == report.states_explored
