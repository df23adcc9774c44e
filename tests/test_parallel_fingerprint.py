"""Parallel fingerprinting: the jobs=N fan-out must be byte-identical
to the serial run, and unparallelizable configurations must fail loudly
instead of silently diverging."""

import dataclasses

import pytest

from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter, make_ixt3_adapter
from repro.fingerprint.parallel import check_parallelizable
from repro.fingerprint.workloads import Workload
from repro.taxonomy import render_full_figure

SUBSET = [WORKLOAD_BY_KEY[k] for k in "abd"]


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        fp1 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET)
        fp4 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET, jobs=4)
        return fp1.run(), fp4.run(), fp1, fp4

    def test_rendered_panels_byte_identical(self, serial_and_parallel):
        m1, m2, _, _ = serial_and_parallel
        assert render_full_figure(m1) == render_full_figure(m2)

    def test_cells_and_na_sets_identical(self, serial_and_parallel):
        m1, m2, _, _ = serial_and_parallel
        assert list(m1.cells.keys()) == list(m2.cells.keys())
        assert m1.not_applicable == m2.not_applicable
        for key in m1.cells:
            assert m1.cells[key].detection == m2.cells[key].detection
            assert m1.cells[key].recovery == m2.cells[key].recovery

    def test_event_stream_deterministic_across_jobs(self, serial_and_parallel):
        """The typed event stream, not just the rendered figure, must be
        identical run to run: per-workload digests fold every ordered
        event key from the baseline and each fault run."""
        _, _, fp1, fp4 = serial_and_parallel
        assert set(fp4.workload_digest) == {w.key for w in SUBSET}
        assert fp4.workload_digest == fp1.workload_digest
        assert fp4.workload_events == fp1.workload_events
        # A digest of zero events would be vacuous determinism.
        assert all(count > 0 for count in fp1.workload_events.values())

    def test_bookkeeping_matches_serial(self):
        fp1 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET)
        fp1.run()
        fp4 = Fingerprinter(make_ext3_adapter(), workloads=SUBSET, jobs=4)
        fp4.run()
        assert fp4.tests_run == fp1.tests_run
        assert fp4.cells == fp1.cells
        assert set(fp4.workload_io) == {w.key for w in SUBSET}
        for key, io in fp4.workload_io.items():
            assert io == fp1.workload_io[key], key

    def test_ixt3_parallel_roundtrip(self):
        subset = [WORKLOAD_BY_KEY["b"], WORKLOAD_BY_KEY["d"]]
        m1 = Fingerprinter(make_ixt3_adapter(), workloads=subset).run()
        m2 = Fingerprinter(make_ixt3_adapter(), workloads=subset, jobs=2).run()
        assert render_full_figure(m1) == render_full_figure(m2)


class TestParallelGuards:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Fingerprinter(make_ext3_adapter(), jobs=0)

    def test_unregistered_adapter_rejected(self):
        adapter = dataclasses.replace(make_ext3_adapter(), registry_key=None)
        fp = Fingerprinter(adapter, workloads=SUBSET, jobs=2)
        with pytest.raises(ValueError, match="registry"):
            check_parallelizable(fp)

    def test_custom_workload_rejected(self):
        rogue = dataclasses.replace(WORKLOAD_BY_KEY["a"], name="rogue")
        fp = Fingerprinter(make_ext3_adapter(), workloads=[rogue, SUBSET[1]],
                           jobs=2)
        with pytest.raises(ValueError, match="jobs=1"):
            check_parallelizable(fp)

    def test_single_workload_stays_serial(self):
        """jobs>1 with one workload short-circuits to the serial path —
        no pool spin-up for nothing."""
        fp = Fingerprinter(make_ext3_adapter(), workloads=[WORKLOAD_BY_KEY["a"]],
                           jobs=8)
        matrix = fp.run()
        assert matrix.cells
