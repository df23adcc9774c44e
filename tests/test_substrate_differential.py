"""Differential test: the zero-copy slab substrate vs the pre-slab
reference disk, under the full ext3 fingerprinting matrix.

The slab substrate (CoW images, O(1) snapshot/restore, shared base
slabs) exists purely for speed; it must not change a single observable.
This suite runs the complete ext3 fault-injection matrix on both
substrates and asserts identical policy observations, identical
per-workload event digests, and identical raw-device accounting.
"""

from __future__ import annotations

import pytest

import repro.fingerprint.adapters as adapters_mod
from legacy_disk import make_legacy_disk
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import ADAPTERS
from repro.taxonomy import render_full_figure


def _run_matrix():
    fp = Fingerprinter(ADAPTERS["ext3"]())
    matrix = fp.run()
    return fp, matrix


@pytest.fixture(scope="module")
def both_runs(request):
    slab_fp, slab_matrix = _run_matrix()
    # Redirect the adapter's device factory at the legacy reference
    # implementation and run the identical matrix again.
    original = adapters_mod.make_disk
    adapters_mod.make_disk = (
        lambda num_blocks, block_size=4096, **t:
            make_legacy_disk(num_blocks, block_size, **t)
    )
    try:
        legacy_fp, legacy_matrix = _run_matrix()
    finally:
        adapters_mod.make_disk = original
    return slab_fp, slab_matrix, legacy_fp, legacy_matrix


def test_policy_observations_identical(both_runs):
    slab_fp, slab_matrix, legacy_fp, legacy_matrix = both_runs
    assert render_full_figure(slab_matrix) == render_full_figure(legacy_matrix)
    assert slab_matrix.cells == legacy_matrix.cells
    assert slab_fp.tests_run == legacy_fp.tests_run
    assert slab_fp.cells == legacy_fp.cells


def test_event_digests_identical(both_runs):
    slab_fp, _, legacy_fp, _ = both_runs
    assert slab_fp.workload_digest  # non-empty: digests were recorded
    assert slab_fp.workload_digest == legacy_fp.workload_digest


def test_device_accounting_identical(both_runs):
    slab_fp, _, legacy_fp, _ = both_runs
    assert set(slab_fp.workload_io) == set(legacy_fp.workload_io)
    for key, io in slab_fp.workload_io.items():
        assert io == legacy_fp.workload_io[key], key
