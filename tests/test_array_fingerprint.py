"""The array fingerprint matrix: member-fault scenarios classified
into IRON D_*/R_* levels from typed events, and the adapter registry
wiring that mounts file systems on arrays."""

from __future__ import annotations

import pytest

from repro.fingerprint.adapters import ADAPTERS, make_array_adapter
from repro.redundancy.array import ArrayDevice
from repro.redundancy.fingerprint import (
    ARRAY_GEOMETRIES,
    ARRAY_SCENARIOS,
    WORKLOAD,
    run_array_fingerprint,
)
from repro.taxonomy.detection import Detection
from repro.taxonomy.recovery import Recovery


@pytest.fixture(scope="module")
def fingerprint():
    return run_array_fingerprint()


def _cell(fingerprint, label, scenario):
    fault_class = dict(ARRAY_SCENARIOS)[scenario]
    matrix = fingerprint.matrices[label]
    obs = matrix.get(fault_class, scenario, WORKLOAD)
    assert obs is not None, (label, scenario)
    return obs


def test_every_cell_is_populated(fingerprint):
    assert sorted(fingerprint.matrices) == sorted(
        label for label, _, _ in ARRAY_GEOMETRIES)
    for label, _, _ in ARRAY_GEOMETRIES:
        for scenario, _ in ARRAY_SCENARIOS:
            _cell(fingerprint, label, scenario)


def test_single_lse_recovers_via_redundancy_everywhere(fingerprint):
    for label, _, _ in ARRAY_GEOMETRIES:
        obs = _cell(fingerprint, label, "member-lse")
        assert Recovery.REDUNDANCY in obs.recovery, label
        assert Detection.ERROR_CODE in obs.detection, label
        assert Recovery.PROPAGATE not in obs.recovery, label


def test_double_lse_separates_single_from_double_redundancy(fingerprint):
    # Single-redundancy geometries lose the block and propagate EIO;
    # double-redundancy (3-way mirror, RDP) still reconstruct.
    for label in ("mirror2", "parity4"):
        obs = _cell(fingerprint, label, "member-lse-x2")
        assert Recovery.PROPAGATE in obs.recovery, label
    for label in ("mirror3", "rdp5"):
        obs = _cell(fingerprint, label, "member-lse-x2")
        assert Recovery.REDUNDANCY in obs.recovery, label
        assert Recovery.PROPAGATE not in obs.recovery, label


def test_failstop_rebuild_with_peer_lse_needs_double_parity(fingerprint):
    obs = _cell(fingerprint, "rdp5", "member-failstop")
    assert Recovery.REDUNDANCY in obs.recovery
    assert Recovery.PROPAGATE not in obs.recovery
    for label in ("mirror2", "parity4"):
        obs = _cell(fingerprint, label, "member-failstop")
        assert Recovery.REDUNDANCY in obs.recovery, label


def test_silent_corruption_detected_by_scrub_redundancy(fingerprint):
    for label, _, _ in ARRAY_GEOMETRIES:
        obs = _cell(fingerprint, label, "member-corrupt")
        assert Detection.REDUNDANCY in obs.detection, label


def test_label_subset_and_validation():
    fp = run_array_fingerprint(labels=["rdp5"])
    assert sorted(fp.matrices) == ["rdp5"]
    with pytest.raises(ValueError):
        run_array_fingerprint(labels=["raid0"])


class TestArrayAdapters:
    def test_registry_has_array_variants(self):
        for base in ("ext3", "reiserfs", "jfs", "ntfs", "ixt3"):
            for spec in ("mirror2", "parity4", "rdp5"):
                assert f"{base}@{spec}" in ADAPTERS

    def test_adapter_builds_working_array_volume(self):
        adapter = make_array_adapter(base="ext3", geometry="mirror", members=2)
        device = adapter.build_device()
        assert isinstance(device, ArrayDevice)
        adapter.mkfs(device)
        fs = adapter.make_fs(device)
        fs.mount()
        fs.write_file("/f", b"on an array")
        assert fs.read_file("/f") == b"on an array"
        fs.unmount()

    def test_array_device_matches_base_geometry(self):
        base = ADAPTERS["ext3"]().build_device()
        array = ADAPTERS["ext3@rdp5"]().build_device()
        assert array.num_blocks == base.num_blocks
        assert array.block_size == base.block_size
