"""Crash-state exploration over array-backed storage.

The array must be invisible to the crash engine: the same workload on
the same file system produces the same write stream, the same
enumerated states, and the same oracle verdicts whether the blocks
land on one disk or are spread across a redundancy array — at any
``--jobs`` width (the composite snapshot crosses process boundaries
by pickling, in the task arguments)."""

from __future__ import annotations

import pickle

import pytest

from repro.crash import CRASH_PROFILES, CRASH_WORKLOADS, explore
from repro.crash.engine import record
from repro.redundancy import ArraySnapshot, make_array

_REPORTS = {}


def _report(key):
    if key not in _REPORTS:
        _REPORTS[key] = explore(key, "creat")
    return _REPORTS[key]


@pytest.mark.parametrize("profile", ["ext3@mirror2", "ext3@rdp5"])
def test_array_profiles_registered(profile):
    assert profile in CRASH_PROFILES


@pytest.mark.parametrize("profile", ["ext3@mirror2", "ext3@rdp5"])
def test_array_backed_exploration_matches_single_disk(profile):
    base = _report("ext3")
    arrayed = _report(profile)
    assert arrayed.states_explored == base.states_explored
    assert arrayed.violation_digest() == base.violation_digest()


def test_array_exploration_is_jobs_invariant():
    serial = _report("ext3@mirror2")
    fanned = explore("ext3@mirror2", "creat", jobs=2)
    assert fanned.violation_digest() == serial.violation_digest()
    assert fanned.states_explored == serial.states_explored


def test_rdp_exploration_is_jobs_invariant():
    serial = _report("ext3@rdp5")
    fanned = explore("ext3@rdp5", "creat", jobs=2)
    assert fanned.violation_digest() == serial.violation_digest()
    assert fanned.states_explored == serial.states_explored


def test_recording_golden_is_composite_snapshot():
    rec = record(CRASH_PROFILES["ext3@mirror2"], CRASH_WORKLOADS["creat"])
    assert isinstance(rec.golden, ArraySnapshot)


def test_shared_snapshot_round_trips_composite():
    array = make_array("rdp", 24, 512, members=5)
    for b in range(24):
        array.write_block(b, bytes([b + 1]) * 512)
    # Raw member-level damage must survive the pickle round trip too:
    # the snapshot is per-member, not logical.
    m, mb = array._locate(3)
    array.members[m].disk.poke(mb, b"\xa5" * 512)
    snap = array.snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert isinstance(clone, ArraySnapshot)
    assert clone == snap
    other = make_array("rdp", 24, 512, members=5)
    other.restore(clone)
    for b in range(24):
        if b != 3:
            assert other.read_block(b) == bytes([b + 1]) * 512


def test_shared_snapshot_passes_plain_slab_through():
    from repro.disk import make_disk

    disk = make_disk(16, 512)
    disk.write_block(0, b"\x42" * 512)
    snap = disk.snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert clone == snap
    fresh = make_disk(16, 512)
    fresh.restore(clone)
    assert fresh.read_block(0) == b"\x42" * 512
