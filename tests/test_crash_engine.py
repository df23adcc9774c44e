"""Differential crash-recovery harness across all five file systems.

One full exploration per file system (cached per module) drives every
assertion: engine invariants, per-FS recovery quality, the ixt3
transactional-checksum claim (§6.1), and violation reproducibility
from reported state keys.
"""

from __future__ import annotations

import pytest

from repro.crash import (
    CRASH_PROFILES,
    CRASH_WORKLOADS,
    apply_state,
    check_state,
    enumerate_states,
    explore,
    record,
    state_by_key,
)

ALL_FS = sorted(CRASH_PROFILES)
ORACLES = {"mountability", "atomicity", "lost-data", "idempotence", "consistency"}
OUTCOMES = {"recovered", "degraded-ro", "panic", "unmountable"}

_REPORTS = {}


def creat_report(fs_key):
    """One full creat-workload exploration per FS, cached per module."""
    if fs_key not in _REPORTS:
        _REPORTS[fs_key] = explore(fs_key, "creat")
    return _REPORTS[fs_key]


# -- engine invariants --------------------------------------------------------


def test_recording_is_deterministic():
    a = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    b = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    assert a.writes == b.writes
    assert a.boundaries == b.boundaries
    assert a.boundary_digests == b.boundary_digests


def test_recording_shape():
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    assert rec.writes, "workload produced no recorded writes"
    # One commit barrier per workload step, strictly increasing, and
    # every barrier indexes into the write sequence.
    assert len(rec.boundaries) == len(CRASH_WORKLOADS["creat"].steps)
    assert rec.boundaries == sorted(set(rec.boundaries))
    assert all(0 < b <= len(rec.writes) for b in rec.boundaries)
    assert set(rec.protected) == set(CRASH_WORKLOADS["creat"].protected)


def test_enumeration_covers_prefixes_and_torn_states():
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    states = enumerate_states(rec)
    keys = [s.key for s in states]
    assert len(keys) == len(set(keys)), "state keys must be unique"
    prefixes = [s for s in states if s.key.startswith("prefix:")]
    torn = [s for s in states if s.key.startswith("torn:")]
    assert len(prefixes) == len(rec.writes) + 1
    assert torn, "a journaled workload must yield torn states"
    for s in torn:
        assert s.dropped is not None and s.dropped < s.end
        assert s.end in rec.boundaries


def test_max_torn_caps_enumeration():
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    capped = enumerate_states(rec, max_torn_per_epoch=1)
    torn = [s for s in capped if s.key.startswith("torn:")]
    assert len(torn) == len(rec.boundaries)


def test_max_torn_zero_keeps_prefixes_and_negative_is_rejected():
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    states = enumerate_states(rec, max_torn_per_epoch=0)
    assert [s.key for s in states] == [
        f"prefix:{i}" for i in range(len(rec.writes) + 1)]
    # Read as "no torn states", a negative cap would let a run with
    # torn-write violations report a pass.
    with pytest.raises(ValueError, match="max_torn_per_epoch"):
        enumerate_states(rec, max_torn_per_epoch=-1)


@pytest.mark.parametrize("fs_key", ALL_FS)
def test_exploration_completes_with_sane_observations(fs_key):
    rep = creat_report(fs_key)
    assert rep.states_explored > 0
    for obs in rep.observations:
        assert obs.outcome in OUTCOMES
        for v in obs.violations:
            assert v.oracle in ORACLES
            assert v.state_key == obs.key


def test_ext3_explores_at_least_fifty_states():
    assert creat_report("ext3").states_explored >= 50


# -- recovery quality ---------------------------------------------------------


@pytest.mark.parametrize("fs_key", ALL_FS)
def test_ordered_power_cuts_recover_cleanly(fs_key):
    """An in-order prefix cut hands recovery only complete transactions
    (or a cleanly truncated log); every FS must come back violation-free."""
    rep = creat_report(fs_key)
    bad = [
        v for obs in rep.observations if obs.key.startswith("prefix:")
        for v in obs.violations
    ]
    assert not bad, f"prefix states must be clean, got: {bad[:3]}"


def test_ext3_torn_journal_writes_violate_atomicity():
    """Figure 3's blind journal replay: a torn journal write makes stock
    ext3 replay stale bytes, landing between commit boundaries."""
    rep = creat_report("ext3")
    atom = [v for v in rep.violations if v.oracle == "atomicity"]
    assert atom, "stock ext3 should show torn-write atomicity violations"
    assert all(v.state_key.startswith("torn:") for v in rep.violations)


# -- the §6.1 differential claim ----------------------------------------------


def test_ixt3_txn_checksums_close_the_torn_window():
    """ixt3 with transactional checksums must pass the atomicity oracle
    on states where stock ext3 fails it: the checksum detects the torn
    transaction and refuses to replay it."""
    ext3 = creat_report("ext3")
    ixt3 = creat_report("ixt3")
    # Same workload, same journal layout: state keys line up.
    assert {o.key for o in ext3.observations} == {o.key for o in ixt3.observations}
    ext3_atomicity = {
        v.state_key for v in ext3.violations if v.oracle == "atomicity"
    }
    assert ext3_atomicity, "differential needs ext3 atomicity failures"
    ixt3_by_key = {o.key: o for o in ixt3.observations}
    rescued = [
        key for key in ext3_atomicity if not ixt3_by_key[key].violations
    ]
    assert rescued, (
        "ixt3+Tc must fully pass at least one state where ext3 "
        "violates journal atomicity"
    )


def test_ixt3_residual_violations_are_ordered_data_only():
    """Tc protects the journal, not ordered data blocks; any residual
    ixt3 violation must be a torn *data* write (the paper's scope)."""
    rep = creat_report("ixt3")
    for v in rep.violations:
        assert v.state_key.startswith("torn:")
        assert v.oracle == "atomicity"
    # Far fewer than stock ext3 — the checksum closes the journal window.
    assert len(rep.violations) < len(creat_report("ext3").violations)


# -- determinism and reproducibility ------------------------------------------


def test_state_key_reproduces_violation():
    """A reported state key must rebuild the exact failing disk image."""
    rep = creat_report("ext3")
    first = rep.violations[0]
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    obs = check_state(rec, state_by_key(rec, first.state_key))
    assert first in obs.violations


def test_state_by_key_rejects_unknown_keys():
    rec = record(CRASH_PROFILES["jfs"], CRASH_WORKLOADS["creat"])
    with pytest.raises(KeyError):
        state_by_key(rec, "torn:99:99")


def test_apply_state_is_repeatable():
    """Replaying the same key twice lands on the identical disk image —
    the golden snapshot is never mutated by earlier replays."""
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"])
    state = state_by_key(rec, "prefix:5")
    apply_state(rec, state)
    before = [bytes(rec.disk.peek(b)) for b in range(32)]
    apply_state(rec, state_by_key(rec, f"prefix:{len(rec.writes)}"))
    apply_state(rec, state)
    after = [bytes(rec.disk.peek(b)) for b in range(32)]
    assert before == after


# -- report plumbing ----------------------------------------------------------


def test_report_render_mentions_each_violation_key():
    rep = creat_report("ext3")
    text = rep.render()
    assert f"{rep.states_explored} crash states explored" in text
    for v in rep.violations:
        assert v.state_key in text


def test_violation_digest_tracks_content():
    rep_a = creat_report("ext3")
    rep_b = creat_report("ixt3")
    assert rep_a.violation_digest() != rep_b.violation_digest()
