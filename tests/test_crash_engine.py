"""Differential crash-recovery harness across all five file systems.

One full exploration per file system (cached per module) drives every
assertion: engine invariants, per-FS recovery quality, the ixt3
transactional-checksum claim (§6.1), and violation reproducibility
from reported state keys.
"""

from __future__ import annotations

import gc

import pytest

from repro.crash import (
    CRASH_PROFILES,
    CRASH_WORKLOADS,
    apply_state,
    check_state,
    crash_profile,
    enumerate_states,
    explore,
    record,
    state_by_key,
)
from repro.obs.trace import SpanEndEvent, SpanStartEvent, resolve_ref

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


# -- tracing only when asked --------------------------------------------------


def test_untraced_exploration_emits_no_spans_and_keeps_no_stream(monkeypatch):
    """Every state's first-mount stream is collected as ``apply_state``
    hands it over; none may gain a tracer or a span event."""
    import repro.crash.engine as engine

    streams = []
    real_apply = engine.apply_state

    def spying_apply(rec, state):
        real_apply(rec, state)
        streams.append(rec.disk.events)

    monkeypatch.setattr(engine, "apply_state", spying_apply)
    report = explore("ext3", "creat")
    states = report.states_explored
    assert len(streams) >= states and report.violations
    for stream in streams:
        assert stream.tracer is None
        assert not stream.of_type(SpanStartEvent)
        assert not stream.of_type(SpanEndEvent)
    assert all(obs.trace == () for obs in report.observations)
    assert all(v.provenance == () for v in report.violations)
    assert not report.observed.streams


@pytest.mark.parametrize("fs_key", ALL_FS)
def test_untraced_exploration_leaves_no_cyclic_garbage(fs_key):
    """Every file system a state mounts, and the disk under it, is
    freed by reference counting: none waits for the cycle collector
    (a mounted FS's journal, tree and stores hold it weakly)."""
    gc.collect()
    gc.disable()
    try:
        explore(fs_key, "creat")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fs_key", ALL_FS)
def test_traced_and_untraced_runs_find_the_same_violations(fs_key):
    for workload in CRASH_WORKLOADS:
        untraced = explore(fs_key, workload)
        traced = explore(fs_key, workload, trace=True)
        assert traced.violation_digest() == untraced.violation_digest(), (
            f"{fs_key}/{workload}")


def test_a_violation_key_replays_traced_with_resolving_provenance():
    """The untraced report's state key is the reference: re-run on a
    traced recording, the state convicts again and cites its own
    ``replay:<key>`` span."""
    rep = creat_report("ext3")
    rec = record(CRASH_PROFILES["ext3"], CRASH_WORKLOADS["creat"], trace=True)
    for key in dict.fromkeys(v.state_key for v in rep.violations):
        obs = check_state(rec, state_by_key(rec, key))
        expected = [v.as_tuple() for v in rep.violations if v.state_key == key]
        assert [v.as_tuple() for v in obs.violations] == expected
        streams = {key: obs.trace}
        for violation in obs.violations:
            start = resolve_ref(violation.provenance[0], streams)
            assert start.name == f"replay:{key}"
            for ref in violation.provenance[1:]:
                resolve_ref(ref, streams)


# -- pinned traced runs -------------------------------------------------------

#: ``explore(profile, "creat", trace=True).observed.span_digest()`` for
#: every named profile, captured before crash states were chained off
#: one another and before block-type maps were built on first use.  Both
#: changes are host-only, so every span a state's recovery opens must
#: come out the same.  Leave these literals unedited.
PINNED_SPAN_DIGESTS = {
    "ext3": "cc18b674002f587284600e0c3e07f4f17a3707649ff635662840a6fb20ba1325",
    "ixt3": "aa167bdd50eb9787efad1e496606d54c600d7e3fad302f05b88a8439c5d8353f",
    "reiserfs": "48665f14b3bc228581e9b697e0be2b16bb38882510535d96860556036ba53737",
    "jfs": "364892970cddc1b32079c4b51e6c20f5a0e3152d0fafd60e6b796a03ce4dcf17",
    "ntfs": "2f1e4b8808257cc20834b5480d81ede53c347f2aa0fa6b4e2ed4ed5a368b3f13",
    "ext3@mirror2":
        "6679f92fd516145337606b9798b19530b4065f8f0f39c7a5443fb2ab9f294a4f",
    "ext3@rdp5":
        "ed9e2a616136da8505948fec4e1fdbdc59ea380ace2eb4a414692a590c231541",
}


def test_every_named_profile_is_pinned():
    assert sorted(PINNED_SPAN_DIGESTS) == ALL_FS


@pytest.mark.parametrize("fs_key", sorted(PINNED_SPAN_DIGESTS))
def test_traced_span_tree_digest_is_pinned(fs_key):
    report = explore(fs_key, "creat", trace=True)
    assert report.observed.span_digest() == PINNED_SPAN_DIGESTS[fs_key]


# -- chained state construction -----------------------------------------------


def _delta_tree(device):
    """Everything a poke changes, in a comparable form: each dirty
    delta's items in insertion order, its dirty count and bitmap — the logical
    one and every member disk's for an array — plus the array's
    suspect and stale sets."""
    own = (list(device._delta.items()), device.dirty_count,
           bytes(device._dirty))
    members = getattr(device, "members", None)
    if members is None:
        return own
    return (own, [_delta_tree(member.disk) for member in members],
            sorted(device._suspect), sorted(device._stale))


def _from_golden(rec, state):
    """*state* rebuilt the unchained way: golden plus every poke."""
    rec.disk.restore(rec.golden)
    for i in range(state.end):
        if i != state.dropped:
            rec.disk.poke(*rec.writes[i])
    return _delta_tree(rec.disk)


@pytest.mark.parametrize("fs_key", ALL_FS)
def test_chained_states_equal_a_rebuild_from_golden(fs_key):
    """Every state of every workload, in exploration order with each
    state's recovery run in between (recovery writes on top of the
    installed delta, never into a capture)."""
    for workload in CRASH_WORKLOADS.values():
        rec = record(CRASH_PROFILES[fs_key], workload)
        for state in enumerate_states(rec):
            apply_state(rec, state)
            chained = _delta_tree(rec.disk)
            assert chained == _from_golden(rec, state), (
                f"{fs_key}/{workload.key} {state.key}")
            check_state(rec, state)


def test_an_array_capture_carries_the_suspect_set():
    """A poke clears the suspect mark of the cells it rewrites, so an
    install over a golden with suspects must put the smaller set back."""
    from repro.redundancy.array import make_array

    array = make_array("parity", 16, 512, members=4)
    for b in range(16):
        array.write_block(b, bytes([b + 1]) * 512)
    cell = array._locate(5)
    array._suspect.add(cell)
    golden = array.snapshot()
    array.restore(golden)
    array.poke(5, bytes(512))
    captured, after = array.capture_delta(), _delta_tree(array)
    array.restore(golden)
    assert cell in array._suspect
    array.install_delta(captured)
    assert _delta_tree(array) == after


@pytest.mark.parametrize("fs_key", ["ext3", "ext3@rdp5"])
def test_late_states_rebuild_on_a_fresh_recording(fs_key):
    for clear in (False, True):
        rec = record(CRASH_PROFILES[fs_key], CRASH_WORKLOADS["creat"])
        if clear:
            rec.captures.clear()  # nothing to chain from: golden + pokes
        states = enumerate_states(rec)
        late = [next(s for s in reversed(states) if s.key.startswith(kind))
                for kind in ("prefix:", "torn:")]
        for state in late:
            apply_state(rec, state_by_key(rec, state.key))
            chained = _delta_tree(rec.disk)
            assert chained == _from_golden(rec, state), state.key


# -- the profile family -------------------------------------------------------


def test_named_profiles_are_members_of_the_family():
    for key, named in CRASH_PROFILES.items():
        assert crash_profile(key) is named
    twin = crash_profile("ixt3+Tc")
    assert (twin.registry_key, twin.registry_kwargs, twin.ext3_family) == (
        "ixt3", CRASH_PROFILES["ixt3"].registry_kwargs, True)
    assert crash_profile("ixt3@rdp5") == crash_profile("ixt3+Tc@rdp5")
    assert crash_profile("ext3@parity4").registry_key == "ext3@parity4"


def test_every_table6_variant_and_its_array_twins_resolve():
    from repro.bench.paperdata import VARIANT_ORDER
    from repro.fs.ixt3.mkfs import features_mask

    keys = set()
    for features in VARIANT_ORDER:
        for at in ("", "@mirror2", "@parity4", "@rdp5"):
            spelled = "ixt3+" + ("+".join(reversed(features)) or "none") + at
            profile = crash_profile(spelled)
            assert profile.registry_key == "ixt3" + at
            assert profile.registry_kwargs == {"features": features_mask(features)}
            assert crash_profile(profile.key) == profile
            keys.add(profile.key)
    assert len(keys) == 32 * 4


@pytest.mark.parametrize("key", [
    "ext4", "ext3+Mc", "ixt3+Zz", "ixt3+Mc+Mc", "ixt3+", "ixt3+none+Mc",
    "ext3@raid0", "ixt3@", "reiserfs+none"])
def test_unknown_profiles_raise(key):
    with pytest.raises(KeyError):
        crash_profile(key)


def test_a_family_member_explores_like_its_named_twin():
    named = creat_report("ixt3")
    spelled = explore("ixt3+Tc", "creat")
    assert spelled.profile == "ixt3+Tc"
    assert spelled.violation_digest() == named.violation_digest()
