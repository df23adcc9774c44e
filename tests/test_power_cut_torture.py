"""Power-cut torture: a write-back drive may lose an arbitrary subset
of the most recent writes when power dies (§2.2's phantom writes).

The journal's crash guarantee must hold at *every* cut point:

* if the commit block is absent, the transaction must not replay;
* if the commit block made it but earlier journal copies did not
  (write-back reordering), plain ext3 replays stale bytes silently —
  while ixt3's transactional checksum detects the tear and refuses.

The scenarios run on the crash-exploration engine (``repro.crash``):
recording, state reconstruction, and oracles all come from the same
implementation the ``python -m repro crash`` command uses, so every
claim here is phrased as "state key X violates / passes oracle Y".
"""

from __future__ import annotations

import pytest

from repro.crash import (
    CRASH_PROFILES,
    CRASH_WORKLOADS,
    apply_state,
    check_state,
    enumerate_states,
    record,
    state_by_key,
    state_digest,
)
from repro.fingerprint.adapters import EXT3_FINGERPRINT_CONFIG
from repro.fs.ext3.fsck import fsck_ext3
from repro.fs.ext3.journal import parse_commit, parse_desc
from repro.fs.ixt3 import ixt3_config

EXT3_CFG = EXT3_FINGERPRINT_CONFIG
IXT3_CFG = ixt3_config(EXT3_FINGERPRINT_CONFIG)

_RECORDINGS = {}


def recording(fs_key):
    """One creat-workload recording per FS, cached per module (the
    recording is deterministic, so sharing it between tests is safe —
    each test reconstructs its own states via apply_state)."""
    if fs_key not in _RECORDINGS:
        _RECORDINGS[fs_key] = record(
            CRASH_PROFILES[fs_key], CRASH_WORKLOADS["creat"]
        )
    return _RECORDINGS[fs_key]


def journal_write_indices(rec, cfg):
    """Classify recorded journal writes: (copy indices, commit indices)."""
    jstart, jlen = cfg.journal_start, cfg.journal_blocks
    copies, commits = [], []
    for i, (block, data) in enumerate(rec.writes):
        if not jstart <= block < jstart + jlen:
            continue
        if parse_commit(data):
            commits.append(i)
        elif not parse_desc(data) and block != jstart:
            copies.append(i)
    return copies, commits


def torn_states_dropping(rec, indices):
    """The enumerated torn states whose lost write is one of *indices*."""
    wanted = set(indices)
    return [
        s for s in enumerate_states(rec)
        if s.dropped is not None and s.dropped in wanted
    ]


class TestExt3CutPoints:
    def test_every_clean_suffix_cut_is_consistent(self):
        """Losing any *suffix* of the in-order write stream (no
        reordering) always yields a consistent volume: either the txn
        replays fully or not at all.  Engine phrasing: every prefix
        state passes every oracle."""
        rec = recording("ext3")
        for state in enumerate_states(rec):
            if not state.key.startswith("prefix:"):
                continue
            obs = check_state(rec, state)
            assert not obs.violations, f"{state.key}: {obs.violations}"

    def test_lost_commit_block_means_no_replay(self):
        """Cutting just before an epoch's commit block lands on the
        *previous* epoch's boundary: the half-written transaction must
        not replay."""
        rec = recording("ext3")
        _, commits = journal_write_indices(rec, EXT3_CFG)
        assert commits, "the creat workload must write commit blocks"
        first_commit = commits[0]
        assert first_commit + 1 in rec.boundaries  # commit ends the epoch
        apply_state(rec, state_by_key(rec, f"prefix:{first_commit}"))
        fs = rec.adapter.make_fs(rec.disk)
        fs.mount()
        digest = state_digest(fs, rec.profile.ext3_family)
        # The recovered state is the epoch-0 boundary (= golden state).
        assert rec.boundary_digests[digest] == 0
        assert not fs.exists("/f0")  # step-1 transaction did not replay
        assert fs.read_file("/base") == rec.protected["/base"]
        fs.unmount()

    def test_reordered_loss_corrupts_plain_ext3(self):
        """Commit survived, one journaled copy did not: ext3 replays the
        stale pre-image with no idea anything is wrong — the engine's
        oracles report it, the syslog stays silent."""
        rec = recording("ext3")
        copies, _ = journal_write_indices(rec, EXT3_CFG)
        assert copies
        torn = torn_states_dropping(rec, copies)
        assert torn, "every journal copy must have a torn state"
        flagged = []
        for state in torn:
            obs = check_state(rec, state)
            if obs.violations:
                flagged.append(state.key)
            # Blind replay: ext3 has no checksum to notice the tear.
            apply_state(rec, state)
            fs = rec.adapter.make_fs(rec.disk)
            try:
                fs.mount()
            except Exception:
                continue
            assert not fs.syslog.has_event("txn-checksum-mismatch")
        assert flagged, "some torn journal-copy state must violate an oracle"


class TestIxt3TcCutPoints:
    def test_reordered_loss_detected_by_tc(self):
        """The transactional checksum catches the torn transaction and
        refuses to replay it; recovery lands on a commit boundary."""
        rec = recording("ixt3")
        copies, _ = journal_write_indices(rec, IXT3_CFG)
        assert copies
        state = torn_states_dropping(rec, copies)[0]
        obs = check_state(rec, state)
        assert not obs.violations, f"{state.key}: {obs.violations}"
        apply_state(rec, state)
        fs = rec.adapter.make_fs(rec.disk)
        fs.mount()
        assert fs.syslog.has_event("txn-checksum-mismatch")
        assert fs.read_file("/base") == rec.protected["/base"]
        fs.unmount()
        assert fsck_ext3(rec.disk).clean

    def test_every_single_copy_loss_detected(self):
        """No torn journal write slips past Tc, whichever copy is lost."""
        rec = recording("ixt3")
        copies, _ = journal_write_indices(rec, IXT3_CFG)
        for state in torn_states_dropping(rec, copies):
            obs = check_state(rec, state)
            assert not obs.violations, f"{state.key}: {obs.violations}"
            apply_state(rec, state)
            fs = rec.adapter.make_fs(rec.disk)
            fs.mount()
            assert fs.syslog.has_event("txn-checksum-mismatch"), state.key
            fs.unmount()

    def test_complete_transaction_still_replays(self):
        """Tc must not cost anything when nothing tore: the full write
        stream recovers to the final boundary with all three steps."""
        rec = recording("ixt3")
        full = state_by_key(rec, f"prefix:{len(rec.writes)}")
        obs = check_state(rec, full)
        assert not obs.violations
        apply_state(rec, full)
        fs = rec.adapter.make_fs(rec.disk)
        fs.mount()
        assert rec.boundary_digests[
            state_digest(fs, rec.profile.ext3_family)
        ] == len(rec.writes)
        assert fs.read_file("/newdir/f") == b"committed payload\n" * 4
        fs.unmount()

    def test_differential_same_cut_ext3_fails_ixt3_passes(self):
        """The head-to-head §6.1 claim at matching cut points: a torn
        journal copy that breaks stock ext3 is harmless under Tc."""
        ext3_rec = recording("ext3")
        ixt3_rec = recording("ixt3")
        ext3_copies, _ = journal_write_indices(ext3_rec, EXT3_CFG)
        broken = [
            s.key for s in torn_states_dropping(ext3_rec, ext3_copies)
            if check_state(ext3_rec, s).violations
        ]
        assert broken
        ixt3_keys = {s.key for s in enumerate_states(ixt3_rec)}
        rescued = [
            key for key in broken
            if key in ixt3_keys
            and not check_state(ixt3_rec, state_by_key(ixt3_rec, key)).violations
        ]
        assert rescued, "ixt3+Tc must pass cut points that break ext3"
