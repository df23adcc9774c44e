"""Event digests and one-pass run observations, against references.

The digests ``fold_digest`` and ``EventLog.digest()`` take each event's
bytes from :func:`repro.obs.events.event_bytes` — looked up for an
interned ``IOEvent``, whose bytes ``io_event`` computed once — and hash
a run with one ``update``.  ``RunObservation`` counts everything
inference reads in one pass at construction.  This file holds both to
references kept here: the per-event fold (``repr`` of a key built
straight from ``dataclasses.fields``, one ``update`` per event), and the
scans and ``Counter`` diff inference used before.

Hand mutations these tests catch (each tried on a copy of the tree):

* ``io_event`` caching bytes of its lookup tuple ``(op, block, outcome,
  block_type)`` instead of the event's ``key()`` (the ``"io"`` kind goes
  missing);
* ``fold_digest`` dropping the run label, or its NUL framing;
* ``io_event`` clearing the intern table but not the bytes table (a
  recycled ``id`` then reads another event's bytes);
* ``key()`` built without ``kind``, or in another field order;
* ``Severity.__repr__`` returning the member name;
* ``RunObservation`` counting typed writes as reads in ``type_reads``,
  keying ``requests`` on the block alone, or counting a detection
  mechanism under recoveries;
* ``_new_counts`` keeping keys whose count merely equals the baseline's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs.events as events_mod
from repro.fingerprint.inference import RunObservation, _new_counts
from repro.obs.events import (
    ArrayDetectionEvent, ArrayPolicyEvent, ArrayRecoveryEvent,
    DetectionEvent, EventLog, FaultArmedEvent, FleetClockEvent,
    FleetTrialEvent, IOEvent, JournalCommitEvent, LogEvent,
    PolicyActionEvent, RecoveryEvent, Severity, StorageEvent,
    WriteImageEvent, classify_log, event_bytes, fold_digest, io_event,
)
from repro.obs.trace import SpanEndEvent, SpanStartEvent


# -- references ------------------------------------------------------------------


def reference_key(event):
    return (event.kind,) + tuple(
        getattr(event, f.name) for f in dataclasses.fields(event))


def reference_fold(hasher, label, events) -> None:
    hasher.update(("\x00run:" + label + "\x00").encode())
    for event in events:
        hasher.update(repr(reference_key(event)).encode())


def reference_digest(events) -> str:
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(repr(reference_key(event)).encode())
    return hasher.hexdigest()


def reference_counter_diff(observed, baseline) -> Counter:
    diff = Counter(observed)
    diff.subtract(baseline)
    return Counter({k: n for k, n in diff.items() if n > 0})


# -- streams ----------------------------------------------------------------------

small = st.integers(0, 40)
maybe_block = st.none() | small
text = st.sampled_from(["", "ext3", "bad inode", "ntfs", "x\x00y", "é"])
severity = st.sampled_from(list(Severity))
io_fields = st.tuples(
    st.sampled_from(["read", "write"]), small,
    st.sampled_from(["ok", "error", "corrupted", "dropped"]),
    st.sampled_from([None, "inode", "data", "replica"]))
log_fields = st.tuples(severity, text, st.sampled_from(
    ["sanity-fail", "read-retry", "remount-ro", "remap", "chatter"]),
    text, maybe_block)
mechanism = st.sampled_from(["error-code", "sanity", "redundancy", "retry",
                             "remap"])

#: One strategy per concrete event class (plus the interned IOEvent).
EVENT_STRATEGIES = {
    "interned-io": io_fields.map(lambda f: io_event(*f)),
    IOEvent: io_fields.map(lambda f: IOEvent(*f)),
    FaultArmedEvent: st.builds(
        FaultArmedEvent, st.sampled_from(["read", "write"]),
        st.sampled_from(["fail", "corrupt"]), maybe_block,
        st.none() | text),
    WriteImageEvent: st.builds(WriteImageEvent, small,
                               st.binary(max_size=64)),
    JournalCommitEvent: st.builds(JournalCommitEvent, text, small),
    LogEvent: log_fields.map(lambda f: LogEvent(*f)),
    DetectionEvent: st.builds(lambda f, m: DetectionEvent(*f, mechanism=m),
                              log_fields, mechanism),
    RecoveryEvent: st.builds(lambda f, m: RecoveryEvent(*f, mechanism=m),
                             log_fields, mechanism),
    PolicyActionEvent: log_fields.map(lambda f: PolicyActionEvent(*f)),
    ArrayDetectionEvent: st.builds(
        lambda f, m: ArrayDetectionEvent(*f, mechanism="redundancy", member=m),
        log_fields, st.none() | small),
    ArrayRecoveryEvent: st.builds(
        lambda f, m: ArrayRecoveryEvent(*f, member=m),
        log_fields, st.none() | small),
    ArrayPolicyEvent: st.builds(lambda f, m: ArrayPolicyEvent(*f, member=m),
                                log_fields, st.none() | small),
    FleetClockEvent: st.builds(
        lambda f, t, m: FleetClockEvent(*f, t_hours=t, member=m),
        log_fields, st.floats(0, 1e5, allow_nan=False), st.none() | small),
    FleetTrialEvent: st.builds(
        FleetTrialEvent, text, text, small,
        st.sampled_from(["survived", "detected-loss", "silent-loss"]),
        st.none() | st.floats(0, 1e5, allow_nan=False),
        st.floats(0, 1e5, allow_nan=False)),
    SpanStartEvent: st.builds(SpanStartEvent, small, st.none() | small,
                              text, text, text, text),
    SpanEndEvent: st.builds(SpanEndEvent, small,
                            st.sampled_from(["ok", "error"])),
    "classified": log_fields.map(lambda f: classify_log(*f)),
}

event = st.one_of(*EVENT_STRATEGIES.values())
stream = st.lists(event, max_size=40)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_streams_cover_every_event_class():
    concrete = {cls for cls in _subclasses(StorageEvent)
                if cls.__module__.startswith("repro.")}
    assert concrete == {k for k in EVENT_STRATEGIES if isinstance(k, type)}


def _assert_bytes_table_tracks_intern_table():
    interned = events_mod._IO_EVENTS.values()
    table = events_mod._IO_EVENT_BYTES
    assert set(table) == {id(e) for e in interned}
    for e in interned:
        assert table[id(e)] == repr(reference_key(e)).encode()


# -- digests ------------------------------------------------------------------------


class TestDigests:
    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(text, stream), max_size=4))
    def test_fold_matches_the_per_event_fold(self, runs):
        mine, ref = hashlib.sha256(), hashlib.sha256()
        for label, events in runs:
            fold_digest(mine, label, events)
            reference_fold(ref, label, events)
        assert mine.hexdigest() == ref.hexdigest()

    @settings(max_examples=200, deadline=None)
    @given(events=stream, ring=st.none() | st.integers(1, 12))
    def test_log_digest_matches_the_per_event_digest(self, events, ring):
        log = EventLog(max_events=ring)
        log.emit_many(events)
        kept = events if ring is None else events[-ring:]
        assert log.digest() == reference_digest(kept)
        assert log.key_sequence() == [reference_key(e) for e in kept]

    @settings(max_examples=100, deadline=None)
    @given(before=st.lists(io_fields, max_size=20),
           after=st.lists(io_fields, max_size=20), others=stream)
    def test_intern_table_cleared_mid_stream(self, before, after, others):
        with pytest.MonkeyPatch.context() as mp:
            # Fresh tables keep the bookkeeping check small; the bound of
            # two clears them again and again as the stream grows.
            mp.setattr(events_mod, "_IO_EVENTS", {})
            mp.setattr(events_mod, "_IO_EVENT_BYTES", {})
            mp.setattr(events_mod, "IO_EVENT_CACHE_MAX", 2)
            events = [io_event(*f) for f in before] + others
            _assert_bytes_table_tracks_intern_table()
            events += [io_event(*f) for f in after]
            _assert_bytes_table_tracks_intern_table()
        mine, ref = hashlib.sha256(), hashlib.sha256()
        fold_digest(mine, "run", events)
        reference_fold(ref, "run", events)
        assert mine.hexdigest() == ref.hexdigest()
        log = EventLog(events)
        assert log.digest() == reference_digest(events)

    def test_one_update_per_run_is_one_per_event(self):
        events = [io_event("read", 1, "ok", "inode"),
                  DetectionEvent(Severity.ERROR, "ext3", "sanity-fail",
                                 "bad", 1, mechanism="sanity")]
        joined = hashlib.sha256()
        fold_digest(joined, "a:baseline", events)
        framed = b"\x00run:a:baseline\x00" + b"".join(
            repr(reference_key(e)).encode() for e in events)
        assert joined.digest() == hashlib.sha256(framed).digest()
        assert [event_bytes(e) for e in events] == [
            b"('io', 'read', 1, 'ok', 'inode')",
            b"('detection', <Severity.ERROR: 3>, 'ext3', 'sanity-fail', "
            b"'bad', 1, 'sanity')"]

    def test_severity_repr_is_the_enum_format(self):
        for s in Severity:
            assert repr(s) == f"<Severity.{s.name}: {int(s)}>"


# -- the event values themselves ------------------------------------------------------


class TestIOEventValue:
    @settings(max_examples=100, deadline=None)
    @given(fields=io_fields)
    def test_interned_event_is_the_plain_value(self, fields):
        interned, fresh = io_event(*fields), IOEvent(*fields)
        assert interned == fresh and hash(interned) == hash(fresh)
        assert repr(interned) == repr(fresh)
        assert interned.key() == fresh.key() == ("io",) + fields
        assert vars(interned) == vars(fresh)
        assert pickle.dumps(interned) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(interned))
        assert back == interned and type(back) is IOEvent
        assert event_bytes(back) == event_bytes(interned) == \
            repr(("io",) + fields).encode()

    def test_fields_repr_and_key_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(IOEvent)] == [
            "op", "block", "outcome", "block_type"]
        e = io_event("write", 9, "error", "inode")
        assert repr(e) == ("IOEvent(op='write', block=9, outcome='error', "
                           "block_type='inode')")
        assert e.key() == ("io", "write", 9, "error", "inode")
        assert StorageEvent().key() == ("event",)


# -- one-pass observations -----------------------------------------------------------

run_item = event | st.sampled_from(["read-retry", "remount-ro", "chatter"])


class TestRunObservation:
    @settings(max_examples=200, deadline=None)
    @given(items=st.lists(run_item, max_size=40),
           traced=st.lists(io_fields, max_size=10))
    def test_counts_match_the_scans_they_replace(self, items, traced):
        stream = list(items) + [io_event(*f) for f in traced]
        obs = RunObservation(results=[], events=stream)
        typed = obs.typed_events
        io = [e for e in typed if isinstance(e, IOEvent)]
        logs = [e for e in typed if isinstance(e, LogEvent)]
        assert obs.io_events == io
        assert obs.log_tags == Counter(e.tag for e in logs)
        assert obs.detection_mechanisms == Counter(
            e.mechanism for e in logs if isinstance(e, DetectionEvent))
        assert obs.recovery_mechanisms == Counter(
            e.mechanism for e in logs if isinstance(e, RecoveryEvent))
        assert obs.policy_actions == Counter(
            e.action for e in logs if isinstance(e, PolicyActionEvent))
        type_reads = {}
        for e in io:
            if e.is_read() and e.block_type:
                type_reads[e.block_type] = type_reads.get(e.block_type, 0) + 1
        assert obs.type_reads == type_reads
        for op in ("read", "write"):
            for block in {e.block for e in io} | {41}:
                assert obs.requests.get((op, block), 0) == sum(
                    1 for e in io if e.op == op and e.block == block)

    @settings(max_examples=300, deadline=None)
    @given(observed=st.dictionaries(st.sampled_from("abcdef"),
                                    st.integers(1, 4)),
           baseline=st.dictionaries(st.sampled_from("abcdef"),
                                    st.integers(1, 4)))
    def test_new_counts_is_counter_subtraction(self, observed, baseline):
        assert _new_counts(observed, baseline) == \
            reference_counter_diff(Counter(observed), Counter(baseline))
