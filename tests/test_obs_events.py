"""The typed storage-event pipeline: tag classification, EventLog
semantics, digests, and the SysLog rendering view's compatibility with
the historical string-based interface."""

from __future__ import annotations

import hashlib
import pickle

from repro.common.syslog import SysLog
from repro.obs.events import (
    DETECTION_MECHANISMS,
    POLICY_ACTION_TAGS,
    RECOVERY_MECHANISMS,
    DetectionEvent,
    EventLog,
    FaultArmedEvent,
    IOEvent,
    JournalCommitEvent,
    LogEvent,
    PolicyActionEvent,
    RecoveryEvent,
    Severity,
    classify_log,
    fold_digest,
)


class TestClassification:
    def test_detection_tags(self):
        for tag, mechanism in DETECTION_MECHANISMS.items():
            e = classify_log(Severity.ERROR, "ext3", tag, "boom", block=7)
            assert isinstance(e, DetectionEvent)
            assert e.kind == "detection"
            assert e.mechanism == mechanism

    def test_recovery_tags(self):
        for tag, mechanism in RECOVERY_MECHANISMS.items():
            e = classify_log(Severity.INFO, "jfs", tag, "again")
            assert isinstance(e, RecoveryEvent)
            assert e.mechanism == mechanism

    def test_policy_action_tags(self):
        for tag in POLICY_ACTION_TAGS:
            e = classify_log(Severity.ERROR, "ntfs", tag, "act")
            assert isinstance(e, PolicyActionEvent)
            assert e.action == tag

    def test_unknown_tag_stays_plain_log(self):
        e = classify_log(Severity.DEBUG, "x", "something-new", "?")
        assert type(e) is LogEvent
        assert e.kind == "log"

    def test_classification_tables_are_disjoint(self):
        det, rec = set(DETECTION_MECHANISMS), set(RECOVERY_MECHANISMS)
        assert not det & rec
        assert not det & POLICY_ACTION_TAGS
        assert not rec & POLICY_ACTION_TAGS


class TestEventSemantics:
    def test_keys_are_stable_content_tuples(self):
        a = IOEvent("read", 5, "ok", "inode")
        b = IOEvent("read", 5, "ok", "inode")
        assert a.key() == b.key() == ("io", "read", 5, "ok", "inode")
        assert a.key() != IOEvent("read", 5, "error", "inode").key()

    def test_kinds_distinguish_log_subclasses(self):
        d = DetectionEvent(Severity.ERROR, "s", "read-error", "m", mechanism="error-code")
        r = RecoveryEvent(Severity.INFO, "s", "read-retry", "m", mechanism="retry")
        assert d.key()[0] == "detection" and r.key()[0] == "recovery"

    def test_events_pickle_roundtrip(self):
        events = [
            IOEvent("write", 1, "ok"),
            FaultArmedEvent("read", "fail", block=3),
            JournalCommitEvent("ext3", ops=4),
            classify_log(Severity.ERROR, "ext3", "sanity-fail", "bad inode", 9),
        ]
        back = pickle.loads(pickle.dumps(events))
        assert [e.key() for e in back] == [e.key() for e in events]


class TestEventLog:
    def test_empty_log_is_truthy(self):
        """EventLog is sized, and an empty shared stream must never be
        mistaken for an absent one by `or`-style defaulting."""
        log = EventLog()
        assert len(log) == 0
        assert bool(log)

    def test_ordered_iteration_and_filters(self):
        log = EventLog()
        io = log.emit(IOEvent("read", 1, "ok"))
        det = log.emit(DetectionEvent(Severity.ERROR, "s", "read-error", "m",
                                      mechanism="error-code"))
        commit = log.emit(JournalCommitEvent("s"))
        assert list(log) == [io, det, commit]
        assert log.io_events() == [io]
        assert log.log_events() == [det]  # commits are not log lines
        assert log.of_type(JournalCommitEvent) == [commit]

    def test_remove_where_keeps_order(self):
        log = EventLog()
        for block in range(4):
            log.emit(IOEvent("read", block, "ok"))
        log.emit(PolicyActionEvent(Severity.ERROR, "s", "remount-ro", "m"))
        log.remove_where(lambda e: isinstance(e, IOEvent) and e.block % 2 == 0)
        assert [e.key()[0:3] for e in log] == [
            ("io", "read", 1), ("io", "read", 3),
            ("policy-action", Severity.ERROR, "s"),
        ]

    def test_digest_tracks_content_and_order(self):
        one, two = EventLog(), EventLog()
        for log in (one, two):
            log.emit(IOEvent("read", 1, "ok"))
            log.emit(IOEvent("write", 2, "ok"))
        assert one.digest() == two.digest()
        swapped = EventLog([IOEvent("write", 2, "ok"), IOEvent("read", 1, "ok")])
        assert swapped.digest() != one.digest()

    def test_fold_digest_separates_runs(self):
        """The run label is folded in, so the same events attributed to
        different runs produce different accumulated digests."""
        ev = [IOEvent("read", 1, "ok")]
        h1, h2 = hashlib.sha256(), hashlib.sha256()
        fold_digest(h1, "a:baseline", ev)
        fold_digest(h2, "b:baseline", ev)
        assert h1.hexdigest() != h2.hexdigest()
        h3 = hashlib.sha256()
        fold_digest(h3, "a:baseline", ev)
        assert h3.hexdigest() == h1.hexdigest()


class TestSysLogView:
    def test_string_interface_renders_typed_events(self):
        log = SysLog()
        log.error("ext3", "sanity-fail", "inode 3 bad", block=3)
        [rec] = log.records
        assert (rec.severity, rec.source, rec.tag, rec.message, rec.block) == \
            (Severity.ERROR, "ext3", "sanity-fail", "inode 3 bad", 3)
        # The record *is* the stream's event, not a copy of it.
        [event] = list(log.events_log)
        assert rec is event
        assert isinstance(event, DetectionEvent) and event.mechanism == "sanity"

    def test_typed_emitters_match_classify_log(self):
        """Converted call sites must be observationally identical to the
        string path: same event, bit for bit."""
        via_string, via_typed = SysLog(), SysLog()
        via_string.error("jfs", "sanity-fail", "m", block=2)
        via_typed.detection("jfs", "sanity-fail", "m", mechanism="sanity", block=2)
        via_string.info("jfs", "read-retry", "m")
        via_typed.recovery("jfs", "read-retry", "m", mechanism="retry")
        via_string.error("jfs", "remount-ro", "m")
        via_typed.action("jfs", "remount-ro", "m")
        assert via_string.events_log.key_sequence() == via_typed.events_log.key_sequence()
        assert via_string.render() == via_typed.render()

    def test_non_log_events_do_not_render(self):
        shared = EventLog()
        shared.emit(IOEvent("read", 1, "ok"))
        log = SysLog(shared)
        shared.emit(JournalCommitEvent("ext3", 3))
        log.error("ext3", "read-error", "m")
        assert len(log) == 1
        assert log.events() == ["read-error"]
        assert "journal" not in log.render()

    def test_clear_spares_other_layers_events(self):
        shared = EventLog()
        shared.emit(IOEvent("read", 1, "ok"))
        log = SysLog(shared)
        log.error("ext3", "read-error", "m")
        log.clear()
        assert len(log) == 0
        assert [e.kind for e in shared] == ["io"]  # injector history survives

    def test_queries(self):
        log = SysLog()
        log.warning("fs", "ignored-error", "dropped")
        log.error("fs", "read-error", "io", block=5)
        assert log.has_event("read-error") and not log.has_event("panic")
        assert [r.block for r in log.find("read-error")] == [5]
