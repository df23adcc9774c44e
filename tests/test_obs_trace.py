"""Span tracing: emission, tree reconstruction, structural digests,
deterministic merging, Chrome export, and provenance references."""

import json

import pytest

from repro.obs.events import (
    DetectionEvent,
    EventLog,
    IOEvent,
    JournalCommitEvent,
    Severity,
)
from repro.obs.trace import (
    SpanEndEvent,
    SpanStartEvent,
    Tracer,
    chrome_trace,
    enable_tracing,
    event_ref,
    merge_streams,
    resolve_ref,
    span_ref,
    span_tree,
    span_tree_digest,
    write_chrome_trace,
)


class TestTracer:
    def test_enable_tracing_is_cached_per_log(self):
        log = EventLog()
        assert log.tracer is None
        t = enable_tracing(log)
        assert t is enable_tracing(log) is log.tracer

    def test_nesting_records_parent_ids(self):
        log = EventLog()
        t = enable_tracing(log)
        outer = t.start("outer", "op")
        inner = t.start("inner", "phase")
        t.end(inner)
        t.end(outer)
        starts = [e for e in log if isinstance(e, SpanStartEvent)]
        assert starts[0].parent_id is None
        assert starts[1].parent_id == outer
        assert t.current is None

    def test_floating_span_does_not_become_parent(self):
        log = EventLog()
        t = enable_tracing(log)
        op = t.start("op", "op")
        txn = t.start("txn", "txn", floating=True)
        child = t.start("child", "phase")
        starts = {e.span_id: e for e in log if isinstance(e, SpanStartEvent)}
        assert starts[txn].parent_id == op
        # The floating txn never joined the stack: the next span nests
        # under the op, not the transaction.
        assert starts[child].parent_id == op
        t.end(child), t.end(txn), t.end(op)

    def test_span_ids_are_sequential_and_deterministic(self):
        def run():
            log = EventLog()
            t = enable_tracing(log)
            a = t.start("a", "op")
            b = t.start("b", "op")
            t.end(b), t.end(a)
            return [e.span_id for e in log if isinstance(e, SpanStartEvent)]

        assert run() == run() == [1, 2]

    def test_context_manager_marks_errors(self):
        log = EventLog()
        t = enable_tracing(log)
        with pytest.raises(RuntimeError):
            with t.span("boom", "op"):
                raise RuntimeError("x")
        (end,) = [e for e in log if isinstance(e, SpanEndEvent)]
        assert end.status == "error"

    def test_end_pops_unclosed_children(self):
        log = EventLog()
        t = enable_tracing(log)
        outer = t.start("outer", "op")
        t.start("leaked", "phase")
        t.end(outer)  # error-path shortcut: child never explicitly ended
        assert t.current is None


class TestSpanTree:
    def _traced_log(self):
        log = EventLog()
        t = enable_tracing(log)
        run = t.start("run", "run")
        op = t.start("creat", "op")
        log.emit(IOEvent("write", 7, "ok", "journal"))
        log.emit(IOEvent("write", 8, "error", "inode"))
        t.end(op)
        log.emit(JournalCommitEvent(source="journal", ops=2))
        t.end(run)
        return log

    def test_tree_structure_and_event_counts(self):
        roots = span_tree(self._traced_log())
        assert len(roots) == 1
        (run,) = roots
        assert (run.name, run.status) == ("run", "ok")
        (op,) = run.children
        assert op.event_counts == {"io": 2}
        # The commit happened after the op closed: it belongs to run.
        assert run.event_counts == {"journal-commit": 1}

    def test_truncated_stream_leaves_span_open(self):
        log = EventLog()
        t = enable_tracing(log)
        t.start("never-ends", "op")
        (node,) = span_tree(log)
        assert node.status == "open"

    def test_orphan_end_is_ignored(self):
        assert span_tree([SpanEndEvent(span_id=99)]) == []

    def test_digest_ignores_span_ids_but_not_structure(self):
        base = self._traced_log()
        # Same structure, shifted ids (as a merge remap would produce).
        shifted = []
        for e in base:
            if isinstance(e, SpanStartEvent):
                parent = e.parent_id + 10 if e.parent_id else None
                shifted.append(SpanStartEvent(e.span_id + 10, parent,
                                              e.name, e.category,
                                              e.detail, e.source))
            elif isinstance(e, SpanEndEvent):
                shifted.append(SpanEndEvent(e.span_id + 10, e.status))
            else:
                shifted.append(e)
        assert span_tree_digest(base) == span_tree_digest(shifted)
        renamed = [
            SpanStartEvent(e.span_id, e.parent_id, "other", e.category)
            if isinstance(e, SpanStartEvent) and e.name == "creat" else e
            for e in base
        ]
        assert span_tree_digest(base) != span_tree_digest(renamed)


class TestMergeStreams:
    def _stream(self, name):
        log = EventLog()
        t = enable_tracing(log)
        s = t.start(name, "op")
        log.emit(IOEvent("read", 1, "ok"))
        t.end(s)
        return list(log)

    def test_merge_wraps_streams_in_containers(self):
        merged = merge_streams(
            [("w1", self._stream("a")), ("w2", self._stream("b"))],
            root="all", root_category="run",
        )
        (root,) = span_tree(merged)
        assert (root.name, root.category) == ("all", "run")
        assert [c.name for c in root.children] == ["w1", "w2"]
        assert [c.children[0].name for c in root.children] == ["a", "b"]

    def test_merge_remaps_ids_uniquely(self):
        merged = merge_streams(
            [("w1", self._stream("a")), ("w2", self._stream("a"))]
        )
        ids = [e.span_id for e in merged if isinstance(e, SpanStartEvent)]
        assert len(ids) == len(set(ids))

    def test_merge_digest_independent_of_duplicate_input_ids(self):
        # Both inputs use span id 1 internally; the merged tree must
        # still be well-formed and digest deterministically.
        one = merge_streams([("x", self._stream("a")), ("y", self._stream("b"))])
        two = merge_streams([("x", self._stream("a")), ("y", self._stream("b"))])
        assert span_tree_digest(one) == span_tree_digest(two)


class TestChromeTrace:
    def test_export_shape(self, tmp_path):
        log = EventLog()
        t = enable_tracing(log)
        op = t.start("creat", "op")
        log.emit(IOEvent("write", 3, "error", "inode"))
        log.emit(DetectionEvent(Severity.WARNING, "fs", "sanity-fail",
                                "bad inode", mechanism="sanity"))
        t.end(op, "error")
        doc = chrome_trace(log)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "B" in phases and "E" in phases  # span duration events
        assert "X" in phases                    # block I/O
        assert "i" in phases                    # detection instant
        assert doc["otherData"]["span_tree_digest"] == span_tree_digest(log)

        path = write_chrome_trace(log, tmp_path / "t.json")
        assert json.loads(path.read_text())["traceEvents"]

    def test_track_metadata_names_layers(self):
        doc = chrome_trace([])
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert {"fs ops", "journal", "device I/O", "policy events"} <= names


class TestProvenanceRefs:
    def _labeled(self):
        log = EventLog()
        t = enable_tracing(log)
        s = t.start("run", "run")
        log.emit(IOEvent("write", 5, "error", "inode"))
        t.end(s)
        return {"w:read-failure:inode": list(log)}, s

    def test_event_ref_round_trip(self):
        streams, _ = self._labeled()
        label, events = next(iter(streams.items()))
        ref = event_ref(label, 1, events[1])
        assert resolve_ref(ref, streams) is events[1]

    def test_span_ref_round_trip(self):
        streams, span_id = self._labeled()
        label = next(iter(streams))
        start = resolve_ref(span_ref(label, span_id), streams)
        assert isinstance(start, SpanStartEvent) and start.span_id == span_id

    def test_resolution_is_strict(self):
        streams, _ = self._labeled()
        label = next(iter(streams))
        with pytest.raises(ValueError):
            resolve_ref(f"{label}#e1:span-start", streams)  # wrong kind
        with pytest.raises(ValueError):
            resolve_ref(f"{label}#e99:io", streams)  # past the end
        with pytest.raises(ValueError):
            resolve_ref(f"{label}#s42", streams)  # no such span
        with pytest.raises(KeyError):
            resolve_ref("nope#e0:io", streams)  # unknown stream
        with pytest.raises(ValueError):
            resolve_ref("malformed", streams)

    def test_ordinal_must_be_a_number_from_zero(self):
        # "#e-1" used to index from the end of the stream.
        streams, _ = self._labeled()
        label = next(iter(streams))
        with pytest.raises(ValueError, match="ordinal"):
            resolve_ref(f"{label}#e-1:span-end", streams)
        with pytest.raises(ValueError, match="ordinal"):
            resolve_ref(f"{label}#ex:io", streams)
