"""Hierarchical spans over the typed storage-event stream.

The event pipeline (:mod:`repro.obs.events`) records *what* happened —
injected errors, detections, recoveries, journal commits — but not
*inside which operation*.  This module adds that structure: spans are
themselves :class:`~repro.obs.events.StorageEvent`\\ s
(:class:`SpanStartEvent` / :class:`SpanEndEvent`) emitted into the same
shared :class:`~repro.obs.events.EventLog`, so the hierarchy

    run → workload step → VFS op → journal transaction → block I/O

interleaves with the existing events in true order.  Any event between
a span's start and end is attributable to that span, which is what the
explainable-inference provenance annotations
(:mod:`repro.fingerprint.inference`, :mod:`repro.crash.engine`) point
back into.

Design constraints:

* **Deterministic** — span ids are sequence numbers, never wall-clock
  or randomness, so two runs of the same (deterministic) workload emit
  identical span streams byte for byte.  :func:`span_tree_digest` is
  the witness.
* **Opt-in** — tracing is off by default; a stream without a tracer
  emits no spans, so untraced runs keep their historical event digests
  and pay only a ``None`` check per operation.
* **Exportable** — :func:`chrome_trace` renders any event stream as
  Chrome trace-event JSON loadable in Perfetto (``chrome://tracing``),
  with spans as duration events, block I/O as complete events, and log
  events as instants, each on a per-layer track.
* **Mergeable** — :func:`merge_streams` deterministically splices
  per-worker (or per-run) streams into one trace, remapping span ids
  so parallel runs export a single coherent tree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.events import EventLog, IOEvent, LogEvent, StorageEvent, WriteImageEvent


@dataclass(frozen=True)
class SpanStartEvent(StorageEvent):
    """A span opened.  ``parent_id`` is the enclosing span (None = root
    of its stream); ``category`` names the hierarchy level (``run`` /
    ``workload`` / ``op`` / ``txn`` / ``phase`` / ``stream``)."""

    kind: ClassVar[str] = "span-start"

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    detail: str = ""
    source: str = ""


@dataclass(frozen=True)
class SpanEndEvent(StorageEvent):
    """A span closed; ``status`` is ``"ok"`` or ``"error"``."""

    kind: ClassVar[str] = "span-end"

    span_id: int
    status: str = "ok"


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_detail", "_source",
                 "_floating", "span_id")

    def __init__(self, tracer, name, category, detail, source, floating):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._detail = detail
        self._source = source
        self._floating = floating
        self.span_id = 0

    def __enter__(self) -> int:
        self.span_id = self._tracer.start(
            self._name, self._category, self._detail, self._source,
            floating=self._floating,
        )
        return self.span_id

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end(self.span_id, "error" if exc_type is not None else "ok")


class Tracer:
    """Span-context state for one :class:`EventLog`.

    Maintains the stack of open (non-floating) spans; a new span's
    parent is the current stack top.  *Floating* spans — journal
    transactions, which outlive the VFS op that opened them — record
    their parent but do not join the stack, so strictly-nested callers
    are never confused by them.

    Only :func:`enable_tracing` creates one, so a stream has a tracer
    exactly when tracing is on.
    """

    __slots__ = ("events", "_next_id", "_stack")

    def __init__(self, events: EventLog):
        self.events = events
        self._next_id = 1
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[int]:
        """The innermost open non-floating span id (None at top level)."""
        return self._stack[-1] if self._stack else None

    def start(
        self,
        name: str,
        category: str,
        detail: str = "",
        source: str = "",
        *,
        floating: bool = False,
    ) -> int:
        """Open a span and return its id (ids start at 1)."""
        span_id = self._next_id
        self._next_id += 1
        self.events.emit(SpanStartEvent(
            span_id=span_id,
            parent_id=self.current,
            name=name,
            category=category,
            detail=detail,
            source=source,
        ))
        if not floating:
            self._stack.append(span_id)
        return span_id

    def end(self, span_id: int, status: str = "ok") -> None:
        """Close a span by id.  Id 0 (no span) is a no-op."""
        if span_id == 0:
            return
        if span_id in self._stack:
            # Pop through any unclosed children (error paths that
            # skipped their end); the tree builder treats them as
            # implicitly closed at the parent's end.
            while self._stack and self._stack[-1] != span_id:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        self.events.emit(SpanEndEvent(span_id=span_id, status=status))

    def span(
        self,
        name: str,
        category: str,
        detail: str = "",
        source: str = "",
        *,
        floating: bool = False,
    ) -> _SpanContext:
        """``with tracer.span(...) as span_id:`` convenience wrapper."""
        return _SpanContext(self, name, category, detail, source, floating)


def enable_tracing(events: EventLog) -> Tracer:
    """Turn tracing on for *events*: the tracer bound to it, created
    on first use."""
    tracer = events.tracer
    if tracer is None or tracer.events is not events:
        tracer = Tracer(events)
        events.tracer = tracer
    return tracer


# -- span trees ---------------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span with its children and direct events."""

    span_id: int
    name: str
    category: str
    detail: str = ""
    source: str = ""
    status: str = "open"
    start_index: int = -1
    end_index: int = -1
    children: List["SpanNode"] = field(default_factory=list)
    #: Non-span events that occurred *directly* inside this span
    #: (not inside a child), counted by event kind.
    event_counts: Dict[str, int] = field(default_factory=dict)


def span_tree(events: Iterable[StorageEvent]) -> List[SpanNode]:
    """Rebuild the span hierarchy from an ordered event stream.

    Tolerant of truncated streams: a start without an end stays
    ``status="open"``; an end without a start (its start was cleared or
    drained away) is ignored; non-span events outside any span are not
    counted.  Parentage follows the recorded ``parent_id`` when that
    span is known, else the innermost open span at that point.
    """
    roots: List[SpanNode] = []
    by_id: Dict[int, SpanNode] = {}
    open_stack: List[SpanNode] = []
    for index, event in enumerate(events):
        if isinstance(event, SpanStartEvent):
            node = SpanNode(
                span_id=event.span_id,
                name=event.name,
                category=event.category,
                detail=event.detail,
                source=event.source,
                start_index=index,
            )
            by_id[event.span_id] = node
            parent = by_id.get(event.parent_id) if event.parent_id else None
            if parent is None and open_stack:
                parent = open_stack[-1]
            (parent.children if parent is not None else roots).append(node)
            open_stack.append(node)
        elif isinstance(event, SpanEndEvent):
            node = by_id.get(event.span_id)
            if node is None:
                continue
            node.status = event.status
            node.end_index = index
            if node in open_stack:
                while open_stack and open_stack[-1] is not node:
                    open_stack.pop()
                if open_stack:
                    open_stack.pop()
        else:
            if open_stack:
                counts = open_stack[-1].event_counts
                counts[event.kind] = counts.get(event.kind, 0) + 1
    return roots


def span_tree_digest(events: Iterable[StorageEvent]) -> str:
    """SHA-256 over the structural rendering of the span tree.

    Covers names, categories, details, sources, statuses, nesting, and
    per-span direct event-kind counts — everything deterministic — and
    deliberately not raw span ids or stream indices, so two traces of
    the same run digest identically however they were merged.
    """
    h = hashlib.sha256()

    def fold(node: SpanNode, depth: int) -> None:
        h.update(repr((
            depth, node.name, node.category, node.detail, node.source,
            node.status, sorted(node.event_counts.items()),
            len(node.children),
        )).encode())
        for child in node.children:
            fold(child, depth + 1)

    for root in span_tree(events):
        fold(root, 0)
    return h.hexdigest()


# -- deterministic stream merging ---------------------------------------------


def merge_streams(
    streams: Sequence[Tuple[str, Sequence[StorageEvent]]],
    root: str = "merged",
    root_category: str = "run",
) -> List[StorageEvent]:
    """Splice labeled event streams into one stream under a fresh root.

    Each input stream gets a container span named after its label; the
    stream's own span ids are remapped by a running offset (parentless
    spans re-parent onto the container), so ids stay unique and the
    merged stream is a valid single trace.  Merging is deterministic in
    the input order — callers pass streams in the order they ran.
    """
    out: List[StorageEvent] = []
    next_id = 1
    root_id = next_id
    next_id += 1
    out.append(SpanStartEvent(root_id, None, root, root_category))
    for label, events in streams:
        container = next_id
        next_id += 1
        offset = next_id - 1
        max_seen = 0
        out.append(SpanStartEvent(container, root_id, label, "stream"))
        for event in events:
            if isinstance(event, SpanStartEvent):
                max_seen = max(max_seen, event.span_id)
                out.append(replace(
                    event,
                    span_id=event.span_id + offset,
                    parent_id=(event.parent_id + offset
                               if event.parent_id else container),
                ))
            elif isinstance(event, SpanEndEvent):
                max_seen = max(max_seen, event.span_id)
                out.append(replace(event, span_id=event.span_id + offset))
            else:
                out.append(event)
        next_id = offset + max_seen + 1
        out.append(SpanEndEvent(container))
    out.append(SpanEndEvent(root_id))
    return out


# -- Chrome trace-event export (Perfetto) -------------------------------------

#: Track (Chrome "thread") layout: one lane per storage layer.
TRACK_FS = 1
TRACK_JOURNAL = 2
TRACK_DEVICE = 3
TRACK_POLICY = 4

_TRACK_NAMES = {
    TRACK_FS: "fs ops",
    TRACK_JOURNAL: "journal",
    TRACK_DEVICE: "device I/O",
    TRACK_POLICY: "policy events",
}

_CATEGORY_TRACK = {
    "txn": TRACK_JOURNAL,
    "io": TRACK_DEVICE,
}


def chrome_trace(events: Iterable[StorageEvent]) -> Dict[str, Any]:
    """Render an event stream as a Chrome trace-event JSON object.

    Timestamps are the event's stream ordinal in microseconds — the
    simulator's observable is *ordering*, not wall time, and ordinals
    keep the export deterministic.  Spans become ``B``/``E`` duration
    events (journal transactions on their own track, since they overlap
    VFS ops), block I/O becomes thin ``X`` complete events, and log /
    detection / recovery / policy events become instants, so a
    detection is visually attributable to the op and transaction above
    it in Perfetto.
    """
    trace: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
         "args": {"name": name}}
        for tid, name in sorted(_TRACK_NAMES.items())
    ]
    trace.insert(0, {"ph": "M", "pid": 1, "name": "process_name",
                     "args": {"name": "repro"}})
    span_track: Dict[int, int] = {}
    for index, event in enumerate(events):
        ts = index
        if isinstance(event, SpanStartEvent):
            tid = _CATEGORY_TRACK.get(event.category, TRACK_FS)
            span_track[event.span_id] = tid
            args: Dict[str, Any] = {"span_id": event.span_id}
            if event.detail:
                args["detail"] = event.detail
            if event.source:
                args["source"] = event.source
            trace.append({"ph": "B", "pid": 1, "tid": tid, "ts": ts,
                          "name": event.name, "cat": event.category,
                          "args": args})
        elif isinstance(event, SpanEndEvent):
            tid = span_track.get(event.span_id, TRACK_FS)
            trace.append({"ph": "E", "pid": 1, "tid": tid, "ts": ts,
                          "args": {"span_id": event.span_id,
                                   "status": event.status}})
        elif isinstance(event, IOEvent):
            trace.append({
                "ph": "X", "pid": 1, "tid": TRACK_DEVICE, "ts": ts, "dur": 1,
                "name": f"{event.op} {event.block}", "cat": "io",
                "args": {"block": event.block, "outcome": event.outcome,
                         "block_type": event.block_type, "event_index": index},
            })
        elif isinstance(event, WriteImageEvent):
            trace.append({
                "ph": "X", "pid": 1, "tid": TRACK_DEVICE, "ts": ts, "dur": 1,
                "name": f"write-image {event.block}", "cat": "io",
                "args": {"block": event.block, "bytes": len(event.data),
                         "event_index": index},
            })
        elif isinstance(event, LogEvent):
            trace.append({
                "ph": "i", "s": "t", "pid": 1, "tid": TRACK_POLICY, "ts": ts,
                "name": f"{event.kind}:{event.tag}", "cat": event.kind,
                "args": {"source": event.source, "message": event.message,
                         "block": event.block, "severity": event.severity.name,
                         "event_index": index},
            })
        else:
            # journal-commit, fault-armed, and future event kinds.
            tid = TRACK_JOURNAL if event.kind == "journal-commit" else TRACK_DEVICE
            trace.append({
                "ph": "i", "s": "t", "pid": 1, "tid": tid, "ts": ts,
                "name": event.kind, "cat": event.kind,
                "args": {"event_index": index},
            })
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace",
            "span_tree_digest": span_tree_digest(events),
        },
    }


def write_chrome_trace(events: Iterable[StorageEvent], path) -> Path:
    """Serialize :func:`chrome_trace` to *path*; returns the path."""
    target = Path(path)
    events = list(events)
    target.write_text(json.dumps(chrome_trace(events)) + "\n")
    return target


# -- provenance references ----------------------------------------------------
#
# A provenance entry is a compact string pointing back into a recorded
# stream:  "<stream-label>#e<index>:<kind>" names the event at that
# ordinal, "<stream-label>#s<span-id>" names a span.  Fingerprint cells
# and crash-oracle violations carry these so every inferred conclusion
# is resolvable to the evidence that justified it.


def event_ref(label: str, index: int, event: StorageEvent) -> str:
    """Provenance reference for the event at *index* of stream *label*."""
    return f"{label}#e{index}:{event.kind}"


def span_ref(label: str, span_id: int) -> str:
    """Provenance reference for span *span_id* of stream *label*."""
    return f"{label}#s{span_id}"


def resolve_ref(ref: str, streams) -> StorageEvent:
    """Resolve a provenance reference against recorded streams.

    *streams* maps stream label -> ordered event sequence.  Event refs
    return the event at the ordinal (the kind must match); span refs
    return the span's :class:`SpanStartEvent`.  Raises ``KeyError`` /
    ``ValueError`` when the reference does not resolve — the provenance
    acceptance tests rely on that strictness.
    """
    label, _, anchor = ref.rpartition("#")
    if not label or not anchor:
        raise ValueError(f"malformed provenance ref: {ref!r}")
    events = streams[label]
    if anchor.startswith("e"):
        index_text, _, kind = anchor[1:].partition(":")
        if not index_text.isdecimal():
            raise ValueError(f"{ref!r}: event ordinal is not a number >= 0")
        index = int(index_text)
        if index >= len(events):
            raise ValueError(f"{ref!r}: index past end of stream ({len(events)})")
        event = events[index]
        if kind and event.kind != kind:
            raise ValueError(f"{ref!r}: stream has {event.kind!r} at {index}")
        return event
    if anchor.startswith("s"):
        span_id = int(anchor[1:])
        for event in events:
            if isinstance(event, SpanStartEvent) and event.span_id == span_id:
                return event
        raise ValueError(f"{ref!r}: no such span in stream")
    raise ValueError(f"malformed provenance ref: {ref!r}")
