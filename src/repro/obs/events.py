"""Typed storage events: the one schema every layer reports through.

The fingerprinting methodology (§4.3) infers failure policy from three
observables — API results, the system log, and the I/O trace at the
device boundary.  This module holds them as one ordered stream of
:class:`StorageEvent` records that the fault injector, the VFS buffer
layer, the journal framing, and every file system's policy code emit
into a shared :class:`EventLog`.

Design constraints:

* **Replayable** — events are frozen dataclasses of primitives, so a
  stream pickles and hashes to a stable digest (:func:`event_bytes`).
* **View-compatible** — ``SysLog`` is a view over an ``EventLog`` that
  renders its :class:`LogEvent`\\ s as log lines; the I/O trace is
  :meth:`EventLog.io_events`, the log's own :class:`IOEvent` objects;
  and inference matches the structured events.

Event kinds:

========================  ====================================================
``io``                    one request at the device boundary (injector)
``fault-armed``           a fault was armed beneath the file system
``detection``             the FS detected a failure (mechanism-tagged)
``recovery``              the FS attempted recovery (mechanism-tagged)
``policy-action``         the FS took a policy action (remount-ro, panic, …)
``journal-commit``        a transaction commit barrier (``fs/base`` framing)
``log``                   any other kernel-log line
========================  ====================================================
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter
from typing import (
    Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple, Type,
)


class Severity(enum.IntEnum):
    """Kernel-log severity (shared by events and the SysLog view)."""

    DEBUG = 0
    INFO = 1
    WARNING = 2
    ERROR = 3
    CRITICAL = 4

    def __repr__(self) -> str:
        # Enum's own format, made once: every log event's digest reprs it.
        return _SEVERITY_REPRS[self]


_SEVERITY_REPRS = {s: enum.IntEnum.__repr__(s) for s in Severity}


#: Per-class ``key`` getters: ``dataclasses.fields`` resolves the class
#: metadata on every call, which dominates digesting when a run keys
#: tens of thousands of events.
_KEY_GETTERS: dict = {}


@dataclass(frozen=True)
class StorageEvent:
    """Base class for everything observable in the storage stack."""

    kind: ClassVar[str] = "event"

    def key(self) -> Tuple:
        """Stable content tuple (used for digests and determinism checks):
        ``kind``, then every field in declaration order."""
        getter = _KEY_GETTERS.get(type(self))
        if getter is None:
            names = [f.name for f in fields(self)]
            # attrgetter of one name returns the bare value, not a tuple.
            getter = _KEY_GETTERS[type(self)] = (
                attrgetter("kind", *names) if names else lambda e: (e.kind,))
        return getter(self)


@dataclass(frozen=True)
class IOEvent(StorageEvent):
    """One request observed at the device boundary."""

    kind: ClassVar[str] = "io"

    op: str  # "read" | "write"
    block: int
    outcome: str  # "ok" | "error" | "corrupted" | "dropped"
    block_type: Optional[str] = None

    def is_read(self) -> bool:
        return self.op == "read"


#: Interned :class:`IOEvent`\ s by field tuple.  A device-boundary event
#: is a frozen value over a small domain (a scrub or rebuild observes
#: the same ``("read", block, "ok", None)`` on every pass), so the
#: stream holds one shared object per distinct value instead of one
#: allocation per request.  Equality, keys, pickling and digests are
#: those of a freshly constructed event.
_IO_EVENTS: Dict[Tuple, IOEvent] = {}

#: :func:`event_bytes` of every event in ``_IO_EVENTS``, by ``id()``: the
#: tables are filled and dropped together, so each id is a live event's.
_IO_EVENT_BYTES: Dict[int, bytes] = {}

#: Bound on the intern table; it is dropped whole when full (events
#: already in a log stay valid — interning is an allocation saving,
#: never an identity promise across the bound).
IO_EVENT_CACHE_MAX = 1 << 15


def io_event(op: str, block: int, outcome: str,
             block_type: Optional[str] = None) -> IOEvent:
    """The interned :class:`IOEvent` with these fields."""
    key = (op, block, outcome, block_type)
    event = _IO_EVENTS.get(key)
    if event is None:
        if len(_IO_EVENTS) >= IO_EVENT_CACHE_MAX:
            _IO_EVENTS.clear()
            _IO_EVENT_BYTES.clear()
        event = _IO_EVENTS[key] = IOEvent(op, block, outcome, block_type)
        _IO_EVENT_BYTES[id(event)] = event_bytes(event)
    return event


def event_bytes(event: StorageEvent) -> bytes:
    """What a digest folds for *event*: ``repr(event.key())``, encoded —
    looked up for an interned :class:`IOEvent` (:func:`io_event` encoded
    it once), encoded on the spot for any other event."""
    return _IO_EVENT_BYTES.get(id(event)) or repr(event.key()).encode()


@dataclass(frozen=True)
class FaultArmedEvent(StorageEvent):
    """A fault was armed beneath the file system."""

    kind: ClassVar[str] = "fault-armed"

    op: str  # "read" | "write"
    fault_kind: str  # "fail" | "corrupt"
    block: Optional[int] = None
    block_type: Optional[str] = None


@dataclass(frozen=True)
class WriteImageEvent(StorageEvent):
    """One write at the top of the device stack, *with its payload*.

    Emitted by the :class:`~repro.disk.recorder.WriteRecorder` layer so
    the crash-state exploration engine (:mod:`repro.crash`) can replay
    any prefix of a workload's write sequence onto a snapshot.  Unlike
    :class:`IOEvent` (the injector's boundary observation), this event
    carries the full block image — it is the record side of the
    record/enumerate/replay/check loop.
    """

    kind: ClassVar[str] = "write-image"

    block: int
    data: bytes


@dataclass(frozen=True)
class JournalCommitEvent(StorageEvent):
    """A transaction commit barrier issued by the journaling framing."""

    kind: ClassVar[str] = "journal-commit"

    source: str
    ops: int = 0  # operations folded into this commit (0 = explicit sync)


@dataclass(frozen=True)
class LogEvent(StorageEvent):
    """A kernel-log line: the renderable subset of the event stream.

    Everything the old free-text ``SysLog`` carried survives here
    (severity, source subsystem, machine tag, message, block), so the
    ``SysLog`` view renders these — and only these — as log records.
    """

    kind: ClassVar[str] = "log"

    severity: Severity
    source: str
    tag: str
    message: str
    block: Optional[int] = None


@dataclass(frozen=True)
class DetectionEvent(LogEvent):
    """The file system *detected* a failure.

    ``mechanism`` names the IRON detection technique that fired:
    ``"error-code"`` (a lower level reported an error), ``"sanity"``
    (a structural check failed), ``"redundancy"`` (a checksum or
    replica comparison mismatched).
    """

    kind: ClassVar[str] = "detection"

    mechanism: str = "error-code"


@dataclass(frozen=True)
class RecoveryEvent(LogEvent):
    """The file system *attempted recovery* from a failure.

    ``mechanism`` names the IRON recovery technique: ``"retry"``,
    ``"redundancy"`` (read a replica / reconstructed from parity),
    ``"remap"`` (redirected the block elsewhere), ``"journal-replay"``.
    """

    kind: ClassVar[str] = "recovery"

    mechanism: str = "retry"


@dataclass(frozen=True)
class PolicyActionEvent(LogEvent):
    """The file system took a failure-policy action (R_stop flavours,
    silent drops, scrub outcomes…).  ``tag`` names the action."""

    kind: ClassVar[str] = "policy-action"

    @property
    def action(self) -> str:
        return self.tag


# -- redundancy-array events --------------------------------------------------
#
# Multi-disk arrays (:mod:`repro.redundancy.array`) report through the
# same detection / recovery / policy-action vocabulary the file systems
# use — same mechanisms, same IRON levels — with one extra coordinate:
# which *member* of the array the observation concerns.  Inference and
# the metrics layer match these by their base classes (isinstance), so
# R_redundancy classification is structural, not string-matched.


@dataclass(frozen=True)
class ArrayDetectionEvent(DetectionEvent):
    """The array detected a member failure (D_errorcode: the member's
    error code surfaced at the array boundary) or a redundancy
    mismatch between members (D_redundancy, during scrub)."""

    member: Optional[int] = None


@dataclass(frozen=True)
class ArrayRecoveryEvent(RecoveryEvent):
    """The array recovered through redundancy (R_redundancy): a
    degraded read reconstructed from surviving members, a read-repair
    wrote the reconstruction back, or a rebuild repopulated a
    replaced member."""

    member: Optional[int] = None
    mechanism: str = "redundancy"


@dataclass(frozen=True)
class ArrayPolicyEvent(PolicyActionEvent):
    """An array-level policy action: a scrub pass completed, or a
    scrub found damage it could not attribute/repair (scrub-loss)."""

    member: Optional[int] = None


# -- fleet events --------------------------------------------------------------


@dataclass(frozen=True)
class FleetClockEvent(LogEvent):
    """A fleet-simulator lifecycle observation stamped with the virtual
    clock.

    The flight recorder's causal vocabulary: arrival events
    (``failstop-arrival`` / ``lse-arrival`` / ``corrupt-arrival``),
    repair lifecycle (``spare-seated`` / ``rebuild-complete`` /
    ``scrub-pass``), and terminal verdicts (``loss-established`` /
    ``rstop-freeze``), each carrying the fleet clock in hours and the
    member concerned.  Being a :class:`LogEvent` subclass, these render
    in the SysLog view and as Perfetto instants for free; post-mortems
    (:mod:`repro.obs.postmortem`) walk them to reconstruct the
    root-cause arrival sequence of every lost trial.
    """

    kind: ClassVar[str] = "fleet-clock"

    t_hours: float = 0.0
    member: Optional[int] = None


@dataclass(frozen=True)
class FleetTrialEvent(StorageEvent):
    """One Monte Carlo trial's verdict from the fleet simulator.

    A campaign emits exactly one of these per (geometry, policy, trial)
    in enumeration order; the fold over their keys is the campaign's
    determinism digest, byte-identical at any ``--jobs`` width.
    ``outcome`` is one of ``"survived"``, ``"detected-loss"``,
    ``"silent-loss"`` (a mission-end verify read returned wrong bytes
    no mechanism ever flagged), or ``"stopped"`` (an R_stop policy
    froze the array at first trouble).  ``ttdl_hours`` is the fleet
    clock at data loss (None when the trial survived or stopped).
    """

    kind: ClassVar[str] = "fleet-trial"

    geometry: str = ""
    policy: str = ""
    trial: int = 0
    outcome: str = "survived"
    ttdl_hours: Optional[float] = None
    device_hours: float = 0.0


# -- tag classification -------------------------------------------------------
#
# The central mapping from the historical free-text syslog tags to typed
# events.  FS policy code that still calls ``syslog.error(...)`` gets a
# correctly-typed event through this table; converted call sites emit
# the typed event directly.

DETECTION_MECHANISMS = {
    "sanity-fail": "sanity",
    "checksum-mismatch": "redundancy",
    "read-error": "error-code",
    "write-error": "error-code",
}

RECOVERY_MECHANISMS = {
    "read-retry": "retry",
    "write-retry": "retry",
    "redundancy-used": "redundancy",
    "remap": "remap",
    "recovery": "journal-replay",
}

POLICY_ACTION_TAGS = {
    "remount-ro",
    "journal-abort",
    "unmountable",
    "mount-failed",
    "panic",
    "silent-failure",
    "ignored-error",
    "log-reset",
    "scrub-loss",
    "scrub-complete",
    "cksum-unavailable",
    "replica-unavailable",
    "replica-full",
}

#: The policy actions that halt file-system activity (R_stop).
STOP_ACTION_TAGS = {"remount-ro", "journal-abort", "unmountable", "mount-failed"}


def classify_log(
    severity: Severity,
    source: str,
    tag: str,
    message: str,
    block: Optional[int] = None,
) -> LogEvent:
    """Type a kernel-log line by its machine tag.

    Unknown tags become plain :class:`LogEvent`\\ s — still rendered,
    still diffed, just not structurally matched by inference.
    """
    if tag in DETECTION_MECHANISMS:
        return DetectionEvent(
            severity, source, tag, message, block,
            mechanism=DETECTION_MECHANISMS[tag],
        )
    if tag in RECOVERY_MECHANISMS:
        return RecoveryEvent(
            severity, source, tag, message, block,
            mechanism=RECOVERY_MECHANISMS[tag],
        )
    if tag in POLICY_ACTION_TAGS:
        return PolicyActionEvent(severity, source, tag, message, block)
    return LogEvent(severity, source, tag, message, block)


class EventLog:
    """An append-only, ordered stream of :class:`StorageEvent`\\ s.

    One log is shared by every layer of a device stack and the file
    system mounted on it (see :class:`repro.disk.stack.DeviceStack`),
    so cross-layer ordering — an injected error followed by the FS's
    detection followed by its policy action — is preserved exactly.

    In ring mode (``max_events`` set) the log trims lazily: it evicts
    its oldest events down to the capacity when it reaches twice the
    capacity, and before any read.  Every read — iteration, ``len``,
    indexing, the queries, consumption, digests, ``dropped`` and
    ``high_water`` — therefore sees exactly what trimming on every
    emit would have left, and a full ring costs one ``del`` per
    capacity's worth of events instead of one per event.
    """

    __slots__ = ("_events", "_high_water", "_max_events", "_limit",
                 "_dropped", "tracer")

    def __init__(
        self,
        events: Optional[List[StorageEvent]] = None,
        max_events: Optional[int] = None,
    ):
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._events: List[StorageEvent] = list(events) if events else []
        self._high_water: int = 0
        self._max_events = max_events
        #: Length at which a ring's :meth:`emit` trims.
        self._limit = None if max_events is None else 2 * max_events
        self._dropped: int = 0
        #: The span tracer bound to this stream, when tracing is on
        #: (set by :func:`repro.obs.trace.enable_tracing`; None otherwise).
        self.tracer = None

    @property
    def max_events(self) -> Optional[int]:
        """Ring-mode capacity: when set, the log keeps only the newest
        this many events (long crash sweeps opt in to cap memory).
        ``None`` keeps the log unbounded."""
        return self._max_events

    @property
    def high_water(self) -> int:
        """Index of the first event *not yet consumed* by an incremental
        reader (the crash recorder).  ``consume_new()`` advances it;
        ``clear()`` rewinds it."""
        self._settle()
        return self._high_water

    @property
    def dropped(self) -> int:
        """Events evicted by ring mode since the last clear()."""
        self._settle()
        return self._dropped

    # -- emission ------------------------------------------------------------

    def emit(self, event: StorageEvent) -> StorageEvent:
        self._events.append(event)
        if self._max_events is not None and len(self._events) >= self._limit:
            self._trim()
        return event

    def emit_many(self, events: Iterable[StorageEvent]) -> None:
        """Append *events* in order, exactly as one :meth:`emit` each
        would."""
        self._events.extend(events)
        if self._max_events is not None and len(self._events) >= self._limit:
            self._trim()

    def _settle(self) -> None:
        """Trim a ring that holds more than its capacity (every read
        starts here)."""
        if self._max_events is not None and len(self._events) > self._max_events:
            self._trim()

    def _trim(self) -> None:
        # One eviction of k events leaves what k single evictions would:
        # the mark, floored at zero, drops by k either way.
        excess = len(self._events) - self._max_events
        del self._events[:excess]
        self._dropped += excess
        self._high_water = max(0, self._high_water - excess)

    # -- access --------------------------------------------------------------

    def __iter__(self) -> Iterator[StorageEvent]:
        self._settle()
        return iter(self._events)

    def __len__(self) -> int:
        self._settle()
        return len(self._events)

    def __bool__(self) -> bool:
        # An empty log is still a log: sharing checks must not mistake
        # "no events yet" for "no stream to join".
        return True

    def __getitem__(self, index):
        self._settle()
        return self._events[index]

    def of_type(self, cls: Type[StorageEvent]) -> List[StorageEvent]:
        self._settle()
        return [e for e in self._events if isinstance(e, cls)]

    def io_events(self) -> List[IOEvent]:
        self._settle()
        return [e for e in self._events if isinstance(e, IOEvent)]

    def log_events(self) -> List[LogEvent]:
        self._settle()
        return [e for e in self._events if isinstance(e, LogEvent)]

    # -- incremental consumption ---------------------------------------------

    def consume_new(self) -> List[StorageEvent]:
        """Return events appended since the last call and advance the
        high-water mark past them."""
        self._settle()
        new = self._events[self._high_water:]
        self._high_water = len(self._events)
        return new

    def drain(self) -> List[StorageEvent]:
        """Like :meth:`consume_new`, but also *release* the consumed
        prefix so a long-running producer (the crash recorder during a
        multi-step workload) never holds the whole stream in memory.

        Everything before the high-water mark was handed out by an
        earlier ``consume_new()``/``drain()`` call; this returns the new
        tail and then empties the log, so the interleaved consumption
        ``drain() + drain() + ...`` yields exactly the same stream as a
        single trailing ``consume_new()`` would have.
        """
        self._settle()
        new = self._events[self._high_water:]
        self._events.clear()
        self._high_water = 0
        return new

    # -- mutation ------------------------------------------------------------

    def clear(self) -> None:
        self._events.clear()
        self._high_water = 0
        self._dropped = 0

    def remove_where(self, predicate: Callable[[StorageEvent], bool]) -> None:
        # The mark drops by the removed events that sat before it, so
        # an unconsumed tail stays unconsumed.
        self._settle()
        events = iter(self._events)
        kept = [e for e in islice(events, self._high_water) if not predicate(e)]
        self._high_water = len(kept)
        kept.extend(e for e in events if not predicate(e))
        self._events[:] = kept

    # -- digests -------------------------------------------------------------

    def key_sequence(self) -> List[Tuple]:
        self._settle()
        return [e.key() for e in self._events]

    def digest(self) -> str:
        """SHA-256 over the ordered event keys (determinism checks)."""
        self._settle()
        return hashlib.sha256(
            b"".join(map(event_bytes, self._events))).hexdigest()


def fold_digest(hasher: "hashlib._Hash", label: str, events) -> None:
    """Fold one run's ordered events into an accumulating digest.

    One ``update`` over the run header and every event's
    :func:`event_bytes`, joined: SHA-256 of the same byte string that
    one ``update`` per event would feed it."""
    hasher.update(b"".join(
        [("\x00run:" + label + "\x00").encode(), *map(event_bytes, events)]))
