"""The system log — a rendering view over the typed event stream.

The fingerprinting methodology (§4.3) compares *observable outputs*:
API error codes, the contents of the system log, and low-level I/O
traces.  Every simulated file system writes its kernel messages here;
since the typed-event refactor each message is actually a
:class:`~repro.obs.events.LogEvent` (or one of its detection /
recovery / policy-action subclasses) appended to a shared
:class:`~repro.obs.events.EventLog`, and ``SysLog`` merely *renders*
that stream as the familiar log lines.  String-based consumers keep
working; structured consumers (policy inference, the determinism
digests) read the events directly.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.obs.events import (
    DetectionEvent,
    EventLog,
    LogEvent,
    PolicyActionEvent,
    RecoveryEvent,
    Severity,
    classify_log,
)

__all__ = ["Severity", "SysLog"]


class SysLog:
    """An append-only kernel message buffer, backed by an event log.

    Pass ``events`` to join an existing stream (a mounted file system
    joins its device stack's log, so injector I/O events and FS policy
    events interleave in true order); omit it for a standalone log.
    """

    def __init__(self, events: Optional[EventLog] = None):
        self.events_log = events if events is not None else EventLog()

    @property
    def records(self) -> List[LogEvent]:
        """The stream's log-renderable events: ``tag`` is the
        machine-readable name (``"sanity-fail"``, ``"journal-abort"``,
        ``"remount-ro"``, ``"panic"``…), ``source`` the subsystem that
        emitted it."""
        return self.events_log.log_events()

    def log(
        self,
        severity: Severity,
        source: str,
        event: str,
        message: str,
        block: Optional[int] = None,
    ) -> None:
        self.events_log.emit(classify_log(severity, source, event, message, block))

    # Convenience wrappers -------------------------------------------------

    def info(self, source: str, event: str, message: str, block: Optional[int] = None) -> None:
        self.log(Severity.INFO, source, event, message, block)

    def warning(self, source: str, event: str, message: str, block: Optional[int] = None) -> None:
        self.log(Severity.WARNING, source, event, message, block)

    def error(self, source: str, event: str, message: str, block: Optional[int] = None) -> None:
        self.log(Severity.ERROR, source, event, message, block)

    # Typed emitters (used by FS policy code paths) -------------------------

    def detection(
        self,
        source: str,
        event: str,
        message: str,
        *,
        mechanism: str,
        severity: Severity = Severity.ERROR,
        block: Optional[int] = None,
    ) -> None:
        """The FS detected a failure via *mechanism* (error-code /
        sanity / redundancy)."""
        self.events_log.emit(
            DetectionEvent(severity, source, event, message, block, mechanism=mechanism)
        )

    def recovery(
        self,
        source: str,
        event: str,
        message: str,
        *,
        mechanism: str,
        severity: Severity = Severity.INFO,
        block: Optional[int] = None,
    ) -> None:
        """The FS attempted recovery via *mechanism* (retry /
        redundancy / remap / journal-replay)."""
        self.events_log.emit(
            RecoveryEvent(severity, source, event, message, block, mechanism=mechanism)
        )

    def action(
        self,
        source: str,
        event: str,
        message: str,
        *,
        severity: Severity = Severity.ERROR,
        block: Optional[int] = None,
    ) -> None:
        """The FS took a failure-policy action (remount-ro, panic, …)."""
        self.events_log.emit(PolicyActionEvent(severity, source, event, message, block))

    # Queries ----------------------------------------------------------------

    def events(self) -> List[str]:
        return [e.tag for e in self.events_log.log_events()]

    def has_event(self, event: str) -> bool:
        return any(e.tag == event for e in self.events_log.log_events())

    def find(self, event: str) -> Iterator[LogEvent]:
        return (r for r in self.records if r.tag == event)

    def clear(self) -> None:
        """Drop the log-renderable events (other layers' events stay)."""
        self.events_log.remove_where(lambda e: isinstance(e, LogEvent))

    def __len__(self) -> int:
        return len(self.events_log.log_events())

    def render(self) -> str:
        lines = []
        for r in self.records:
            blk = f" block={r.block}" if r.block is not None else ""
            lines.append(f"[{r.severity.name:8}] {r.source}: {r.tag}: {r.message}{blk}")
        return "\n".join(lines)
