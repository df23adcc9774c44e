"""Low-level I/O traces — a view over the typed event stream.

The fault-injection layer records every request that crosses it as an
:class:`~repro.obs.events.IOEvent` in the stack's shared event log; the
fingerprinting harness (§4.3) uses the stream as one of its three
observables — retries show up as repeated requests for the same block,
redundancy as reads of replica or parity locations, remapping as writes
landing at a different address than the fault-free run.

``IOTrace`` is the query API over those events (``entries``,
``reads_of``, ``retry_count``…): every helper filters the shared log
and hands back its ``IOEvent`` objects.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.obs.events import EventLog, IOEvent, io_event


class IOTrace:
    """An append-only request trace with the query helpers inference
    needs, backed by the stack's shared event log."""

    def __init__(self, events: Optional[EventLog] = None):
        self.events_log = events if events is not None else EventLog()

    @property
    def entries(self) -> List[IOEvent]:
        return self.events_log.io_events()

    def record(self, op: str, block: int, outcome: str, block_type: Optional[str] = None) -> None:
        self.events_log.emit(io_event(op, block, outcome, block_type))

    def clear(self) -> None:
        """Drop the I/O events (other layers' events stay)."""
        self.events_log.remove_where(lambda e: isinstance(e, IOEvent))

    def __len__(self) -> int:
        return sum(1 for e in self.events_log if isinstance(e, IOEvent))

    def __iter__(self) -> Iterator[IOEvent]:
        return iter(self.entries)

    # -- queries used by policy inference ---------------------------------

    def reads_of(self, block: int) -> int:
        return sum(1 for e in self.entries if e.is_read() and e.block == block)

    def writes_of(self, block: int) -> int:
        return sum(1 for e in self.entries if e.is_write() and e.block == block)

    def blocks_read(self) -> List[int]:
        return [e.block for e in self.entries if e.is_read()]

    def blocks_written(self) -> List[int]:
        return [e.block for e in self.entries if e.is_write()]

    def errors(self) -> List[IOEvent]:
        return [e for e in self.entries if e.outcome == "error"]

    def retry_count(self, block: int, op: str) -> int:
        """Requests for *block* beyond the first — i.e. retries."""
        n = sum(1 for e in self.entries if e.op == op and e.block == block)
        return max(0, n - 1)

    def render(self, limit: Optional[int] = None) -> str:
        entries = self.entries
        rows = entries if limit is None else entries[:limit]
        lines = [
            f"{e.op:5} block={e.block:<8} {e.outcome:9}"
            + (f" type={e.block_type}" if e.block_type else "")
            for e in rows
        ]
        if limit is not None and len(entries) > limit:
            lines.append(f"... ({len(entries) - limit} more)")
        return "\n".join(lines)
