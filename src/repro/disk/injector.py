"""The fault-injection layer (§4.2).

A pseudo-device sitting directly beneath the file system.  It implements
the same :class:`~repro.disk.disk.BlockDevice` protocol as the disk, so
the file system cannot tell it is there.  On each request it consults the
armed :class:`~repro.disk.faults.Fault` set:

* block failure — return the appropriate error code and *do not* issue
  the operation to the underlying disk;
* corruption — read the real data, alter it (random noise or a
  corrupted-field block similar to the expected one), and return it.

Type-aware injection needs to know what each block currently *is* to the
file system; the injector gets this from a *type oracle*, a callable
``block -> type-name`` registered by the harness using gray-box
knowledge of the mounted file system's layout.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.common.errors import ReadError, WriteError
from repro.disk.disk import BlockDevice
from repro.disk.faults import Fault, FaultKind
from repro.obs.events import EventLog, FaultArmedEvent, IOEvent, io_event

TypeOracle = Callable[[int], Optional[str]]


class FaultInjector:
    """Stackable fault-injecting block device.

    Also records the low-level I/O trace — the third observable of the
    fingerprinting methodology.  Every request becomes a typed
    :class:`~repro.obs.events.IOEvent` in the stream the injector is
    given (its *events* argument, else its lower device's ``events``).
    With neither, ``self.events`` is None and nothing is recorded: an
    array member's injector pays for the disk access and the fault
    match only.
    """

    def __init__(
        self,
        lower: BlockDevice,
        type_oracle: Optional[TypeOracle] = None,
        events: Optional[EventLog] = None,
    ):
        self.lower = lower
        self.type_oracle = type_oracle
        self.faults: List[Fault] = []
        if events is None:
            events = getattr(lower, "events", None)
        self.events: Optional[EventLog] = events

    # -- configuration ------------------------------------------------------

    def arm(self, fault: Fault) -> Fault:
        """Arm a fault; returns it for later inspection."""
        self.faults.append(fault)
        if self.events is not None:
            self.events.emit(FaultArmedEvent(
                op=fault.op.value,
                fault_kind=fault.kind.value,
                block=fault.block,
                block_type=fault.block_type,
            ))
        return fault

    def disarm(self, fault: Fault) -> None:
        self.faults.remove(fault)

    def clear_faults(self) -> None:
        self.faults.clear()

    def set_type_oracle(self, oracle: Optional[TypeOracle]) -> None:
        self.type_oracle = oracle

    # -- BlockDevice protocol -------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.lower.num_blocks

    @property
    def block_size(self) -> int:
        return self.lower.block_size

    def read_block(self, block: int) -> bytes:
        oracle = self.type_oracle
        events = self.events
        if oracle is None and not self.faults:
            # Nothing armed, nothing to type: pass straight through.
            data = self.lower.read_block(block)
            if events is not None:
                events.emit(io_event("read", block, "ok"))
            return data
        # One oracle call per request; the first matching fault decides.
        btype = None if oracle is None else oracle(block)
        for fault in self.faults:
            if fault.matches("read", block, btype):
                if fault.consume(block):
                    if fault.kind is FaultKind.FAIL:
                        self._record("read", block, "error", btype)
                        raise ReadError(block, f"injected: {fault.describe()}")
                    bad = fault.corrupt(self.lower.read_block(block), btype)
                    self._record("read", block, "corrupted", btype)
                    return bad
                break
        data = self.lower.read_block(block)
        if events is not None:
            events.emit(io_event("read", block, "ok", btype))
        return data

    def write_block(self, block: int, data: bytes) -> None:
        oracle = self.type_oracle
        events = self.events
        if oracle is None and not self.faults:
            self.lower.write_block(block, data)
            if events is not None:
                events.emit(io_event("write", block, "ok"))
            return
        btype = None if oracle is None else oracle(block)
        for fault in self.faults:
            if fault.matches("write", block, btype):
                if fault.consume(block):
                    if fault.kind is FaultKind.FAIL:
                        # The operation never reaches the medium.
                        self._record("write", block, "error", btype)
                        raise WriteError(block, f"injected: {fault.describe()}")
                    # Corrupt-on-write: store altered data but report
                    # success (a misdirected/phantom-style firmware fault).
                    self._record("write", block, "corrupted", btype)
                    self.lower.write_block(block, fault.corrupt(data, btype))
                    return
                break
        self.lower.write_block(block, data)
        if events is not None:
            events.emit(io_event("write", block, "ok", btype))

    def _record(self, op: str, block: int, outcome: str,
                btype: Optional[str]) -> None:
        if self.events is not None:
            self.events.emit(io_event(op, block, outcome, btype))

    # -- vectored I/O -------------------------------------------------------------
    #
    # Same contract as the disk's: observably identical to the per-block
    # loop — payloads, the exception and the block it is raised at, the
    # lower device's accounting, fault state, and the IOEvents in order.

    def clean_prefix(self, op: str, blocks: Sequence[int]) -> int:
        """How many leading *blocks* no armed fault would match for *op*
        right now.  A pure query: nothing is consumed, emitted or
        charged, and the answer holds until a fault is armed or one of
        its accesses is consumed (requests on clean blocks do neither)."""
        faults = self.faults
        if not faults:
            return len(blocks)
        oracle = self.type_oracle
        if oracle is None:
            # Untyped: every fault's reach is a block range, known now.
            hit: set = set()
            for fault in faults:
                hit.update(fault.extent(op) or ())
            if hit.isdisjoint(blocks):
                return len(blocks)
            return next(i for i, block in enumerate(blocks) if block in hit)
        for i, block in enumerate(blocks):
            btype = oracle(block)
            for fault in faults:
                if fault.matches(op, block, btype):
                    return i
        return len(blocks)

    def _vectored_prefix(self, op: str, blocks: Sequence[int]) -> int:
        """Leading blocks the lower device can take as one vectored
        call: it has the method, no oracle types the requests, and no
        fault matches them."""
        if self.type_oracle is not None or not hasattr(self.lower, op + "_blocks"):
            return 0
        return self.clean_prefix(op, blocks)

    def read_blocks(self, blocks: Sequence[int]) -> List[bytes]:
        """Vectored :meth:`read_block`."""
        clean = self._vectored_prefix("read", blocks)
        out: List[bytes] = []
        if clean:
            run = blocks[:clean]
            stats = self.lower.stats
            served = stats.reads
            try:
                out = self.lower.read_blocks(run)
            finally:
                # The lower device's own count says how far it got.
                if self.events is not None:
                    self.events.emit_many([io_event("read", block, "ok") for
                                           block in run[:stats.reads - served]])
        for block in blocks[clean:]:
            out.append(self.read_block(block))
        return out

    def write_blocks(self, blocks: Sequence[int],
                     payloads: Sequence[bytes]) -> None:
        """Vectored :meth:`write_block` (``payloads[i]`` to ``blocks[i]``)."""
        if len(payloads) != len(blocks):
            raise ValueError("write_blocks needs one payload per block")
        clean = self._vectored_prefix("write", blocks)
        if clean:
            run = blocks[:clean]
            stats = self.lower.stats
            served = stats.writes
            try:
                self.lower.write_blocks(run, payloads[:clean])
            finally:
                if self.events is not None:
                    self.events.emit_many([io_event("write", block, "ok") for
                                           block in run[:stats.writes - served]])
        for i in range(clean, len(blocks)):
            self.write_block(blocks[i], payloads[i])

    # -- uniform stack lifecycle ------------------------------------------------

    def flush(self) -> None:
        self.lower.flush()

    def snapshot(self):
        return self.lower.snapshot()

    def restore(self, snapshot) -> None:
        """Rewind the device and drop the I/O events from the stream it
        records into.  Armed faults are configuration, not device state
        — they stay armed."""
        self.lower.restore(snapshot)
        if self.events is not None:
            self.events.remove_where(lambda e: isinstance(e, IOEvent))

    # -- passthroughs to the raw disk (when present) ---------------------------

    def stall(self, seconds: float) -> None:
        stall = getattr(self.lower, "stall", None)
        if stall is not None:
            stall(seconds)

    @property
    def clock(self) -> float:
        return getattr(self.lower, "clock", 0.0)

    @property
    def stats(self):
        """The underlying device's :class:`DiskStats`, when it has one —
        lets the harness read raw traffic through the stack."""
        return getattr(self.lower, "stats", None)

    def __repr__(self) -> str:
        return f"FaultInjector(faults={len(self.faults)})"
