"""Write-recording device layer: the *record* side of crash testing.

Sits at the very top of a :class:`~repro.disk.stack.DeviceStack` and
emits one :class:`~repro.obs.events.WriteImageEvent` — block number
plus full payload — into the stack's shared event stream for every
write that passes through.  Interleaved with the journal framing's
``JournalCommitEvent``\\ s, the stream becomes an ordered, replayable
record of exactly what reached the device and in what order, which is
what the crash-state exploration engine (:mod:`repro.crash`) enumerates
prefixes and torn variants of.

Recording is pass-through for reads and adds no virtual disk time; it
observes *above* the fault injector, so what it records is what the
file system asked for (a dropped or corrupted write still records the
intended image — the crash engine replays intent, the injector models
the medium).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.disk.disk import BlockDevice
from repro.obs.events import EventLog, WriteImageEvent


class WriteRecorder:
    """Transparent top-of-stack layer recording every write's payload."""

    def __init__(self, lower: BlockDevice, events: EventLog):
        self.lower = lower
        self.events = events
        #: Write images captured since construction (metrics source).
        self.recorded = 0

    @property
    def num_blocks(self) -> int:
        return self.lower.num_blocks

    @property
    def block_size(self) -> int:
        return self.lower.block_size

    def read_block(self, block: int) -> bytes:
        return self.lower.read_block(block)

    def write_block(self, block: int, data: bytes) -> None:
        self.events.emit(WriteImageEvent(block=block, data=bytes(data)))
        self.recorded += 1
        self.lower.write_block(block, data)

    # Vectored I/O is the per-block loop: each write image goes into the
    # shared stream just before its own write.

    def read_blocks(self, blocks: Sequence[int]) -> List[bytes]:
        return [self.read_block(block) for block in blocks]

    def write_blocks(self, blocks: Sequence[int],
                     payloads: Sequence[bytes]) -> None:
        if len(payloads) != len(blocks):
            raise ValueError("write_blocks needs one payload per block")
        for block, data in zip(blocks, payloads):
            self.write_block(block, data)

    # -- uniform stack lifecycle --------------------------------------------

    def flush(self) -> None:
        self.lower.flush()

    def snapshot(self):
        return self.lower.snapshot()

    def restore(self, snapshot) -> None:
        self.lower.restore(snapshot)

    def stall(self, seconds: float) -> None:
        stall = getattr(self.lower, "stall", None)
        if stall is not None:
            stall(seconds)

    @property
    def clock(self) -> float:
        return getattr(self.lower, "clock", 0.0)

    @property
    def stats(self):
        return getattr(self.lower, "stats", None)
