"""A write-through LRU block cache (the host's buffer cache).

Sits between the file system and the device.  Read hits cost no disk
time — this is what makes read-intensive workloads (the web server
benchmark) insensitive to IRON read-path additions, as Table 6 shows.
Writes go straight through so that ordering-sensitive journaling code
observes real device behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence

from repro.disk.disk import BlockDevice


class BlockCache:
    """Write-through LRU cache over a :class:`BlockDevice`."""

    def __init__(self, lower: BlockDevice, capacity_blocks: int = 1024):
        if capacity_blocks <= 0:
            raise ValueError("cache needs at least one slot")
        self.lower = lower
        self.capacity = capacity_blocks
        self._lru: "OrderedDict[int, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def num_blocks(self) -> int:
        return self.lower.num_blocks

    @property
    def block_size(self) -> int:
        return self.lower.block_size

    def read_block(self, block: int) -> bytes:
        if block in self._lru:
            self.hits += 1
            self._lru.move_to_end(block)
            return self._lru[block]
        self.misses += 1
        data = self.lower.read_block(block)
        self._insert(block, data)
        return data

    def write_block(self, block: int, data: bytes) -> None:
        # Write-through: device errors propagate before the cache is
        # updated, so a failed write never leaves stale "clean" data.
        self.lower.write_block(block, data)
        self._insert(block, bytes(data))

    # Vectored I/O is the per-block loop: hits and LRU order need each
    # block's own visit.

    def read_blocks(self, blocks: Sequence[int]) -> List[bytes]:
        return [self.read_block(block) for block in blocks]

    def write_blocks(self, blocks: Sequence[int],
                     payloads: Sequence[bytes]) -> None:
        if len(payloads) != len(blocks):
            raise ValueError("write_blocks needs one payload per block")
        for block, data in zip(blocks, payloads):
            self.write_block(block, data)

    def invalidate_all(self) -> None:
        self._lru.clear()

    # -- uniform stack lifecycle --------------------------------------------

    def flush(self) -> None:
        """Write-through: nothing dirty here; propagate the barrier."""
        self.lower.flush()

    def snapshot(self):
        return self.lower.snapshot()

    def restore(self, snapshot) -> None:
        """Rewind the device AND invalidate the LRU — a restored disk
        must never serve pre-restore cached blocks."""
        self.lower.restore(snapshot)
        self.invalidate_all()
        self.reset_stats()

    # -- statistics (read by the harnesses and the metrics layer) ------------

    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without disturbing cached data."""
        self.hits = 0
        self.misses = 0

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

    @property
    def events(self):
        """The stack's shared typed-event stream, when one exists below."""
        return getattr(self.lower, "events", None)

    def _insert(self, block: int, data: bytes) -> None:
        self._lru[block] = data
        self._lru.move_to_end(block)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def __repr__(self) -> str:
        return f"BlockCache(capacity={self.capacity}, hits={self.hits}, misses={self.misses})"
