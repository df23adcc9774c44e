"""The pre-slab reference disk: list-of-blocks storage, copying snapshots.

:class:`LegacyListDisk` preserves the original ``SimulatedDisk``
semantics from before the zero-copy slab substrate: contents live in a
``List[Optional[bytes]]``, ``snapshot()`` copies the whole list, and
``restore()`` copies it back.  It exists purely as a differential
oracle — the substrate test suite runs identical workloads over both
implementations and asserts byte-identical policy observations, event
digests, and virtual-clock accounting.  Nothing in the production path
imports it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.common.errors import OutOfRangeError, ReadError, WriteError
from repro.disk.disk import DiskStats
from repro.disk.geometry import DiskGeometry


class LegacyListDisk:
    """Reference implementation of the ``SimulatedDisk`` surface with
    the historical copying snapshot/restore semantics."""

    def __init__(self, geometry: DiskGeometry):
        self.geometry = geometry
        self._blocks: List[Optional[bytes]] = [None] * geometry.num_blocks
        self._zero = b"\x00" * geometry.block_size
        self._written_since_restore: Set[int] = set()
        self._head = 0
        self.clock = 0.0
        self.stats = DiskStats()
        self.failed = False
        self.events = None
        self.latency_observer = None

    # -- BlockDevice protocol ----------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.geometry.num_blocks

    @property
    def block_size(self) -> int:
        return self.geometry.block_size

    def read_block(self, block: int) -> bytes:
        self._check_range(block, "read")
        if self.failed:
            raise ReadError(block, "whole-disk failure")
        self._charge(block, is_write=False)
        self.stats.reads += 1
        self.stats.bytes_read += self.block_size
        data = self._blocks[block]
        return self._zero if data is None else data

    def write_block(self, block: int, data: bytes) -> None:
        self._check_range(block, "write")
        if self.failed:
            raise WriteError(block, "whole-disk failure")
        if len(data) != self.block_size:
            raise ValueError(
                f"write of {len(data)} bytes to device with {self.block_size}-byte blocks"
            )
        self._charge(block, is_write=True)
        self.stats.writes += 1
        self.stats.bytes_written += self.block_size
        self._blocks[block] = bytes(data)
        self._written_since_restore.add(block)

    def flush(self) -> None:
        pass

    # -- time ---------------------------------------------------------------

    def stall(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot stall for negative time")
        self.clock += seconds
        self.stats.busy_time_s += seconds

    def _charge(self, block: int, is_write: bool = False) -> None:
        geometry = self.geometry
        head = self._head
        t = geometry.service_time(block - head, is_write)
        if block != head and block != head + 1:
            self.stats.seeks += 1
        self.clock += t
        self.stats.busy_time_s += t
        self._head = block
        if self.latency_observer is not None:
            self.latency_observer("write" if is_write else "read", t)

    # -- control -------------------------------------------------------------

    def fail_whole_disk(self) -> None:
        self.failed = True

    def revive(self) -> None:
        self.failed = False

    def peek(self, block: int) -> bytes:
        self._check_range(block, "read")
        data = self._blocks[block]
        return self._zero if data is None else data

    def peek_view(self, block: int):
        return self.peek(block)

    def poke(self, block: int, data: bytes) -> None:
        self._check_range(block, "write")
        if len(data) != self.block_size:
            raise ValueError("poke payload must be exactly one block")
        self._blocks[block] = bytes(data)
        self._written_since_restore.add(block)

    # -- slab-surface compatibility ------------------------------------------
    #
    # The stack and the gray-box oracle probe for copy-on-write state;
    # the legacy disk reports "no shared base image", which sends every
    # consumer down its uncached path.

    @property
    def base_image(self):
        return None

    @property
    def dirty_count(self) -> int:
        return len(self._written_since_restore)

    def any_dirty_in(self, blocks: Iterable[int]) -> bool:
        dirty = self._written_since_restore
        return any(b in dirty for b in blocks)

    def dirty_contents(self, blocks: Iterable[int]) -> tuple:
        dirty = self._written_since_restore
        return tuple((b, self._blocks[b]) for b in blocks if b in dirty)

    def fingerprint_matches(self, blocks: Iterable[int], fp: tuple) -> bool:
        return self.dirty_contents(blocks) == fp

    def dirty_items(self) -> list:
        blocks = self._blocks
        return sorted((b, bytes(blocks[b])) for b in self._written_since_restore)

    # -- snapshot / restore (the historical copying semantics) ---------------

    def snapshot(self) -> List[Optional[bytes]]:
        return list(self._blocks)

    def restore(self, snapshot) -> None:
        if len(snapshot) != self.num_blocks:
            raise ValueError("snapshot size does not match device")
        self._blocks = [snapshot[i] for i in range(self.num_blocks)]
        self._written_since_restore = set()
        self._head = 0
        self.clock = 0.0
        self.stats.reset()
        self.failed = False

    def _check_range(self, block: int, op: str) -> None:
        if not 0 <= block < self.num_blocks:
            raise OutOfRangeError(block, op, self.num_blocks)

    def __repr__(self) -> str:
        return (f"LegacyListDisk(blocks={self.num_blocks}, "
                f"bs={self.block_size}, clock={self.clock:.4f}s)")


def make_legacy_disk(num_blocks: int, block_size: int = 4096,
                     **timing) -> LegacyListDisk:
    return LegacyListDisk(DiskGeometry(num_blocks=num_blocks,
                                       block_size=block_size, **timing))
