"""The simulated disk: a byte-accurate block store with virtual time.

This is the bottom of the storage stack (Figure 1).  It models the
*fail-partial* failure surface passively — failures themselves are
introduced by the :class:`~repro.disk.injector.FaultInjector` layered
above, mirroring the paper's software fault-injection layer beneath the
file system.  The disk also models whole-disk failure (the classic
fail-stop case) directly, since that belongs to the device.

Contents live in a **slab**: one contiguous immutable ``bytes`` image
(:class:`SlabImage`) shared copy-on-write between the device and every
snapshot taken from it, plus a dirty-block bitmap and a privatized
delta for blocks written since the last :meth:`SimulatedDisk.restore`.
Snapshots of a clean device and every restore are O(1) aliasing — no
per-block copying — which is what lets the fingerprinting harness
restore one golden image hundreds of times per matrix and the crash
engine ship golden images between processes as a single buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, Optional, Protocol, Sequence, Tuple,
    runtime_checkable,
)

from repro.common.errors import OutOfRangeError, ReadError, WriteError
from repro.common.structs import interned
from repro.disk.geometry import DiskGeometry


class SlabImage:
    """An immutable full-disk image backed by one contiguous slab.

    ``data`` is ``num_blocks * block_size`` bytes; ``written`` is a
    per-block bitmap distinguishing blocks that were actually written
    from never-touched (all-zero) ones, which :meth:`block` reports as
    ``None``.  The image is the
    unit of copy-on-write sharing: :meth:`SimulatedDisk.restore`
    aliases it in O(1) and writes privatize blocks into the device's
    delta, so an image may back any number of devices at once.  It
    crosses a process boundary by pickling (:meth:`__reduce__`): a
    pool worker gets its own copy of the slab.

    ``meta`` is a free-form per-process cache that layers above hang
    derived state on (e.g. the gray-box block-type oracle caches its
    reconstruction keyed by the blocks it depends on); it never crosses
    process boundaries and never affects the image's identity.
    """

    __slots__ = ("data", "num_blocks", "block_size", "written", "meta",
                 "_view", "_blocks")

    def __init__(self, data, num_blocks: int, block_size: int,
                 written: bytes):
        # data may be bytes or any readable buffer — the image never
        # mutates it either way.
        if len(data) != num_blocks * block_size:
            raise ValueError("slab length does not match geometry")
        if len(written) != num_blocks:
            raise ValueError("written bitmap length does not match geometry")
        self.data = data
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.written = written
        self.meta: Dict = {}
        self._view = memoryview(data)
        self._blocks: Dict[int, bytes] = {}  # lazily materialized bytes

    def view(self, block: int) -> memoryview:
        """Zero-copy read-only view of one block's contents."""
        off = block * self.block_size
        return self._view[off:off + self.block_size]

    def block(self, block: int) -> Optional[bytes]:
        """Materialized ``bytes`` for *block*, ``None`` if never written.

        Materializations are cached on the image, so repeated reads of
        the same block across any number of restores cost one slice.
        """
        if not self.written[block]:
            return None
        cached = self._blocks.get(block)
        if cached is None:
            off = block * self.block_size
            cached = bytes(self._view[off:off + self.block_size])
            self._blocks[block] = cached
        return cached

    def __eq__(self, other) -> bool:
        if isinstance(other, SlabImage):
            return (self.block_size == other.block_size
                    and self.written == other.written
                    and self._view == other._view)
        return NotImplemented

    def __reduce__(self):
        # meta and the materialization cache are per-process; a
        # buffer-backed slab pickles as its bytes copy.
        return (SlabImage, (bytes(self.data), self.num_blocks,
                            self.block_size, self.written))

    def __repr__(self) -> str:
        populated = sum(self.written)
        return (f"SlabImage(blocks={self.num_blocks}, bs={self.block_size}, "
                f"written={populated})")


@runtime_checkable
class BlockDevice(Protocol):
    """The block-device interface every layer of the stack implements.

    The file system only ever sees this protocol, so a raw disk, a fault
    injector, a cache — or a whole :class:`~repro.disk.stack.DeviceStack`
    — can be stacked interchangeably.  Beyond the data path, every layer
    implements the uniform lifecycle: ``flush()`` drains buffered state,
    ``snapshot()``/``restore()`` capture and rewind contents (each layer
    propagates downward and invalidates its own state on restore), and
    ``stats`` exposes the raw device's cumulative accounting.
    """

    @property
    def num_blocks(self) -> int: ...

    @property
    def block_size(self) -> int: ...

    def read_block(self, block: int) -> bytes: ...

    def write_block(self, block: int, data: bytes) -> None: ...

    def flush(self) -> None: ...

    def snapshot(self) -> SlabImage: ...

    def restore(self, snapshot: SlabImage) -> None: ...

    @property
    def stats(self) -> Optional["DiskStats"]: ...


@dataclass
class DiskStats:
    """Cumulative accounting for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    busy_time_s: float = 0.0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.seeks = 0
        self.busy_time_s = 0.0

    def merge(self, other: "DiskStats") -> "DiskStats":
        """Fold *other* into this accounting (associative, in place).

        Mirrors ``MetricsRegistry.merge``: every counter sums, so stats
        from thousands of per-member devices — or per-trial aggregates
        produced in any order by a process pool — compose into one
        fleet-wide total.  Returns ``self`` so ``functools.reduce``
        chains read naturally.
        """
        self.reads += other.reads
        self.writes += other.writes
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.seeks += other.seeks
        self.busy_time_s += other.busy_time_s
        return self


class DirtyDelta:
    """The dirty-block delta of a copy-on-write device: which blocks
    were written since the last restore, and with what.

    Methods only — shared by :class:`SimulatedDisk` (raw blocks over
    its base slab) and the logical face of a redundancy array.  The
    owner calls :meth:`_reset_dirty` when it is built and whenever it
    restores, and :meth:`_put` for every block it stores.
    """

    def _reset_dirty(self, num_blocks: int) -> None:
        self._dirty = bytearray(num_blocks)  # 1 = privatized since restore
        self._dirty_count = 0
        self._delta: Dict[int, bytes] = {}   # privatized block contents

    def _put(self, block: int, data: bytes) -> None:
        self._delta[block] = data
        if not self._dirty[block]:
            self._dirty[block] = 1
            self._dirty_count += 1

    @property
    def dirty_count(self) -> int:
        """Number of blocks privatized since the last restore."""
        return self._dirty_count

    def any_dirty_in(self, blocks: Iterable[int]) -> bool:
        """True when any of *blocks* was written since the last restore.
        Used by gray-box consumers to decide whether state derived from
        :attr:`base_image` is still valid."""
        dirty = self._dirty
        return any(dirty[b] for b in blocks)

    def dirty_contents(self, blocks: Iterable[int]) -> tuple:
        """``(block, payload)`` for each of *blocks* privatized since the
        last restore, in the given order.  Together with the (immutable)
        base image this fingerprints everything a gray-box walk over
        *blocks* could observe, so derived state memoized on the image
        can be revalidated content-exactly instead of being discarded on
        any write."""
        dirty = self._dirty
        delta = self._delta
        return tuple((b, delta[b]) for b in blocks if dirty[b])

    def dirty_items(self) -> List[Tuple[int, bytes]]:
        """Every privatized ``(block, payload)`` pair, sorted by block —
        ``dirty_contents(range(num_blocks))`` without the full-range
        scan (the delta map holds exactly the dirty set)."""
        return sorted(self._delta.items())

    def fingerprint_matches(self, blocks: Iterable[int], fp: tuple) -> bool:
        """Does ``dirty_contents(blocks)`` equal *fp*?  Equivalent to
        building the tuple and comparing, but bails at the first
        mismatching block so a stale cache entry costs one bitmap scan
        plus at most one payload compare."""
        dirty = self._dirty
        delta = self._delta
        i = 0
        n = len(fp)
        for b in blocks:
            if dirty[b]:
                if i >= n:
                    return False
                entry = fp[i]
                if entry[0] != b or delta[b] != entry[1]:
                    return False
                i += 1
        return i == n

    def capture_delta(self) -> Tuple[tuple, tuple]:
        """The delta's blocks and their contents, in insertion order,
        immune to later writes.  After a restore of the same base,
        :meth:`install_delta` rebuilds a state made by pokes without
        them (the crash engine's chained states).  Two flat tuples, not
        a dict copy: captures live as long as a recording, and many
        dict tables of that lifetime fragment the heap around the
        short-lived block payloads (``crash_explore``'s peak RSS)."""
        return tuple(self._delta), tuple(self._delta.values())

    def install_delta(self, captured: Tuple[tuple, tuple]) -> None:
        """Make the delta exactly *captured* (see :meth:`capture_delta`)."""
        blocks, payloads = captured
        self._reset_dirty(len(self._dirty))
        self._delta.update(zip(blocks, payloads))
        dirty = self._dirty
        for block in blocks:
            dirty[block] = 1
        self._dirty_count = len(blocks)


class SimulatedDisk(DirtyDelta):
    """An in-memory disk with a seek/rotation/transfer timing model.

    Virtual time accumulates in :attr:`clock`; higher layers (the journal
    commit path in particular) may add explicit stalls via
    :meth:`stall`, which is how commit-ordering waits are charged.

    Contents are stored copy-on-write over a slab: a shared immutable
    base :class:`SlabImage` (the golden snapshot the fingerprinting
    harness restores between fault-injection cells) plus a dirty-block
    bitmap and a private *delta* of blocks written since.
    :meth:`restore` therefore aliases the snapshot in O(1) instead of
    copying the whole image, :meth:`snapshot` of a clean device is an
    O(1) freeze, and the image itself is never modified — every write
    privatizes the block into the delta.
    """

    def __init__(self, geometry: DiskGeometry):
        self.geometry = geometry
        self._image: Optional[SlabImage] = None  # base slab (None = all zeros)
        self._reset_dirty(geometry.num_blocks)
        self._zero = b"\x00" * geometry.block_size
        self._head = 0
        self.clock = 0.0
        self.stats = DiskStats()
        self.failed = False  # whole-disk (fail-stop) failure
        #: Shared typed-event stream, when this disk is part of a
        #: DeviceStack (upper layers and the mounted FS adopt it).
        self.events = None
        #: Optional ``(op, seconds)`` callback invoked with each
        #: request's virtual service time — the metrics layer hangs a
        #: latency histogram here (virtual time, so deterministic).
        self.latency_observer = None

    # -- BlockDevice protocol ----------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.geometry.num_blocks

    @property
    def block_size(self) -> int:
        return self.geometry.block_size

    def read_block(self, block: int) -> bytes:
        geometry = self.geometry
        if not 0 <= block < geometry.num_blocks:
            self._check_range(block, "read")
        if self.failed:
            raise ReadError(block, "whole-disk failure")
        head = self._head
        t = geometry.service_time(block - head, False)
        stats = self.stats
        if block != head and block != head + 1:
            stats.seeks += 1
        self.clock += t
        stats.busy_time_s += t
        self._head = block
        if self.latency_observer is not None:
            self.latency_observer("read", t)
        stats.reads += 1
        stats.bytes_read += geometry.block_size
        if self._dirty[block]:
            return self._delta[block]
        if self._image is not None:
            data = self._image.block(block)
            if data is not None:
                return data
        return self._zero

    def write_block(self, block: int, data: bytes) -> None:
        geometry = self.geometry
        if not 0 <= block < geometry.num_blocks:
            self._check_range(block, "write")
        if self.failed:
            raise WriteError(block, "whole-disk failure")
        if len(data) != geometry.block_size:
            raise ValueError(
                f"write of {len(data)} bytes to device with {self.block_size}-byte blocks"
            )
        head = self._head
        t = geometry.service_time(block - head, True)
        stats = self.stats
        if block != head and block != head + 1:
            stats.seeks += 1
        self.clock += t
        stats.busy_time_s += t
        self._head = block
        if self.latency_observer is not None:
            self.latency_observer("write", t)
        stats.writes += 1
        stats.bytes_written += geometry.block_size
        self._put(block, bytes(data))

    # -- vectored I/O ---------------------------------------------------------
    #
    # Contract: observably identical to calling the per-block method on
    # each block in turn — same payloads, the same exception raised at
    # the same block with every earlier block already served, and the
    # same stats, head and clock (accumulated by the same sequence of
    # float adds).  Only the per-call dispatch is saved.

    def read_blocks(self, blocks: Sequence[int]) -> List[bytes]:
        """Vectored :meth:`read_block`."""
        if self.latency_observer is not None:
            # The observer may look at the device between requests.
            return [self.read_block(block) for block in blocks]
        geometry = self.geometry
        num_blocks = geometry.num_blocks
        block_size = geometry.block_size
        service_time = geometry.service_time
        dirty = self._dirty
        delta = self._delta
        image = self._image
        zero = self._zero
        failed = self.failed
        stats = self.stats
        head = self._head
        clock = self.clock
        busy = stats.busy_time_s
        seeks = 0
        out: List[bytes] = []
        try:
            for block in blocks:
                if not 0 <= block < num_blocks:
                    self._check_range(block, "read")
                if failed:
                    raise ReadError(block, "whole-disk failure")
                t = service_time(block - head, False)
                if block != head and block != head + 1:
                    seeks += 1
                clock += t
                busy += t
                head = block
                data = delta[block] if dirty[block] else (
                    image.block(block) if image is not None else None)
                out.append(zero if data is None else data)
        finally:
            self._head = head
            self.clock = clock
            stats.busy_time_s = busy
            stats.seeks += seeks
            stats.reads += len(out)
            stats.bytes_read += len(out) * block_size
        return out

    def write_blocks(self, blocks: Sequence[int],
                     payloads: Sequence[bytes]) -> None:
        """Vectored :meth:`write_block` (``payloads[i]`` to ``blocks[i]``)."""
        if len(payloads) != len(blocks):
            raise ValueError("write_blocks needs one payload per block")
        if self.latency_observer is not None:
            for block, data in zip(blocks, payloads):
                self.write_block(block, data)
            return
        geometry = self.geometry
        num_blocks = geometry.num_blocks
        block_size = geometry.block_size
        service_time = geometry.service_time
        failed = self.failed
        stats = self.stats
        head = self._head
        clock = self.clock
        busy = stats.busy_time_s
        seeks = 0
        written = 0
        try:
            for block, data in zip(blocks, payloads):
                if not 0 <= block < num_blocks:
                    self._check_range(block, "write")
                if failed:
                    raise WriteError(block, "whole-disk failure")
                if len(data) != block_size:
                    raise ValueError(
                        f"write of {len(data)} bytes to device with "
                        f"{block_size}-byte blocks")
                t = service_time(block - head, True)
                if block != head and block != head + 1:
                    seeks += 1
                clock += t
                busy += t
                head = block
                self._put(block, bytes(data))
                written += 1
        finally:
            self._head = head
            self.clock = clock
            stats.busy_time_s = busy
            stats.seeks += seeks
            stats.writes += written
            stats.bytes_written += written * block_size

    def flush(self) -> None:
        """Commit buffered state to the medium.  The simulated disk
        writes through, so this is a barrier with no I/O of its own."""

    # -- time ---------------------------------------------------------------

    def stall(self, seconds: float) -> None:
        """Advance virtual time without moving data (ordering waits,
        rotational delays imposed by synchronous commit protocols)."""
        if seconds < 0:
            raise ValueError("cannot stall for negative time")
        self.clock += seconds
        self.stats.busy_time_s += seconds

    # -- control -------------------------------------------------------------

    def fail_whole_disk(self) -> None:
        """Fail-stop the entire device (§2.3: entire disk failure)."""
        self.failed = True

    def revive(self) -> None:
        self.failed = False

    def peek(self, block: int) -> bytes:
        """Read raw contents without advancing time or stats (gray-box
        access used by the type oracle, fsck and tests; never the data
        path the file systems are charged for)."""
        self._check_range(block, "read")
        data = self._get(block)
        return self._zero if data is None else data

    def peek_view(self, block: int):
        """Zero-copy variant of :meth:`peek`: a buffer (memoryview or
        ``bytes``) over the block's raw contents, valid until the next
        write to that block.  Callers must not mutate it."""
        self._check_range(block, "read")
        if self._dirty[block]:
            return self._delta[block]
        if self._image is not None and self._image.written[block]:
            return self._image.view(block)
        return self._zero

    def poke(self, block: int, data: bytes) -> None:
        """Overwrite raw contents out-of-band (used by fault injection to
        model corruption that happened at rest)."""
        self._check_range(block, "write")
        if len(data) != self.block_size:
            raise ValueError("poke payload must be exactly one block")
        self._put(block, bytes(data))

    # -- copy-on-write slab state --------------------------------------------

    @property
    def base_image(self) -> Optional[SlabImage]:
        """The slab image this device was last restored from (or None)."""
        return self._image

    def frozen_view(self) -> "FrozenView":
        """What :meth:`peek` and :meth:`peek_view` return now, for a
        reader that runs later (copies the delta, no block)."""
        image = self._image
        return FrozenView(self, image, None if image is None else image.meta)

    def snapshot(self) -> SlabImage:
        """Frozen image of the raw block contents (harness golden
        images).  The image is immutable and independent of the
        device's future writes; a clean device (no writes since the
        last restore) returns its base image in O(1) with no per-block
        work."""
        if self._dirty_count == 0 and self._image is not None:
            return self._image
        n, bs = self.num_blocks, self.block_size
        base = self._image
        if base is not None:
            merged = bytearray(base.data)
            written = bytearray(base.written)
        else:
            merged = bytearray(n * bs)
            written = bytearray(n)
        for block, data in self._delta.items():
            off = block * bs
            merged[off:off + bs] = data
            written[block] = 1
        return SlabImage(bytes(merged), n, bs, bytes(written))

    def restore(self, snapshot: SlabImage) -> None:
        """Restore contents from a snapshot; resets head, clock and stats.

        Copy-on-write: the image becomes the shared base slab in O(1)
        — no per-block copy — and subsequent writes privatize blocks
        into the delta, so the image itself is never mutated and may be
        restored any number of times.  Anything but a :class:`SlabImage`
        of this device's geometry raises ``ValueError``.
        """
        if not isinstance(snapshot, SlabImage):
            raise ValueError(
                f"snapshot is a {type(snapshot).__name__}, not a SlabImage")
        if (snapshot.num_blocks, snapshot.block_size) != (
                self.num_blocks, self.block_size):
            raise ValueError("snapshot geometry does not match device")
        self._image = snapshot
        if self._dirty_count:
            self._reset_dirty(self.num_blocks)
        self._head = 0
        self.clock = 0.0
        self.stats.reset()
        self.failed = False

    def _get(self, block: int) -> Optional[bytes]:
        if self._dirty[block]:
            return self._delta[block]
        if self._image is not None:
            return self._image.block(block)
        return None

    def _check_range(self, block: int, op: str) -> None:
        if not 0 <= block < self.num_blocks:
            raise OutOfRangeError(block, op, self.num_blocks)

    def __repr__(self) -> str:
        return (
            f"SimulatedDisk(blocks={self.num_blocks}, bs={self.block_size}, "
            f"clock={self.clock:.4f}s)"
        )


class FrozenView(DirtyDelta):
    """A device's contents at one instant: its base image plus a copy
    of its delta and dirty bitmap, peeked by
    :class:`SimulatedDisk`'s own code.  A gray-box reader that runs
    later — the block-type walk a file system defers to its first
    query — sees what the device held when frozen, whatever was
    written or restored since.  :attr:`meta` is that base image's memo
    dict (None without one)."""

    def __init__(self, device: DirtyDelta, image: Optional[SlabImage],
                 meta: Optional[Dict]):
        self._image = image
        self._dirty = bytes(device._dirty)
        self._delta = dict(device._delta)
        self._dirty_count = device._dirty_count
        self.num_blocks = len(self._dirty)
        self._zero = device._zero
        self.meta = meta

    peek = SimulatedDisk.peek
    peek_view = SimulatedDisk.peek_view
    _get = SimulatedDisk._get
    _check_range = SimulatedDisk._check_range


def make_disk(num_blocks: int, block_size: int = 4096, **timing) -> SimulatedDisk:
    """Convenience constructor used by tests, examples and benchmarks:
    disks of one shape share one interned geometry."""
    return SimulatedDisk(interned(DiskGeometry, num_blocks=num_blocks,
                                  block_size=block_size, **timing))
