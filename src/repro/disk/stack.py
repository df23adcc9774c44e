"""Declarative composition of the block-device stack.

Every consumer used to hand-wire ``SimulatedDisk → FaultInjector →
BlockCache`` (the harness, the benchmark drivers, the CLI, every
example); :class:`DeviceStack` replaces that with one builder that
composes the layers in canonical order, shares a single typed
:class:`~repro.obs.events.EventLog` across them, and exposes the
uniform ``BlockDevice`` lifecycle — ``flush()``, ``snapshot()`` /
``restore()``, ``stats`` — propagated correctly through every layer
(the cache invalidates its LRU on restore, the injector drops its I/O
history, CoW snapshots alias in O(1) regardless of stacking order).

A ``DeviceStack`` is itself a ``BlockDevice``: mount a file system
directly on it and the FS joins the stack's event stream, so injected
errors, buffer-layer retries, journal commits, and policy actions
interleave in one ordered, replayable record.

Canonical order (bottom-up)::

    SimulatedDisk            the medium: CoW contents + timing model
      └─ FaultInjector       fail-partial faults + IOEvent emission
           └─ BlockCache     the host's write-through buffer cache
                └─ WriteRecorder   crash-engine write capture (record=True)

Any of the upper layers may be omitted; ``top`` is whatever ends up
uppermost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.disk.cache import BlockCache
from repro.disk.disk import BlockDevice, DiskStats, SimulatedDisk, make_disk
from repro.disk.injector import FaultInjector, TypeOracle
from repro.disk.recorder import WriteRecorder
from repro.obs.events import EventLog


def walk_devices(root) -> List[BlockDevice]:
    """Every device reachable from *root*, top-down.

    Follows ``.lower`` chains through stacked layers and descends into
    redundancy arrays (anything exposing ``.members`` whose entries
    carry a ``.device`` sub-stack), so a consumer auditing the
    composition — fault-armament checks, metrics sweeps, isinstance
    walks that used to assume ``DeviceStack.layers()`` was flat — sees
    the member disks and injectors of a nested array too.  An id-based
    guard makes accidental cycles terminate.
    """
    out: List[BlockDevice] = []
    seen = set()

    def visit(dev) -> None:
        if dev is None or id(dev) in seen:
            return
        seen.add(id(dev))
        out.append(dev)
        members = getattr(dev, "members", None)
        if members is not None:
            for member in members:
                visit(getattr(member, "device", member))
        visit(getattr(dev, "lower", None))

    if isinstance(root, DeviceStack):
        visit(root.top)
    else:
        visit(root)
    return out


class DeviceStack:
    """A composed block-device stack with one shared event stream."""

    def __init__(
        self,
        disk: BlockDevice,
        *,
        inject: bool = False,
        cache_blocks: Optional[int] = None,
        type_oracle: Optional[TypeOracle] = None,
        events: Optional[EventLog] = None,
        record: bool = False,
    ):
        self.events = events if events is not None else EventLog()
        self.disk = disk
        if getattr(disk, "events", None) is None:
            disk.events = self.events
        top: BlockDevice = disk
        self.injector: Optional[FaultInjector] = None
        if inject:
            self.injector = FaultInjector(top, type_oracle=type_oracle, events=self.events)
            top = self.injector
        self.cache: Optional[BlockCache] = None
        if cache_blocks:
            self.cache = BlockCache(top, cache_blocks)
            top = self.cache
        self.recorder: Optional[WriteRecorder] = None
        if record:
            # Uppermost, so it sees the file system's writes as issued —
            # the crash engine replays *intent*, not the injector's view.
            self.recorder = WriteRecorder(top, self.events)
            top = self.recorder
        self.top: BlockDevice = top

    @classmethod
    def build(
        cls,
        num_blocks: int,
        block_size: int = 4096,
        *,
        inject: bool = False,
        cache_blocks: Optional[int] = None,
        type_oracle: Optional[TypeOracle] = None,
        events: Optional[EventLog] = None,
        record: bool = False,
        array: Optional[str] = None,
        members: int = 2,
        **timing,
    ) -> "DeviceStack":
        """Build a fresh bottom device and compose the requested layers.

        By default the bottom is a bare :func:`make_disk`; pass
        ``array="mirror" | "parity" | "rdp"`` (with *members* copies /
        members / the RDP prime) to put a redundancy array there
        instead — everything above it composes identically.
        """
        if array is not None:
            from repro.redundancy.array import make_array

            bottom: BlockDevice = make_array(
                array, num_blocks, block_size, members=members, **timing)
        else:
            bottom = make_disk(num_blocks, block_size, **timing)
        return cls(
            bottom,
            inject=inject,
            cache_blocks=cache_blocks,
            type_oracle=type_oracle,
            events=events,
            record=record,
        )

    # -- BlockDevice protocol (delegates to the top layer) -------------------

    @property
    def num_blocks(self) -> int:
        return self.top.num_blocks

    @property
    def block_size(self) -> int:
        return self.top.block_size

    def read_block(self, block: int) -> bytes:
        return self.top.read_block(block)

    def write_block(self, block: int, data: bytes) -> None:
        self.top.write_block(block, data)

    def flush(self) -> None:
        self.top.flush()

    def snapshot(self):
        return self.top.snapshot()

    def restore(self, snapshot) -> None:
        """Rewind the whole stack: each layer restores its lower layer
        and invalidates its own state (cache LRU, I/O history).  The
        shared event stream drops its history too — and with it the
        high-water mark — so a consumer's next ``consume_new()`` never
        replays pre-restore events as if the rewound run emitted them."""
        self.top.restore(snapshot)
        self.events.clear()

    @property
    def stats(self) -> DiskStats:
        return self.disk.stats

    @property
    def clock(self) -> float:
        return self.disk.clock

    def stall(self, seconds: float) -> None:
        stall = getattr(self.top, "stall", None)
        if stall is not None:
            stall(seconds)

    # -- gray-box access (the FS's _raw_disk walk stops here) ----------------

    @property
    def geometry(self):
        return self.disk.geometry

    def peek(self, block: int) -> bytes:
        return self.disk.peek(block)

    def peek_view(self, block: int):
        return self.disk.peek_view(block)

    def poke(self, block: int, data: bytes) -> None:
        self.disk.poke(block, data)

    @property
    def frozen_view(self):
        """The raw disk's ``frozen_view`` method (None if it has none),
        for the block-type walk a mounted file system defers."""
        return getattr(self.disk, "frozen_view", None)

    # -- metrics -------------------------------------------------------------

    def observe_latencies(self, registry) -> None:
        """Feed the raw disk's per-request virtual service times into a
        ``repro_io_latency_seconds`` histogram on *registry*.  Virtual
        time is deterministic, so the histogram is too."""
        hist = {
            op: registry.histogram("repro_io_latency_seconds", op=op)
            for op in ("read", "write")
        }
        self.disk.latency_observer = lambda op, t: hist[op].observe(t)

    def collect_metrics(self, registry) -> None:
        """Export every layer's cumulative counters into *registry*.

        This is the single source the BENCH records and the Prometheus
        exporter both read (the same numbers, one origin): raw-device
        :class:`DiskStats`, buffer-cache hit/miss + hit rate, injector
        armed-fault count, and recorder write captures.
        """
        stats = self.disk.stats
        registry.counter("repro_device_reads_total").inc(stats.reads)
        registry.counter("repro_device_writes_total").inc(stats.writes)
        registry.counter("repro_device_bytes_read_total").inc(stats.bytes_read)
        registry.counter("repro_device_bytes_written_total").inc(stats.bytes_written)
        registry.counter("repro_device_seeks_total").inc(stats.seeks)
        registry.counter("repro_device_busy_seconds_total").inc(stats.busy_time_s)
        if self.cache is not None:
            registry.counter("repro_cache_hits_total", layer="block-cache").inc(
                self.cache.hits
            )
            registry.counter("repro_cache_misses_total", layer="block-cache").inc(
                self.cache.misses
            )
            registry.gauge("repro_cache_hit_rate", layer="block-cache").set(
                self.cache.hit_rate()
            )
        if self.injector is not None:
            registry.gauge("repro_faults_currently_armed").set(
                len(self.injector.faults)
            )
        if self.recorder is not None:
            registry.counter("repro_recorded_writes_total").inc(
                self.recorder.recorded
            )
        # An array bottom exports its own per-member + redundancy-path
        # counters in addition to the logical DiskStats above.
        collect = getattr(self.disk, "collect_metrics", None)
        if collect is not None:
            collect(registry)

    # -- introspection -------------------------------------------------------

    def layers(self) -> List[BlockDevice]:
        """The composed *stack* layers, bottom-up.

        The bottom entry may itself be an array of member sub-stacks;
        use :func:`walk_devices` to enumerate every nested device.
        """
        out: List[BlockDevice] = [self.disk]
        if self.injector is not None:
            out.append(self.injector)
        if self.cache is not None:
            out.append(self.cache)
        if self.recorder is not None:
            out.append(self.recorder)
        return out

    def walk_devices(self) -> List[BlockDevice]:
        """Every device in the stack, top-down, arrays included."""
        return walk_devices(self)

    def describe(self) -> str:
        """One-line bottom-up rendering of the composition."""
        parts = []
        for layer in self.layers():
            describe = getattr(layer, "describe", None)
            parts.append(describe() if describe is not None
                         else type(layer).__name__)
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"DeviceStack({self.describe()}, events={len(self.events)})"
