"""Multi-disk redundancy arrays (§3.3, R_redundancy made real).

The repro historically mounted every file system on exactly one
:class:`~repro.disk.disk.SimulatedDisk`; this module generalizes the
bottom of the stack into an *array*: N member sub-stacks (each a
``SimulatedDisk`` plus its own :class:`~repro.disk.injector.FaultInjector`)
behind one logical ``BlockDevice``.  An array drops into
:class:`~repro.disk.stack.DeviceStack` wherever a bare disk goes, so
all five file systems mount on it unchanged.

Three geometries:

* :class:`MirrorDevice` — N-way replication.  Reads fail over between
  replicas and *read-repair* the copy that errored; scrub compares
  replicas and majority-votes silent corruption (N >= 3).
* :class:`StripeParityDevice` — RAID-5-style rotating single parity.
  One stripe block per member per stripe; reads of a failed member
  reconstruct by XOR of the survivors; writes are read-modify-write
  with a full-stripe fallback.
* :class:`RDPDevice` — Row-Diagonal Parity (Corbett et al., FAST '04),
  backed by the :class:`~repro.redundancy.rdp.RDPStripe` kernel:
  ``p - 1`` data columns, row parity, diagonal parity; survives any
  **two** member erasures — the second latent sector error during
  reconstruction that motivates double parity.

Everything the array observes or does is reported through the typed
event stream with IRON levels attached: member errors surface as
:class:`~repro.obs.events.ArrayDetectionEvent` (D_errorcode during I/O,
D_redundancy during scrub) and every reconstruction path — degraded
read, degraded write, read-repair, rebuild, scrub repair — emits an
:class:`~repro.obs.events.ArrayRecoveryEvent` with mechanism
``"redundancy"``, which is exactly what
:func:`repro.fingerprint.inference.infer_policy` classifies as
R_redundancy structurally.

The array is crash-engine compatible: ``snapshot()`` composes the
members' O(1) CoW snapshots into an :class:`ArraySnapshot`, ``poke``
applies a logical write out-of-band *with parity maintained*, and the
logical dirty-block delta backs the engine's content-keyed memos, so
power-cut/torn-state enumeration replays through degraded-mode
recovery like it does over a bare disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.common.errors import OutOfRangeError, ReadError, WriteError
from repro.common.xor import xor, xor_all, xor_update
from repro.disk.disk import (
    DirtyDelta, DiskStats, FrozenView, SimulatedDisk, SlabImage, make_disk,
)
from repro.disk.geometry import DiskGeometry
from repro.disk.injector import FaultInjector
from repro.obs.events import (
    ArrayDetectionEvent,
    ArrayPolicyEvent,
    ArrayRecoveryEvent,
    EventLog,
    Severity,
    StorageEvent,
)
from repro.redundancy.rdp import RDPStripe

#: How a recovery path reads a peer: ``read(member, member_block,
#: logical)`` -> contents, or None for a cell that is not to be had.
#: ``ArrayDevice._member_read`` is the charged reader (a member error
#: is a detection tagged *logical*), ``_member_peek`` the uncharged one.
Reader = Callable[[int, int, Optional[int]], Optional[bytes]]


class ArrayMember:
    """One member sub-stack: a raw disk under its own fault injector.

    A member keeps no I/O trace: its injector is given no stream, so a
    member request costs the disk access and the fault match and
    records nothing.  The array's *logical* events — detections,
    recoveries, policy actions — go to the array's shared stream, so
    the stream a mounted file system joins tells the logical story.
    """

    def __init__(self, index: int, num_blocks: int, block_size: int,
                 timing: Optional[dict] = None):
        self.index = index
        self.disk = make_disk(num_blocks, block_size, **(timing or {}))
        self.injector = FaultInjector(self.disk)
        #: The top of the member sub-stack — what the array issues I/O to.
        self.device = self.injector

    def replace(self) -> None:
        """Swap in a blank disk of the same geometry (a spare)."""
        old = self.disk
        self.disk = SimulatedDisk(old.geometry)
        self.disk.latency_observer = old.latency_observer
        self.injector.lower = self.disk

    def __repr__(self) -> str:
        return f"ArrayMember({self.index}, {self.disk!r})"


class ArraySnapshot:
    """A composed snapshot: one member CoW image per member, plus the
    array's suspect-block set.  Composing is O(members), not O(blocks)
    — each member image is the usual O(1) slab alias."""

    __slots__ = ("images", "suspects", "stale")

    def __init__(self, images: Iterable[SlabImage],
                 suspects: Iterable[Tuple[int, int]] = (),
                 stale: Iterable[int] = ()):
        self.images: Tuple[SlabImage, ...] = tuple(images)
        self.suspects: Tuple[Tuple[int, int], ...] = tuple(sorted(suspects))
        self.stale: Tuple[int, ...] = tuple(sorted(stale))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArraySnapshot):
            return NotImplemented
        return (list(self.images) == list(other.images)
                and self.suspects == other.suspects
                and self.stale == other.stale)

    def __reduce__(self):
        return (ArraySnapshot, (self.images, self.suspects, self.stale))

    def __repr__(self) -> str:
        return (f"ArraySnapshot(members={len(self.images)}, "
                f"suspects={len(self.suspects)})")


class _ArrayBaseView:
    """Adapter giving the array a ``base_image``-shaped object: the
    *logical* golden contents, decoded lazily from the member base
    images.  :meth:`block` serves the crash engine's content-key
    canonicalization; :attr:`meta` serves the mount-walk memos the
    file systems keep on their golden image."""

    __slots__ = ("_array",)

    def __init__(self, array: "ArrayDevice"):
        self._array = array

    def block(self, block: int) -> Optional[bytes]:
        m, mb = self._array._locate(block)
        image = self._array.members[m].disk.base_image
        return None if image is None else image.block(mb)

    @property
    def meta(self) -> Dict:
        """Per-golden memo dict, like ``SlabImage.meta``.

        Memo soundness requires the dict to change identity whenever
        the *composite* golden changes, so it is keyed by the tuple of
        member base-image objects (the key holds strong references,
        keeping ids stable for the dict's lifetime)."""
        return self._array._base_meta()


class _FrozenArray(FrozenView):
    """An array's logical contents at one instant.  The logical delta
    backs the memo fingerprints; peeks take the live :meth:`ArrayDevice.peek`
    path over frozen member views and trust sets, reconstructing an
    untrusted cell from its peers."""

    def __init__(self, array: "ArrayDevice"):
        image = array.base_image
        super().__init__(array, None, None if image is None else image.meta)
        self._array = array
        self._members = [member.disk.frozen_view() for member in array.members]
        self._suspect = frozenset(array._suspect)
        self._stale = frozenset(array._stale)

    def _member_peek(self, m: int, mb: int,
                     logical: Optional[int] = None) -> Optional[bytes]:
        if m in self._stale or (m, mb) in self._suspect:
            return None
        return self._members[m].peek(mb)

    def peek(self, block: int) -> bytes:
        self._check_range(block, "read")
        m, mb = self._array._locate(block)
        if m in self._stale or (m, mb) in self._suspect:
            data = self._array._recover(m, mb, self._member_peek, None)
            if data is not None:
                return data
        return self._members[m].peek(mb)

    peek_view = peek


@dataclass
class ArrayScrubReport:
    """Outcome of one scrub pass (or one ``scrub_step`` increment)."""

    units_scanned: int = 0
    blocks_scanned: int = 0
    #: (member, member-block) pairs that returned device errors.
    latent_errors: List[Tuple[int, int]] = field(default_factory=list)
    #: (member, member-block) pairs whose contents mismatched redundancy.
    corruptions: List[Tuple[int, int]] = field(default_factory=list)
    repaired: List[Tuple[int, int]] = field(default_factory=list)
    unrepairable: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def problems(self) -> int:
        return len(self.latent_errors) + len(self.corruptions)

    def render(self) -> str:
        return (f"scrubbed {self.blocks_scanned} member blocks: "
                f"{len(self.latent_errors)} latent errors, "
                f"{len(self.corruptions)} corruptions, "
                f"{len(self.repaired)} repaired, "
                f"{len(self.unrepairable)} unrepairable")


class ArrayDevice(DirtyDelta):
    """Common machinery for every geometry: the ``BlockDevice``
    protocol plus the gray-box surface a :class:`DeviceStack` (and the
    file systems' ``_raw_disk`` walk, the crash engine, and the
    fingerprinting type oracles) expect from the bottom device.

    A geometry defines the address mapping (:meth:`_locate`), how one
    member cell is recovered from its peers (:meth:`_recover`, under
    the degraded read, the rebuild and the gray-box peek), the write
    path (:meth:`_write_logical`), out-of-band pokes
    (:meth:`_poke_logical`) and the verdict on one scrub unit
    (:meth:`_scrub_unit`, over the shared :meth:`_scrub_read`).
    """

    kind = "array"

    def __init__(self, num_blocks: int, block_size: int,
                 member_count: int, member_blocks: int,
                 timing: Optional[dict] = None):
        if num_blocks <= 0:
            raise ValueError("array must expose at least one block")
        self._num_blocks = num_blocks
        self._block_size = block_size
        self._member_blocks = member_blocks
        self._zero = b"\x00" * block_size
        self.members: List[ArrayMember] = [
            ArrayMember(i, member_blocks, block_size, timing)
            for i in range(member_count)
        ]
        #: Logical geometry, for consumers that size themselves off it.
        self.geometry = DiskGeometry(num_blocks=num_blocks,
                                     block_size=block_size,
                                     **(timing or {}))
        #: Shared typed-event stream; adopted by DeviceStack when the
        #: array is stacked (left None until then — healthy I/O emits
        #: nothing, so stacking after construction shares one stream).
        self.events: Optional[EventLog] = None
        #: Logical-interface accounting (live object, mutated in place).
        self.stats = DiskStats()
        # Logical CoW-style dirty tracking (crash-engine content keys).
        self._reset_dirty(num_blocks)
        self._base_metas: Dict[tuple, Dict] = {}
        #: Member blocks whose on-disk contents are known stale (a
        #: member write failed after the array acknowledged the logical
        #: write, or a rebuild has not reached them): reads take the
        #: reconstruction path instead of trusting the member.
        self._suspect: Set[Tuple[int, int]] = set()
        #: Members that were replaced and not yet rebuilt (whole-member
        #: granularity of the same idea).
        self._stale: Set[int] = set()
        self._latency_observer = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        #: Next unit of the incremental scrub (:meth:`scrub_step`).
        self._scrub_cursor = 0
        # Cumulative redundancy-path counters (collect_metrics).
        self.degraded_reads = 0
        self.degraded_writes = 0
        self.read_repairs = 0
        self.rebuilt_blocks = 0
        self.scrub_repairs = 0
        self.scrub_passes = 0

    # -- BlockDevice protocol ------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    def read_block(self, block: int) -> bytes:
        self._check_range(block, "read")
        before = self.clock
        m, mb = self._locate(block)
        data: Optional[bytes] = None
        if self._trusted(m, mb):
            try:
                data = self.members[m].device.read_block(mb)
            except ReadError:
                self._detect(m, mb, "member-read-error", logical=block)
        if data is None:
            data = self._degraded_read(block, m, mb)
        self.stats.reads += 1
        self.stats.bytes_read += self._block_size
        self.stats.busy_time_s += self.clock - before
        return data

    def write_block(self, block: int, data: bytes) -> None:
        self._check_range(block, "write")
        if len(data) != self._block_size:
            raise ValueError(
                f"write of {len(data)} bytes to array with "
                f"{self._block_size}-byte blocks")
        before = self.clock
        data = bytes(data)
        self._write_logical(block, data)
        self._put(block, data)
        self.stats.writes += 1
        self.stats.bytes_written += self._block_size
        self.stats.busy_time_s += self.clock - before

    def flush(self) -> None:
        for member in self.members:
            member.device.flush()

    def snapshot(self) -> ArraySnapshot:
        return ArraySnapshot(
            (member.disk.snapshot() for member in self.members),
            self._suspect, self._stale,
        )

    def restore(self, snapshot: ArraySnapshot) -> None:
        if not isinstance(snapshot, ArraySnapshot):
            raise ValueError("array restore needs an ArraySnapshot")
        if len(snapshot.images) != len(self.members):
            raise ValueError("snapshot member count does not match array")
        for member, image in zip(self.members, snapshot.images):
            member.device.restore(image)
        self._suspect = set(snapshot.suspects)
        self._stale = set(snapshot.stale)
        if self._dirty_count:
            self._reset_dirty(self._num_blocks)
        self.stats.reset()
        self._reset_counters()

    # -- time ----------------------------------------------------------------

    @property
    def clock(self) -> float:
        # Read twice per logical I/O: a plain loop, no generator frame.
        # The disks are looked up each time because ``replace_member``
        # reassigns ``member.disk``.
        latest = 0.0
        for member in self.members:
            now = member.disk.clock
            if now > latest:
                latest = now
        return latest

    def stall(self, seconds: float) -> None:
        """Members share the wall clock: a commit-ordering wait stalls
        every spindle."""
        for member in self.members:
            member.disk.stall(seconds)
        self.stats.busy_time_s += seconds

    @property
    def latency_observer(self):
        return self._latency_observer

    @latency_observer.setter
    def latency_observer(self, callback) -> None:
        self._latency_observer = callback
        for member in self.members:
            member.disk.latency_observer = callback

    # -- gray-box access ------------------------------------------------------

    def peek(self, block: int) -> bytes:
        """Logical contents without charging time or stats: the data
        location's raw bytes, reconstructed from peers when that member
        block is suspect or stale."""
        self._check_range(block, "read")
        return self._peek_logical(block)

    #: An array has no cheaper view of a block than its bytes.
    peek_view = peek

    def poke(self, block: int, data: bytes) -> None:
        """Out-of-band logical write, parity maintained (the crash
        engine's state-construction primitive — assumes the affected
        stripe carries no suspect blocks, which holds after the
        ``restore(golden)`` that precedes replay)."""
        self._check_range(block, "write")
        if len(data) != self._block_size:
            raise ValueError("poke payload must be exactly one block")
        data = bytes(data)
        self._poke_logical(block, data)
        self._put(block, data)

    def capture_delta(self) -> tuple:
        """Everything a :meth:`poke` changes, immune to later writes:
        the logical delta, every member disk's delta and the suspect
        set (see :meth:`DirtyDelta.capture_delta`)."""
        return (DirtyDelta.capture_delta(self),
                tuple(member.disk.capture_delta() for member in self.members),
                frozenset(self._suspect))

    def install_delta(self, captured: tuple) -> None:
        own, members, suspect = captured
        DirtyDelta.install_delta(self, own)
        for member, delta in zip(self.members, members):
            member.disk.install_delta(delta)
        self._suspect = set(suspect)

    def frozen_view(self) -> "_FrozenArray":
        """What :meth:`peek` would return now, for a reader that runs
        later (see :class:`~repro.disk.disk.FrozenView`)."""
        return _FrozenArray(self)

    @property
    def base_image(self) -> Optional[_ArrayBaseView]:
        if all(member.disk.base_image is None for member in self.members):
            return None
        # Built per access: a stored view would make the array a
        # reference cycle, freed only when the cycle collector runs.
        return _ArrayBaseView(self)

    def _base_meta(self) -> Dict:
        images = tuple(member.disk.base_image for member in self.members)
        key = tuple(id(image) for image in images)
        entry = self._base_metas.get(key)
        if entry is None:
            # A handful of goldens at most live at once (the crash
            # engine restores one; fingerprint loops a few) — evict the
            # oldest rather than growing with every snapshot ever seen.
            # The entry pins the image objects so the ids stay valid.
            if len(self._base_metas) >= 8:
                self._base_metas.pop(next(iter(self._base_metas)))
            entry = self._base_metas[key] = (images, {})
        return entry[1]

    # -- member lifecycle -----------------------------------------------------

    def fail_member(self, index: int) -> None:
        """Fail-stop one member (§2.3 whole-disk failure)."""
        self.members[index].disk.fail_whole_disk()

    def revive_member(self, index: int) -> None:
        self.members[index].disk.revive()

    def replace_member(self, index: int) -> None:
        """Swap in a blank spare; the member is *stale* (reads route
        around it) until :meth:`rebuild_member` repopulates it."""
        self.members[index].replace()
        self._stale.add(index)
        self._suspect = {(m, mb) for (m, mb) in self._suspect if m != index}
        self._emit(ArrayPolicyEvent(
            Severity.WARNING, self._source(), "member-replaced",
            f"member {index} replaced with blank spare", member=index))

    def rebuild_member(self, index: int) -> int:
        """Reconstruct every block the member should hold from the
        surviving members and write it back (live reconstruction —
        charged I/O, same data path a background rebuild would use).
        Returns the number of blocks rebuilt; blocks that could not be
        reconstructed (too many concurrent failures) stay suspect and
        raise a ``rebuild-loss`` policy event.
        """
        tracer = self._tracer()
        span = tracer.start("rebuild", "phase",
                            detail=f"member={index}",
                            source=self._source()) if tracer else 0
        rebuilt = 0
        lost: List[int] = []
        member = self.members[index]
        total = member.disk.num_blocks
        try:
            mb = 0
            while mb < total:
                clean = self._rebuild_clean_run(index, mb, total)
                rebuilt += clean
                mb += clean
                if mb == total:
                    break
                # The first block that is not clean: one at a time.
                content = self._member_content(index, mb)
                if content is None:
                    lost.append(mb)
                else:
                    try:
                        member.device.write_block(mb, content)
                    except WriteError:
                        lost.append(mb)
                    else:
                        self._suspect.discard((index, mb))
                        rebuilt += 1
                mb += 1
        finally:
            if tracer:
                tracer.end(span, "ok" if not lost else "error")
        self._stale.discard(index)
        for mb in lost:
            self._suspect.add((index, mb))
        self.rebuilt_blocks += rebuilt
        self._emit(ArrayRecoveryEvent(
            Severity.INFO, self._source(), "rebuild",
            f"rebuilt member {index}: {rebuilt} blocks"
            + (f", {len(lost)} lost" if lost else ""),
            member=index))
        if lost:
            self._emit(ArrayPolicyEvent(
                Severity.ERROR, self._source(), "rebuild-loss",
                f"member {index}: {len(lost)} blocks unreconstructable",
                member=index))
        return rebuilt

    def member_stats(self) -> List[DiskStats]:
        return [member.disk.stats for member in self.members]

    def merged_member_stats(self) -> DiskStats:
        """All members' raw traffic folded into one :class:`DiskStats`
        via the associative ``merge`` — the unit fleet campaigns sum
        across thousands of arrays."""
        total = DiskStats()
        for stats in self.member_stats():
            total.merge(stats)
        return total

    @property
    def degraded(self) -> bool:
        """True while any member is failed or holds stale (pre-rebuild)
        content — the window in which scrubbing would misread expected
        redundancy gaps as damage."""
        return bool(self._stale) or any(m.disk.failed for m in self.members)

    # -- scrub ----------------------------------------------------------------

    @property
    def scrub_units(self) -> int:
        """Total scrub units (logical blocks for mirrors, stripes for
        parity geometries)."""
        return self._member_blocks // self._unit_blocks

    def scrub(self, start: int = 0, end: Optional[int] = None) -> ArrayScrubReport:
        """Scan scrub units ``[start, end)`` (default: whole array),
        verifying member redundancy and repairing what the geometry can
        repair.  Emits ``scrub-complete`` when the scan reaches the
        array's last unit and ``scrub-loss`` for damage it cannot
        attribute or repair."""
        if end is None:
            end = self.scrub_units
        if not 0 <= start <= end <= self.scrub_units:
            raise ValueError("scrub range out of bounds")
        report = ArrayScrubReport()
        per_unit = self._unit_blocks
        unit = start
        while unit < end:
            clean = self._scrub_clean_units(unit, end)
            if clean:
                run = range(unit * per_unit, (unit + clean) * per_unit)
                for member in self.members:
                    member.device.read_blocks(run)
                report.blocks_scanned += len(run) * len(self.members)
                report.units_scanned += clean
                unit += clean
                if unit == end:
                    break
            # The first unit that is not clean: one at a time.
            self._scrub_unit(unit, report)
            report.units_scanned += 1
            unit += 1
        self.scrub_repairs += len(report.repaired)
        if report.unrepairable:
            self._emit(ArrayPolicyEvent(
                Severity.ERROR, self._source(), "scrub-loss",
                f"{len(report.unrepairable)} member blocks unrepairable"))
        if end == self.scrub_units:
            self.scrub_passes += 1
            self._emit(ArrayPolicyEvent(
                Severity.INFO, self._source(), "scrub-complete",
                f"pass complete: {report.render()}"))
        return report

    @property
    def scrub_cursor(self) -> int:
        """Next scrub unit the incremental scan will visit (0 after a
        completed pass)."""
        return self._scrub_cursor

    def scrub_step(self, units: int) -> ArrayScrubReport:
        """Advance the incremental scrub cursor by up to *units* units.

        The one trigger-agnostic stepping primitive: whoever owns the
        cadence (the fleet trial's clock heap) calls it when a step is
        due.  The cursor wraps to 0 when a pass completes, so repeated
        calls scan the array round-robin; ``report.units_scanned``
        tells the caller how far this step actually got.
        """
        if units < 1:
            raise ValueError("scrub step must advance at least one unit")
        start = self._scrub_cursor
        end = min(start + units, self.scrub_units)
        report = self.scrub(start, end)
        self._scrub_cursor = 0 if end >= self.scrub_units else end
        return report

    # -- metrics ---------------------------------------------------------------

    def collect_metrics(self, registry) -> None:
        """Per-member raw traffic plus the array's redundancy-path
        counters (degraded I/O, repairs, rebuilds, suspects)."""
        for member in self.members:
            stats = member.disk.stats
            labels = {"array": self.kind, "member": str(member.index)}
            registry.counter("repro_array_member_reads_total", **labels).inc(stats.reads)
            registry.counter("repro_array_member_writes_total", **labels).inc(stats.writes)
            registry.counter("repro_array_member_busy_seconds_total", **labels).inc(
                stats.busy_time_s)
        labels = {"array": self.kind}
        registry.counter("repro_array_degraded_reads_total", **labels).inc(
            self.degraded_reads)
        registry.counter("repro_array_degraded_writes_total", **labels).inc(
            self.degraded_writes)
        registry.counter("repro_array_read_repairs_total", **labels).inc(
            self.read_repairs)
        registry.counter("repro_array_rebuilt_blocks_total", **labels).inc(
            self.rebuilt_blocks)
        registry.counter("repro_array_scrub_repairs_total", **labels).inc(
            self.scrub_repairs)
        registry.gauge("repro_array_suspect_blocks", **labels).set(
            len(self._suspect))

    # -- internals -------------------------------------------------------------

    def _locate(self, block: int) -> Tuple[int, int]:
        """Logical block -> (data member index, member block)."""
        raise NotImplementedError

    def _recover(self, m: int, mb: int, read: Reader,
                 logical: Optional[int]) -> Optional[bytes]:
        """What member *m* should hold at *mb*, worked out from its
        peers through *read* (which peers, in which order, is the
        geometry's own); None when they do not suffice."""
        raise NotImplementedError

    #: Why :meth:`_recover` came back empty, for the ``ReadError``.
    _exhausted = "redundancy exhausted"

    def _reconstruct(self, block: int, m: int, mb: int) -> bytes:
        """Rebuild one logical block from the surviving members
        (raises :class:`ReadError` when the geometry cannot)."""
        data = self._recover(m, mb, self._member_read, block)
        if data is None:
            raise ReadError(block, self._exhausted)
        return data

    def _member_content(self, m: int, mb: int) -> Optional[bytes]:
        """What member *m* should hold at *mb* (rebuild path); None if
        unreconstructable."""
        return self._recover(m, mb, self._member_read, None)

    def _peek_logical(self, block: int) -> bytes:
        m, mb = self._locate(block)
        if not self._trusted(m, mb):
            data = self._recover(m, mb, self._member_peek, None)
            if data is not None:
                return data
        # Trusted — or nothing better to show than what the member holds.
        return self.members[m].disk.peek(mb)

    def _write_logical(self, block: int, data: bytes) -> None:
        raise NotImplementedError

    def _poke_logical(self, block: int, data: bytes) -> None:
        raise NotImplementedError

    def _scrub_unit(self, unit: int, report: ArrayScrubReport) -> None:
        """Scrub one unit: :meth:`_scrub_read`, then the geometry's
        verdict (vote, XOR or syndromes) and its repairs."""
        raise NotImplementedError

    #: Member blocks (per member) that make up one scrub unit.
    _unit_blocks = 1

    def _consistent_units(self, start: int, limit: int) -> int:
        """How many of the *limit* scrub units from *start* satisfy the
        geometry's redundancy check on the members' uncharged
        (``peek``) contents, counting from the front."""
        raise NotImplementedError

    # -- clean runs ----------------------------------------------------------
    #
    # Scrub and rebuild visit a *clean run* of units with one vectored
    # call per member instead of one per block.  A member block is
    # clean when the array trusts it and its member would serve it as a
    # plain success: the member is alive and no armed fault matches.
    # On a clean run the per-unit body would read (or write) every
    # block, find nothing, and emit no logical event; members keep
    # independent heads and clocks, so issuing each member's requests
    # back to back leaves every member's own request order — all that
    # virtual time, device I/O counts and the event streams depend on —
    # exactly as the per-unit loop would.  The first unit that is not
    # clean goes to the per-unit body, then the scan resumes.

    def _serves(self, op: str, m: int) -> bool:
        """The whole-member half of the rule: member *m* is alive and,
        for reads, holds current (not pre-rebuild) contents."""
        return not (self.members[m].disk.failed
                    or (op == "read" and m in self._stale))

    def _clean_run(self, op: str, m: int, blocks: Sequence[int]) -> int:
        """How many leading *blocks* of member *m* are clean for *op*."""
        if not self._serves(op, m) or self._latency_observer is not None:
            # (A shared latency observer would see the members'
            # requests regrouped, so it keeps the per-unit order.)
            return 0
        n = self.members[m].injector.clean_prefix(op, blocks)
        if op == "read" and self._suspect:
            for i in range(n):
                if (m, blocks[i]) in self._suspect:
                    return i
        return n

    def _scrub_clean_units(self, start: int, end: int) -> int:
        """Leading scrub units of ``[start, end)`` that are clean on
        every member and already consistent."""
        if self.degraded:
            # Decided before any per-block scan, so a member that is
            # down costs nothing per unit.
            return 0
        per_unit = self._unit_blocks
        blocks = range(start * per_unit, end * per_unit)
        n = len(blocks)
        for m in range(len(self.members)):
            n = self._clean_run("read", m, blocks[:n])
            if n < per_unit:
                return 0
        return self._consistent_units(start, n // per_unit)

    def _rebuild_clean_run(self, index: int, start: int, end: int) -> int:
        """Rebuild the leading clean run of member blocks ``[start,
        end)`` of member *index* with vectored I/O; returns its length
        (0 when the first block is not clean)."""
        raise NotImplementedError

    def _source(self) -> str:
        return f"{self.kind}-array"

    def _trusted(self, m: int, mb: int) -> bool:
        return m not in self._stale and (m, mb) not in self._suspect

    def _trust(self, m: int, blocks: Iterable[int]) -> None:
        """Writes to *blocks* of member *m* landed: no longer suspect."""
        if self._suspect:
            self._suspect.difference_update((m, mb) for mb in blocks)

    def _member_read(self, m: int, mb: int,
                     logical: Optional[int] = None) -> Optional[bytes]:
        """The charged reader — one member read for a reconstruction
        path: None when the member block is untrusted or errors (the
        error is a *detected* member failure — D_errorcode at the array
        boundary)."""
        if not self._trusted(m, mb):
            return None
        try:
            return self.members[m].device.read_block(mb)
        except ReadError:
            self._detect(m, mb, "member-read-error", logical=logical)
            return None

    def _member_peek(self, m: int, mb: int,
                     logical: Optional[int] = None) -> Optional[bytes]:
        """The uncharged reader: a trusted member block's raw contents
        (no time, no stats, no events), None for an untrusted one."""
        if not self._trusted(m, mb):
            return None
        return self.members[m].disk.peek(mb)

    def _member_write(self, m: int, mb: int, data: bytes,
                      logical: Optional[int] = None) -> bool:
        """One member write; a failure marks the block suspect (the
        array *knows* the write did not land — it got the error code)."""
        try:
            self.members[m].device.write_block(mb, data)
        except WriteError:
            self._suspect.add((m, mb))
            self._detect(m, mb, "member-write-error", logical=logical)
            return False
        self._suspect.discard((m, mb))
        return True

    def _degraded_write(self, block: int, member: int,
                        how: Optional[str] = None) -> None:
        """Count and report a logical write that did not land on
        *member* but is held by redundancy (R_redundancy)."""
        self.degraded_writes += 1
        self._emit(ArrayRecoveryEvent(
            Severity.WARNING, self._source(), "degraded-write",
            f"block {block} "
            + (how or f"held by parity around member {member}"),
            block, member=member))

    def _scrub_read(self, unit: int, report: ArrayScrubReport,
                    logical: Optional[int] = None,
                    ) -> Tuple[List[Optional[List[bytes]]], List[int]]:
        """The read phase of one scrub unit: each member's cells of the
        unit, charged, trusted or not.  A stale member is not read; a
        member's first error is a latent error, detected (tagged
        *logical*), and erases its column, so its remaining rows are
        not read.  Returns the cells per member (None for a member with
        nothing to offer) and the indices of those members."""
        per_unit = self._unit_blocks
        run = range(unit * per_unit, (unit + 1) * per_unit)
        columns: List[Optional[List[bytes]]] = []
        missing: List[int] = []
        for member in self.members:
            m = member.index
            cells: Optional[List[bytes]] = None
            if m not in self._stale:
                cells = []
                for mb in run:
                    report.blocks_scanned += 1
                    try:
                        cells.append(member.device.read_block(mb))
                    except ReadError:
                        report.latent_errors.append((m, mb))
                        self._detect(m, mb, "member-read-error",
                                     logical=logical)
                        cells = None
                        break
            columns.append(cells)
            if cells is None:
                missing.append(m)
        return columns, missing

    def _repair(self, m: int, mb: int, data: bytes,
                report: ArrayScrubReport) -> bool:
        """One scrub repair write, booked in *report* either way."""
        if self._member_write(m, mb, data):
            report.repaired.append((m, mb))
            return True
        report.unrepairable.append((m, mb))
        return False

    def _degraded_read(self, block: int, m: int, mb: int) -> bytes:
        tracer = self._tracer()
        span = tracer.start("degraded-read", "phase",
                            detail=f"block={block} member={m}",
                            source=self._source()) if tracer else 0
        try:
            data = self._reconstruct(block, m, mb)
        except ReadError:
            if tracer:
                tracer.end(span, "error")
            raise
        self.degraded_reads += 1
        self._emit(ArrayRecoveryEvent(
            Severity.WARNING, self._source(), "degraded-read",
            f"block {block} reconstructed around member {m}",
            block, member=m))
        self._read_repair(m, mb, data, block)
        if tracer:
            tracer.end(span, "ok")
        return data

    def _read_repair(self, m: int, mb: int, data: bytes, block: int) -> None:
        if m in self._stale or self.members[m].disk.failed:
            return
        if self._member_write(m, mb, data, logical=block):
            self.read_repairs += 1
            self._emit(ArrayRecoveryEvent(
                Severity.INFO, self._source(), "read-repair",
                f"block {block} repaired on member {m}", block, member=m))

    def _detect(self, m: int, mb: int, tag: str,
                logical: Optional[int] = None,
                mechanism: str = "error-code") -> None:
        self._emit(ArrayDetectionEvent(
            Severity.ERROR, self._source(), tag,
            f"member {m} {tag.split('-', 1)[1]} at member block {mb}",
            logical, mechanism=mechanism, member=m))

    def _emit(self, event: StorageEvent) -> None:
        log = self.events
        if log is None:
            log = self.events = EventLog()
        log.emit(event)

    def _tracer(self):
        return getattr(self.events, "tracer", None)

    def _check_range(self, block: int, op: str) -> None:
        if not 0 <= block < self._num_blocks:
            raise OutOfRangeError(block, op, self._num_blocks)

    def describe(self) -> str:
        inner = " -> ".join(
            type(layer).__name__
            for layer in (self.members[0].disk, self.members[0].injector))
        return f"{type(self).__name__}[{len(self.members)} x ({inner})]"

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(blocks={self._num_blocks}, "
                f"bs={self._block_size}, members={len(self.members)})")


class MirrorDevice(ArrayDevice):
    """N-way replication: every logical block lives on every member.

    Reads spread across replicas (primary = ``block % copies``), fail
    over on member errors, and read-repair the replica that erred;
    writes go to all members and survive any member failure as long as
    one replica lands.  Scrub compares replicas: with three or more
    copies silent corruption is majority-voted and repaired, with two
    it is detected but unattributable (``scrub-loss``).
    """

    kind = "mirror"
    _exhausted = "all mirror members failed"

    def __init__(self, num_blocks: int, block_size: int = 4096,
                 copies: int = 2, timing: Optional[dict] = None):
        if copies < 2:
            raise ValueError("a mirror needs at least two copies")
        super().__init__(num_blocks, block_size, copies, num_blocks, timing)

    def _locate(self, block: int) -> Tuple[int, int]:
        return block % len(self.members), block

    def _recover(self, m: int, mb: int, read: Reader,
                 logical: Optional[int]) -> Optional[bytes]:
        # The first good replica, in rotation from the block's primary.
        n = len(self.members)
        for k in range(n):
            other = (mb + k) % n
            if other != m:
                data = read(other, mb, logical)
                if data is not None:
                    return data
        return None

    def _member_content(self, m: int, mb: int) -> Optional[bytes]:
        # A replica's member block *is* the logical block, and a
        # mirror's rebuild says so in its detections.
        return self._recover(m, mb, self._member_read, mb)

    def _write_logical(self, block: int, data: bytes) -> None:
        landed = 0
        failed: List[int] = []
        for member in self.members:
            if self._member_write(member.index, block, data):
                landed += 1
            else:
                failed.append(member.index)
        if landed == 0:
            raise WriteError(block, "all mirror members failed")
        if failed:
            self._degraded_write(
                block, failed[0],
                f"stored on {landed}/{len(self.members)} copies")

    def _poke_logical(self, block: int, data: bytes) -> None:
        for member in self.members:
            member.disk.poke(block, data)
            self._suspect.discard((member.index, block))

    def _rebuild_clean_run(self, index: int, start: int, end: int) -> int:
        stop = start + self._clean_run("write", index, range(start, end))
        # Each block comes from the first replica after *index* in its
        # replica order; a source that is not clean there ends the run.
        n = len(self.members)
        wanted: Dict[int, List[int]] = {}
        for mb in range(start, stop):
            primary = mb % n
            source = primary if primary != index else (primary + 1) % n
            if not self._serves("read", source):
                stop = mb
                break
            wanted.setdefault(source, []).append(mb)
        for source, mine in wanted.items():
            clean = self._clean_run("read", source, mine)
            if clean < len(mine):
                stop = min(stop, mine[clean])
        if stop == start:
            return 0
        content: Dict[int, bytes] = {}
        for source, mine in wanted.items():
            mine = [mb for mb in mine if mb < stop]
            content.update(zip(
                mine, self.members[source].device.read_blocks(mine)))
        run = range(start, stop)
        self.members[index].device.write_blocks(
            run, [content[mb] for mb in run])
        self._trust(index, run)
        return len(run)

    def _consistent_units(self, start: int, limit: int) -> int:
        first, *others = [member.disk for member in self.members]
        for unit in range(start, start + limit):
            reference = first.peek(unit)
            for disk in others:
                if disk.peek(unit) != reference:
                    return unit - start
        return limit

    def _scrub_unit(self, unit: int, report: ArrayScrubReport) -> None:
        columns, missing = self._scrub_read(unit, report, logical=unit)
        copies = {m: cells[0] for m, cells in enumerate(columns)
                  if cells is not None}
        # A stale replica is passed over, not counted a casualty.
        errored = [m for m in missing if m not in self._stale]
        if not copies:
            for m in errored:
                report.unrepairable.append((m, unit))
            return
        # Reference contents: the majority value (ties break toward the
        # lowest member index, deterministically).
        votes: Dict[bytes, List[int]] = {}
        for m in sorted(copies):
            votes.setdefault(copies[m], []).append(m)
        ranked = sorted(votes.items(), key=lambda kv: (-len(kv[1]), kv[1][0]))
        reference, holders = ranked[0]
        if len(votes) > 1:
            minority = [m for m in sorted(copies) if m not in holders]
            for m in minority:
                report.corruptions.append((m, unit))
            self._detect(minority[0], unit, "member-mismatch",
                         logical=unit, mechanism="redundancy")
            if len(holders) > len(copies) - len(holders):
                for m in minority:
                    if self._repair(m, unit, reference, report):
                        self._emit(ArrayRecoveryEvent(
                            Severity.INFO, self._source(), "scrub-repair",
                            f"block {unit} rewritten on member {m}",
                            unit, member=m))
            else:
                # Two-way (or tied) mismatch: detected, unattributable.
                for m in minority:
                    report.unrepairable.append((m, unit))
        for m in errored:
            self._repair(m, unit, reference, report)


class StripeParityDevice(ArrayDevice):
    """RAID-5-style striping with one rotating parity block per stripe.

    ``members`` disks hold ``members - 1`` data blocks plus one parity
    block per stripe; the parity member rotates (``stripe % members``)
    so parity traffic spreads evenly.  Tolerates one member failure
    per stripe; the small-write path is classic read-modify-write with
    a reconstruct-write fallback when old data or old parity cannot be
    read.
    """

    kind = "parity"
    _exhausted = "second member failure: single parity exhausted"

    def __init__(self, num_blocks: int, block_size: int = 4096,
                 members: int = 4, timing: Optional[dict] = None):
        if members < 3:
            raise ValueError("striped parity needs at least three members")
        self.data_members = members - 1
        stripes = -(-num_blocks // self.data_members)  # ceil
        super().__init__(num_blocks, block_size, members, stripes, timing)
        self.stripes = stripes

    def _parity_member(self, stripe: int) -> int:
        return stripe % len(self.members)

    def _locate(self, block: int) -> Tuple[int, int]:
        stripe, i = divmod(block, self.data_members)
        pm = self._parity_member(stripe)
        return (i if i < pm else i + 1), stripe

    def _recover(self, m: int, mb: int, read: Reader,
                 logical: Optional[int]) -> Optional[bytes]:
        # XOR of every peer; the first one not to be had ends it.
        peers = []
        for other in range(len(self.members)):
            if other != m:
                data = read(other, mb, logical)
                if data is None:
                    return None
                peers.append(data)
        return xor_all(peers)

    def _write_logical(self, block: int, data: bytes) -> None:
        dm, stripe = self._locate(block)
        pm = self._parity_member(stripe)
        old = self._member_read(dm, stripe, logical=block)
        old_parity = self._member_read(pm, stripe, logical=block)
        new_parity: Optional[bytes] = None
        if old is not None and old_parity is not None:
            [new_parity] = xor_update([old_parity], old, data)
        else:
            # Reconstruct-write: parity = new data XOR surviving peers.
            peers = [data]
            for other in range(len(self.members)):
                if other in (dm, pm):
                    continue
                peer = self._member_read(other, stripe, logical=block)
                if peer is None:
                    break
                peers.append(peer)
            else:
                new_parity = xor_all(peers)
        wrote_data = self._member_write(dm, stripe, data)
        wrote_parity = (new_parity is not None
                        and self._member_write(pm, stripe, new_parity))
        if not wrote_data and not wrote_parity:
            raise WriteError(block, "array cannot store block")
        if not wrote_data and wrote_parity:
            # The new contents live only in parity: a degraded write the
            # reconstruction read path will serve (R_redundancy).
            self._degraded_write(block, dm)
        if wrote_data and new_parity is None:
            # Data landed but parity could not be maintained: the stripe
            # has no redundancy until scrubbed/rebuilt.
            self._suspect.add((pm, stripe))

    def _poke_logical(self, block: int, data: bytes) -> None:
        dm, stripe = self._locate(block)
        pm = self._parity_member(stripe)
        self.members[dm].disk.poke(stripe, data)
        self._suspect.discard((dm, stripe))
        self.members[pm].disk.poke(stripe, xor_all([
            member.disk.peek(stripe) for member in self.members
            if member.index != pm]))
        self._suspect.discard((pm, stripe))

    def _rebuild_clean_run(self, index: int, start: int, end: int) -> int:
        others = [m for m in range(len(self.members)) if m != index]
        if not all(self._serves("read", m) for m in others):
            return 0
        n = self._clean_run("write", index, range(start, end))
        for m in others:
            n = self._clean_run("read", m, range(start, start + n))
        if n == 0:
            return 0
        run = range(start, start + n)
        columns = [self.members[m].device.read_blocks(run) for m in others]
        self.members[index].device.write_blocks(
            run, [xor_all(cells) for cells in zip(*columns)])
        self._trust(index, run)
        return n

    def _consistent_units(self, start: int, limit: int) -> int:
        disks = [member.disk for member in self.members]
        for unit in range(start, start + limit):
            if xor_all([disk.peek(unit) for disk in disks]) != self._zero:
                return unit - start
        return limit

    def _scrub_unit(self, unit: int, report: ArrayScrubReport) -> None:
        columns, missing = self._scrub_read(unit, report)
        if len(missing) > 1:
            for m in missing:
                report.unrepairable.append((m, unit))
            return
        acc = xor_all([cells[0] for cells in columns if cells is not None])
        if missing:
            m = missing[0]
            if self._repair(m, unit, acc, report):
                self._emit(ArrayRecoveryEvent(
                    Severity.INFO, self._source(), "scrub-repair",
                    f"stripe {unit} block rebuilt on member {m}", member=m))
            return
        if acc != self._zero:
            # Single parity detects the mismatch but cannot attribute it.
            pm = self._parity_member(unit)
            report.corruptions.append((pm, unit))
            report.unrepairable.append((pm, unit))
            self._detect(pm, unit, "member-mismatch", mechanism="redundancy")


class RDPDevice(ArrayDevice):
    """Row-Diagonal Parity over ``p + 1`` members (double erasure).

    Columns of the :class:`~repro.redundancy.rdp.RDPStripe` kernel map
    one-to-one onto members: ``p - 1`` data columns, the row-parity
    column (index ``p - 1``) and the diagonal-parity column (index
    ``p``).  Each stripe spans ``p - 1`` consecutive blocks per
    member.  Any two member erasures — including a fail-stop plus a
    latent sector error discovered mid-rebuild — reconstruct exactly.
    """

    kind = "rdp"
    _exhausted = "more than two member failures: RDP exhausted"

    def __init__(self, num_blocks: int, block_size: int = 4096,
                 p: int = 5, timing: Optional[dict] = None):
        self.stripe = RDPStripe(p, block_size)
        self.p = p
        self.rows = p - 1
        per_stripe = self.rows * self.rows  # data blocks per stripe
        stripes = -(-num_blocks // per_stripe)  # ceil
        super().__init__(num_blocks, block_size, p + 1,
                         stripes * self.rows, timing)
        self.stripes = stripes
        self._unit_blocks = self.rows
        self._row_parity = p - 1
        self._diag_parity = p

    def _consistent_units(self, start: int, limit: int) -> int:
        disks = [member.disk for member in self.members]
        rows = self.rows
        for unit in range(start, start + limit):
            cells = range(unit * rows, (unit + 1) * rows)
            if any(self.stripe.syndromes(
                    [[disk.peek(mb) for mb in cells] for disk in disks])):
                return unit - start
        return limit

    def _locate(self, block: int) -> Tuple[int, int]:
        per_stripe = self.rows * self.rows
        stripe, rem = divmod(block, per_stripe)
        col, row = divmod(rem, self.rows)
        return col, stripe * self.rows + row

    def _read_columns(self, stripe: int, read: Reader,
                      logical: Optional[int],
                      ) -> List[Optional[List[bytes]]]:
        """Every column of *stripe* through *read*; a column stops at,
        and is None from, its first cell that is not to be had."""
        base = stripe * self.rows
        # Only charged reads may move a head: a clean column then goes
        # in one vectored call.
        vectored = read == self._member_read
        columns: List[Optional[List[bytes]]] = []
        for col in range(self.p + 1):
            run = range(base, base + self.rows)
            if vectored and self._clean_run("read", col, run) == self.rows:
                columns.append(self.members[col].device.read_blocks(run))
                continue
            cells: Optional[List[bytes]] = []
            for row in run:
                data = read(col, row, logical)
                if data is None:
                    cells = None
                    break
                cells.append(data)
            columns.append(cells)
        return columns

    def _recover(self, m: int, mb: int, read: Reader,
                 logical: Optional[int]) -> Optional[bytes]:
        # Every column is read, the one about to be discarded included.
        stripe, row = divmod(mb, self.rows)
        columns = self._read_columns(stripe, read, logical)
        columns[m] = None  # the cell we are here for is untrusted
        try:
            return self.stripe.cell(columns, m, row)
        except ValueError:
            return None

    def _rebuild_clean_run(self, index: int, start: int, end: int) -> int:
        # A live target's own column is among the stripe reads of the
        # per-block body; only a stale one is skipped there.
        if index not in self._stale:
            return 0
        others = [m for m in range(self.p + 1) if m != index]
        rows = self.rows
        first = start - start % rows
        stop = start + self._clean_run("write", index, range(start, end))
        # Each rebuilt cell reads its whole stripe from every survivor,
        # so a survivor must be clean over every stripe the run touches.
        for m in others:
            clean = self._clean_run(
                "read", m, range(first, stop + (-stop) % rows))
            stop = min(stop, first + clean - clean % rows)
        if stop <= start:
            return 0
        run = range(start, stop)
        # The requests the per-block body makes: one stripe per cell.
        wanted = [mb - mb % rows + r for mb in run for r in range(rows)]
        fetched = {m: self.members[m].device.read_blocks(wanted)
                   for m in others}
        content: List[bytes] = []
        for k, mb in enumerate(run):
            row = mb % rows
            if k == 0 or row == 0:  # the lost column, once per stripe
                columns = [fetched[m][k * rows:(k + 1) * rows] if m != index
                           else None for m in range(self.p + 1)]
                lost = (self.stripe.reconstruct(columns)[index]
                        if index == self._diag_parity else None)
            content.append(lost[row] if lost
                           else self.stripe.cell(columns, index, row))
        self.members[index].device.write_blocks(run, content)
        self._trust(index, run)
        return len(run)

    def _write_logical(self, block: int, data: bytes) -> None:
        col, mb = self._locate(block)
        stripe, row = divmod(mb, self.rows)
        old = self._member_read(col, mb, logical=block)
        if old is None:
            self._full_stripe_write(block, stripe, row, col, data)
            return
        row_parity = self._member_read(self._row_parity, mb, logical=block)
        if row_parity is None:
            self._full_stripe_write(block, stripe, row, col, data)
            return
        # The parity cells covering the data cell: its row, then its
        # stored diagonals.
        cells: List[Tuple[int, int]] = [(self._row_parity, mb)]
        parities = [row_parity]
        base = stripe * self.rows
        for d in ((row + col) % self.p, (row + self._row_parity) % self.p):
            if d == self.p - 1:
                continue  # the missing diagonal is not stored
            diag = self._member_read(self._diag_parity, base + d, logical=block)
            if diag is None:
                self._full_stripe_write(block, stripe, row, col, data)
                return
            cells.append((self._diag_parity, base + d))
            parities.append(diag)
        updates = [(col, mb, data)] + [
            (m, target, payload) for (m, target), payload
            in zip(cells, xor_update(parities, old, data))]
        landed = sum(1 for m, target, payload in updates
                     if self._member_write(m, target, payload))
        if landed == 0:
            raise WriteError(block, "array cannot store block")
        if (col, mb) in self._suspect:
            # The data cell itself failed but parity landed: the new
            # contents are recoverable through reconstruction.
            self._degraded_write(block, col)

    def _full_stripe_write(self, block: int, stripe: int, row: int,
                           col: int, data: bytes) -> None:
        columns = self._read_columns(stripe, self._member_read, block)
        try:
            full = self.stripe.reconstruct(columns)
        except ValueError:
            raise WriteError(
                block, "more than two member failures: RDP exhausted")
        full[col][row] = data
        encoded = self.stripe.encode(full[:self.stripe.data_columns])
        base = stripe * self.rows
        failed_cols: Set[int] = set()
        for m in range(self.p + 1):
            for r in range(self.rows):
                if not self._member_write(m, base + r, encoded[m][r]):
                    failed_cols.add(m)
        if len(failed_cols) > 2:
            raise WriteError(block, "array cannot store block")
        if col in failed_cols:
            self._degraded_write(block, col)

    def _poke_logical(self, block: int, data: bytes) -> None:
        col, mb = self._locate(block)
        stripe, row = divmod(mb, self.rows)
        base = stripe * self.rows
        self.members[col].disk.poke(mb, data)
        self._suspect.discard((col, mb))
        # Recompute (not incrementally update) the affected parities
        # from raw member contents, so a poke also heals any prior
        # inconsistency in its row/diagonals.
        self.members[self._row_parity].disk.poke(mb, xor_all([
            self.members[c].disk.peek(mb)
            for c in range(self.rows)]))  # data columns 0..p-2
        self._suspect.discard((self._row_parity, mb))
        for d in ((row + col) % self.p, (row + self._row_parity) % self.p):
            if d == self.p - 1:
                continue
            # The cells of diagonal d in the data + row-parity columns
            # (row r of column c; r = p-1 is not a stored row).
            on_diagonal = [(c, (d - c) % self.p) for c in range(self.p)]
            self.members[self._diag_parity].disk.poke(base + d, xor_all([
                self.members[c].disk.peek(base + r)
                for c, r in on_diagonal if r < self.rows]))
            self._suspect.discard((self._diag_parity, base + d))

    def _scrub_unit(self, unit: int, report: ArrayScrubReport) -> None:
        base = unit * self.rows
        columns, missing = self._scrub_read(unit, report)
        if len(missing) > 2:
            for col in missing:
                for row in range(self.rows):
                    report.unrepairable.append((col, base + row))
            return
        if missing:
            try:
                full = self.stripe.reconstruct(columns)
            except ValueError:
                for col in missing:
                    for row in range(self.rows):
                        report.unrepairable.append((col, base + row))
                return
            for col in missing:
                for row in range(self.rows):
                    self._repair(col, base + row, full[col][row], report)
            # Reported whether or not every cell landed.
            self._emit(ArrayRecoveryEvent(
                Severity.INFO, self._source(), "scrub-repair",
                f"stripe {unit}: {len(missing)} columns rebuilt",
                member=missing[0]))
            return
        self._scrub_verify(unit, base, columns, report)

    def _scrub_verify(self, unit: int, base: int,
                      columns: List[List[bytes]],
                      report: ArrayScrubReport) -> None:
        """All columns readable: check parity syndromes and repair the
        single silently-corrupt block RDP can locate uniquely."""
        p, rows = self.p, self.rows
        zero = self._zero
        row_wide, diag_wide = self.stripe.syndromes(columns)
        if not row_wide and not diag_wide:
            return
        # Per-row and per-stored-diagonal (0..p-2) syndromes.
        row_syndrome = self.stripe.split(row_wide)
        diag_syndrome = self.stripe.split(diag_wide)
        bad_rows = [r for r in range(rows) if row_syndrome[r] != zero]
        bad_diags = [d for d in range(rows) if diag_syndrome[d] != zero]
        fix: Optional[Tuple[int, int, bytes]] = None  # (col, member block, delta)
        if len(bad_rows) == 1 and len(bad_diags) == 1:
            r0, d0 = bad_rows[0], bad_diags[0]
            c0 = (d0 - r0) % p
            if row_syndrome[r0] == diag_syndrome[d0]:
                fix = (c0, base + r0, row_syndrome[r0])
        elif len(bad_rows) == 1 and not bad_diags:
            # The corrupt cell sits on the missing diagonal p-1.
            r0 = bad_rows[0]
            fix = ((p - 1 - r0) % p, base + r0, row_syndrome[r0])
        elif len(bad_diags) == 1 and not bad_rows:
            # The diagonal-parity block itself is corrupt.
            d0 = bad_diags[0]
            fix = (self._diag_parity, base + d0, diag_syndrome[d0])
        if fix is None:
            # Multiple corruptions: detected by redundancy, not locatable.
            self._detect(self._row_parity, base, "member-mismatch",
                         mechanism="redundancy")
            report.corruptions.append((self._row_parity, base))
            report.unrepairable.append((self._row_parity, base))
            return
        col, target, delta = fix
        report.corruptions.append((col, target))
        self._detect(col, target, "member-mismatch", mechanism="redundancy")
        current = columns[col][target - base]
        if self._repair(col, target, xor(current, delta), report):
            self._emit(ArrayRecoveryEvent(
                Severity.INFO, self._source(), "scrub-repair",
                f"stripe {unit}: corrupt block healed on member {col}",
                member=col))


#: Geometry registry for declarative construction (adapters, CLI).
GEOMETRIES = ("mirror", "parity", "rdp")


def make_array(geometry: str, num_blocks: int, block_size: int = 4096,
               members: int = 2, **timing) -> ArrayDevice:
    """Build an array by geometry name.

    *members* means the member count for ``mirror`` and ``parity`` and
    the RDP prime ``p`` for ``rdp`` (which has ``p + 1`` members).
    """
    timing_dict = timing or None
    if geometry == "mirror":
        return MirrorDevice(num_blocks, block_size, copies=members,
                            timing=timing_dict)
    if geometry == "parity":
        return StripeParityDevice(num_blocks, block_size, members=members,
                                  timing=timing_dict)
    if geometry == "rdp":
        return RDPDevice(num_blocks, block_size, p=members,
                         timing=timing_dict)
    raise ValueError(f"unknown array geometry {geometry!r}")
