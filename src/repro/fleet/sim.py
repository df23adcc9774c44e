"""One fleet trial: a device's mission simulated as discrete events.

A trial instantiates one array-backed
:class:`~repro.disk.stack.DeviceStack` (or a bare single-disk stack for
the R_zero baseline), advances a virtual **fleet clock** in hours, and
samples three arrival processes per member disk from named seeded
streams (:mod:`repro.common.rng`):

* **fail-stop** — the whole member dies (``fail_whole_disk``); a spare
  is seated after the policy's replacement delay and reconstructed by
  the *real* ``rebuild_member`` path, so anything else wrong in the
  array during the window defeats reconstruction exactly the way it
  would in the array code, not in closed-form math.
* **latent sector error** — a sticky (or, with the measured soft-error
  probability, transient) READ fault armed on the member's own
  ``FaultInjector``; nothing notices until a scrub, a degraded read, a
  rebuild, or the mission-end verify touches the block.
* **silent corruption** — seeded noise poked directly into the member
  disk below the injector: no error code, only D_redundancy (scrub
  comparison) or the mission-end verify can see it.

Scrubbing is driven by the fleet clock: every ``scrub_interval_hours``
the trial's own event heap pops a tick, and the tick steps the array's
incremental cursor (``ArrayDevice.scrub_step``) by the policy's
``scrub_units_per_tick`` (0 = the whole remaining pass).  Scrub pauses
while the array is degraded — scanning around a failed or half-rebuilt
member would misread expected redundancy gaps as damage — and skips
scans while nothing has been armed or corrupted since the last clean
pass (outcome-identical: scrubbing an untouched array repairs nothing).

A trial ends at the first established data loss (``detected-loss``), at
an R_stop freeze (``stopped``), or at mission end, where a full verify
read of every logical block against the expected fill pattern catches
what no mechanism ever flagged (``silent-loss``).  Everything —
arrivals, placements, noise bytes, tie-breaks — derives from the
trial's own seed, so a trial's outcome is a pure function of
``(spec, geometry, policy, trial_index)`` and campaigns can fan trials
across processes in any order.

Scoring notes (documented, deliberate):

* ``ttdl_hours`` is the fleet clock when loss was *established* by the
  machinery (a rebuild or scrub that came up short, a failed read, the
  mission-end verify) — silent corruption is, by definition, only
  established late.
* For the ``single`` geometry an unrecovered read error returned to
  the "application" scores as loss even when the underlying fault was
  transient: an R_zero stack has no retry and no redundancy, so the
  error is what the user sees.  Giving the policy ``retries`` makes
  exactly those trials survive — R_retry measured, not asserted.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common import Severity
from repro.common import rng as rng_mod
from repro.common.errors import ReadError
from repro.disk.disk import DiskStats
from repro.disk.faults import Fault, FaultKind, FaultOp, Persistence
from repro.disk.stack import DeviceStack
from repro.obs.capture import TraceCapture
from repro.obs.events import (
    ArrayRecoveryEvent,
    DetectionEvent,
    EventLog,
    FleetClockEvent,
    LogEvent,
    StorageEvent,
    fold_digest,
)
from repro.obs.timeseries import FlightRecorder, PackedSeries
from repro.obs.trace import enable_tracing
from repro.fleet.spec import FleetSpec, GeometrySpec, PolicySpec

#: Ring capacity of a trial's event log: big enough that a trial's
#: logical story (detections, recoveries, scrub/rebuild outcomes)
#: survives whole, bounded so ten thousand trials cannot hold the
#: campaign's memory hostage.
TRIAL_LOG_EVENTS = 8192

# Event kinds on the trial's virtual-time heap, in deterministic
# tie-break order (same-instant events resolve by kind then member).
_FAILSTOP = 0
_REPLACE = 1
_REBUILD = 2
_LSE = 3
_CORRUPT = 4
_TICK = 5

_ARRIVALS = (_FAILSTOP, _LSE, _CORRUPT)

#: The flight recorder's gauges, in the order ``_Trial._sample`` offers them.
GAUGES = ("repro_fleet_degraded_members", "repro_fleet_latent_blocks",
           "repro_fleet_corrupt_blocks", "repro_fleet_rebuild_progress",
           "repro_fleet_scrub_cursor", "repro_fleet_foreground_reads",
           "repro_fleet_scrub_member_reads")


class _RetryDevice:
    """R_retry at the member boundary: re-issue failed reads.

    Wraps a member's injector so *every* consumer of the member —
    degraded reads, scrub, rebuild reconstruction — gets the policy's
    retry depth, exactly where a retrying controller would sit.  A
    successful retry emits a typed ``recovery/retry`` event into the
    array's logical stream, so R_retry shows up in the same event
    vocabulary inference already classifies.
    """

    def __init__(self, inner, retries: int, log: EventLog, member: int):
        self._inner = inner
        self._retries = retries
        self._log = log
        self._member = member
        self.retry_recoveries = 0

    def read_block(self, block: int) -> bytes:
        try:
            return self._inner.read_block(block)
        except ReadError:
            for attempt in range(self._retries):
                try:
                    data = self._inner.read_block(block)
                except ReadError:
                    continue
                self.retry_recoveries += 1
                self._log.emit(ArrayRecoveryEvent(
                    Severity.INFO, "fleet", "read-retry",
                    f"member {self._member} block {block} recovered "
                    f"after {attempt + 1} retries",
                    block=block, mechanism="retry", member=self._member))
                return data
            raise

    def read_blocks(self, blocks: Sequence[int]) -> List[bytes]:
        """Vectored :meth:`read_block`: the inner device's clean prefix
        in one call, every other block with the policy's retries."""
        clean = self._inner.clean_prefix("read", blocks)
        out = self._inner.read_blocks(blocks[:clean]) if clean else []
        return out + [self.read_block(block) for block in blocks[clean:]]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@dataclass(frozen=True)
class TrialOutcome:
    """The compact, picklable verdict one trial sends back to the pool."""

    geometry: str
    policy: str
    trial: int
    #: "survived" | "detected-loss" | "silent-loss" | "stopped"
    outcome: str
    ttdl_hours: Optional[float]
    end_hours: float
    device_hours: float
    counters: Dict[str, int] = field(default_factory=dict)
    io: DiskStats = field(default_factory=DiskStats)
    events: int = 0
    #: SHA-256 over the trial's typed event stream — the per-trial
    #: determinism witness the campaign folds into its digest.
    digest: str = ""
    #: Where the terminal verdict was established ("rebuild" /
    #: "scrub" / "foreground" / "detection" / "verify" / "failstop";
    #: "" for survivors) — the post-mortem classifier's anchor.
    site: str = ""
    #: The recorder's :data:`GAUGES` binned over the mission, packed.
    series: Optional[PackedSeries] = None
    #: The trial's logical event stream (``LogEvent`` subclasses only
    #: — block I/O stays behind), sent for lost/stopped trials so the
    #: parent's post-mortem sees the whole chain; None for survivors.
    stream: Optional[Tuple[StorageEvent, ...]] = None
    #: Events the ring evicted before trial end (post-mortems report
    #: a truncated causal prefix honestly instead of silently).
    dropped_events: int = 0
    #: Traced re-runs only — the observed-run product behind the
    #: exported timeline: the whole stream (spans and block I/O too)
    #: and the raw flight-recorder samples (``repro-timeseries/1``).
    observed: Optional[TraceCapture] = None

    @property
    def lost(self) -> bool:
        return self.outcome in ("detected-loss", "silent-loss")


def _payload(block: int, trial: int, block_size: int) -> bytes:
    """The expected fill pattern — what the mission-end verify checks."""
    return bytes([(block * 37 + trial * 7 + 11) % 256]) * block_size


class _Trial:
    """State machine for one device's mission."""

    def __init__(self, spec: FleetSpec, geometry: GeometrySpec,
                 policy: PolicySpec, trial: int,
                 trace: bool = False):
        self.spec = spec
        self.geometry = geometry
        self.policy = policy
        self.trial = trial
        self.rates = spec.rates_for(policy)
        self.seed = rng_mod.derive_seed(
            spec.seed, "fleet", geometry.label, policy.name, trial)
        self.counters: Dict[str, int] = {}
        self.outcome = "survived"
        self.ttdl: Optional[float] = None
        self.end: Optional[float] = None
        self.dirty_since_scrub = False
        self.site = ""

        # Flight recorder: gauges over the virtual clock.  Sampling
        # reads state and draws no randomness, so instrumented trials
        # keep the exact arrival sequences of uninstrumented ones.
        self._recorder = FlightRecorder(GAUGES)
        #: Members currently failed or awaiting rebuild.
        self._degraded: set = set()
        #: Silently corrupted (member, block) pairs not yet repaired.
        self._corrupt: set = set()
        #: Open rebuild windows: member -> (opened_at, expected_close).
        self._windows: Dict[int, Tuple[float, float]] = {}
        self._trace = trace
        self._window_spans: Dict[int, int] = {}

        self.events = EventLog(max_events=TRIAL_LOG_EVENTS)
        if geometry.kind == "single":
            self.stack = DeviceStack.build(
                spec.num_blocks, spec.block_size,
                inject=True, events=self.events)
            self.array = None
            self.n_members = 1
            self.single_cursor = 0
        else:
            self.stack = DeviceStack.build(
                spec.num_blocks, spec.block_size, events=self.events,
                array=geometry.kind, members=geometry.members)
            self.array = self.stack.disk
            self.n_members = len(self.array.members)
            if policy.retries > 0:
                for member in self.array.members:
                    member.device = _RetryDevice(
                        member.injector, policy.retries,
                        self.events, member.index)

        for block in range(spec.num_blocks):
            self.stack.write_block(
                block, _payload(block, trial, spec.block_size))
        self.stack.flush()
        self.events.clear()
        # Tracing starts after the (uninteresting) initial fill; a
        # traced trial reaches the same verdict — spans draw no
        # randomness — but its event stream gains the span vocabulary.
        self._tracer = enable_tracing(self.events) if trace else None

        # Named child streams: one per (process, member) plus shared
        # placement / noise / foreground-IO streams.  Derivation is
        # order-independent, so adding a stream never shifts another.
        self._streams = {
            (proc, m): rng_mod.stream(self.seed, proc, m)
            for proc in ("failstop", "lse", "corrupt")
            for m in range(self.n_members)
        }
        self._placement = rng_mod.stream(self.seed, "placement")
        self._noise = rng_mod.stream(self.seed, "noise")
        self._io = rng_mod.stream(self.seed, "io")

        self._heap: List[Tuple[float, int, int, int, int]] = []
        self._seq = 0
        self._epochs = [0] * self.n_members
        #: Sticky latent faults currently armed, by (member, block) —
        #: so repairs can *heal* them: a drive that rewrites a latent
        #: sector remaps it (Gray & van Ingen's reallocated sectors),
        #: so a scrub repair-write or a fresh spare clears the fault.
        #: Without this, latent errors accumulate for the whole mission
        #: and tiny simulated arrays saturate on same-stripe collisions.
        self._armed: Dict[Tuple[int, int], List[Fault]] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _push(self, t: float, kind: int, member: int = -1) -> None:
        self._seq += 1
        epoch = self._epochs[member] if member >= 0 else 0
        heapq.heappush(self._heap, (t, kind, member, self._seq, epoch))

    def _schedule_arrival(self, now: float, kind: int, member: int) -> None:
        rate = {
            _FAILSTOP: self.rates.failstop_per_hour,
            _LSE: self.rates.lse_per_hour,
            _CORRUPT: self.rates.corruption_per_hour,
        }[kind]
        if rate <= 0:
            return
        proc = {_FAILSTOP: "failstop", _LSE: "lse", _CORRUPT: "corrupt"}[kind]
        gap = self._streams[(proc, member)].expovariate(rate)
        self._push(now + gap, kind, member)

    def _schedule_member(self, now: float, member: int) -> None:
        for kind in _ARRIVALS:
            self._schedule_arrival(now, kind, member)

    def _clock(self, t: float, tag: str, message: str,
               member: Optional[int] = None,
               block: Optional[int] = None) -> None:
        """Stamp a lifecycle observation with the fleet clock."""
        self.events.emit(FleetClockEvent(
            Severity.INFO, "fleet", tag, message,
            block=block, t_hours=round(t, 6), member=member))

    def _sample(self, t: float) -> None:
        """Offer the flight recorder one row of ``GAUGES`` at *t*."""
        progress = 0.0
        for opened, closes in self._windows.values():
            span = closes - opened
            if span > 0:
                progress = max(progress, min(1.0, (t - opened) / span))
        if self.array is not None:
            cursor = self.array.scrub_cursor / max(1, self.array.scrub_units)
        else:
            cursor = self.single_cursor / max(1, self.spec.num_blocks)
        self._recorder.sample(t, (
            len(self._degraded), len(self._armed), len(self._corrupt),
            progress, cursor, self.counters.get("foreground_reads", 0),
            self.counters.get("scrub_units", 0)))

    def _lose(self, t: float, silent: bool = False, site: str = "") -> None:
        self.outcome = "silent-loss" if silent else "detected-loss"
        self.ttdl = round(t, 6)
        self.end = t
        self.site = site
        self._clock(t, "loss-established",
                    f"{self.outcome} established at {site or 'unknown'}")

    def _stop(self, t: float, site: str = "") -> None:
        self.outcome = "stopped"
        self.end = t
        self.site = site
        self._clock(t, "rstop-freeze",
                    f"R_stop froze the array at {site or 'unknown'}")

    @property
    def _done(self) -> bool:
        return self.end is not None

    def _member_disk(self, member: int):
        if self.array is None:
            return self.stack.disk
        return self.array.members[member].disk

    def _member_injector(self, member: int):
        return (self.stack.injector if self.array is None
                else self.array.members[member].injector)

    def _heal(self, member: int, block: int) -> None:
        """A repair rewrote this member block: the drive remapped the
        latent sector, so its sticky READ fault disarms."""
        for fault in self._armed.pop((member, block), ()):
            injector = self._member_injector(member)
            if fault in injector.faults:
                injector.disarm(fault)

    def _detections_since(self) -> bool:
        """Did the machinery emit a DetectionEvent since last checked?
        (The R_stop trigger for faults the array *noticed*.)"""
        return any(isinstance(e, DetectionEvent)
                   for e in self.events.consume_new())

    def _read_logical(self, block: int) -> bytes:
        """A foreground/verify read with the policy's R_retry depth
        applied at the stack boundary (the array's members already
        retry below via :class:`_RetryDevice`)."""
        try:
            return self.stack.read_block(block)
        except ReadError:
            if self.array is None:
                for _ in range(self.policy.retries):
                    try:
                        data = self.stack.read_block(block)
                    except ReadError:
                        continue
                    self._count("retry_recoveries")
                    return data
            raise

    # -- event handlers ----------------------------------------------------------

    def _on_failstop(self, t: float, member: int) -> None:
        self._count("failstops")
        self._clock(t, "failstop-arrival",
                    f"member {member} fail-stopped", member=member)
        if self.policy.stop_on_fault:
            # Whole-disk failure is detected at once (the device's
            # error code / heartbeat): R_stop freezes here.
            self._stop(t, site="failstop")
            return
        if self.array is None:
            # R_zero: no spare pool, no redundancy — the data is gone.
            self._lose(t, site="failstop")
            return
        self.array.fail_member(member)
        self._degraded.add(member)
        expected = t + self.policy.replace_delay_hours \
            + self.policy.rebuild_hours(self._member_disk(member).num_blocks)
        self._windows[member] = (t, expected)
        if self._trace:
            self._window_spans[member] = self._tracer.start(
                f"rebuild-window m{member}", "phase",
                detail=f"opened {round(t, 3)}h", source="fleet",
                floating=True)
        # The dead member's pending arrivals are void.
        self._epochs[member] += 1
        self._push(t + self.policy.replace_delay_hours, _REPLACE, member)

    def _on_replace(self, t: float, member: int) -> None:
        self.array.replace_member(member)
        # The spare is new hardware: the dead disk's media faults do
        # not carry over to it.
        self.array.members[member].injector.clear_faults()
        self._armed = {key: faults for key, faults in self._armed.items()
                       if key[0] != member}
        self._corrupt = {key for key in self._corrupt if key[0] != member}
        self.events.consume_new()
        self._count("rebuild_windows")
        self._clock(t, "spare-seated",
                    f"spare seated for member {member}", member=member)
        blocks = self._member_disk(member).num_blocks
        self._push(t + self.policy.rebuild_hours(blocks), _REBUILD, member)

    def _on_rebuild(self, t: float, member: int) -> None:
        rebuilt = self.array.rebuild_member(member)
        self._count("rebuilt_blocks", rebuilt)
        self._count("rebuilds")
        fresh = self.events.consume_new()
        if any(getattr(e, "tag", "") == "rebuild-loss" for e in fresh):
            # Reconstruction came up short: compound failure inside the
            # window (the §3.3 scenario) — loss, established here.
            self._lose(t, site="rebuild")
            return
        self._degraded.discard(member)
        self._windows.pop(member, None)
        self._clock(t, "rebuild-complete",
                    f"member {member} reconstructed ({rebuilt} blocks)",
                    member=member)
        if self._trace:
            span = self._window_spans.pop(member, 0)
            self._tracer.end(span)
        # Member healthy again: its arrival processes resume.
        self._schedule_member(t, member)

    def _on_lse(self, t: float, member: int) -> None:
        self._count("lse")
        stream = self._streams[("lse", member)]
        transient = stream.random() < self.rates.transient_fraction
        if transient:
            self._count("lse_transient")
        disk = self._member_disk(member)
        block = self._placement.randrange(disk.num_blocks)
        self._clock(t, "lse-arrival",
                    f"latent {'transient' if transient else 'sticky'} "
                    f"error on member {member} block {block}",
                    member=member, block=block)
        fault = self._member_injector(member).arm(Fault(
            FaultOp.READ, FaultKind.FAIL, block=block,
            persistence=(Persistence.TRANSIENT if transient
                         else Persistence.STICKY),
            transient_count=1))
        if not transient:
            self._armed.setdefault((member, block), []).append(fault)
        self.dirty_since_scrub = True
        self._schedule_arrival(t, _LSE, member)

    def _on_corrupt(self, t: float, member: int) -> None:
        self._count("corruptions")
        disk = self._member_disk(member)
        block = self._placement.randrange(disk.num_blocks)
        self._clock(t, "corrupt-arrival",
                    f"silent corruption on member {member} block {block}",
                    member=member, block=block)
        noise = rng_mod.random_bytes(self._noise, self.spec.block_size)
        # Below the injector, no error code: the definition of silent.
        disk.poke(block, noise)
        self._corrupt.add((member, block))
        self.dirty_since_scrub = True
        self._schedule_arrival(t, _CORRUPT, member)

    def _on_tick(self, t: float) -> None:
        nxt = t + self.policy.scrub_interval_hours
        if nxt <= self.spec.mission_hours + 1e-9:
            self._push(nxt, _TICK)
        span = self._tracer.start(
            f"tick@{round(t, 3)}h", "phase", source="fleet") \
            if self._trace else 0
        self._foreground_io(t)
        if not self._done:
            self._scrub_tick(t)
        if self._trace:
            self._tracer.end(span, status="ok" if not self._done
                             else self.outcome)

    def _foreground_io(self, t: float) -> None:
        for _ in range(self.policy.io_reads_per_tick):
            block = self._io.randrange(self.spec.num_blocks)
            try:
                self._read_logical(block)
            except ReadError:
                # Every recovery level below already had its chance
                # (member retries, reconstruction): the error reaching
                # the application is loss — or the R_stop trigger.
                self._count("foreground_errors")
                if self.policy.stop_on_fault:
                    self._stop(t, site="foreground")
                else:
                    self._lose(t, site="foreground")
                return
            self._count("foreground_reads")
        if self.policy.stop_on_fault and self._detections_since():
            self._stop(t, site="detection")

    def _scrub_tick(self, t: float) -> None:
        if self.policy.scrub_interval_hours <= 0:
            return
        if self.array is not None:
            if self.array.degraded:
                # Scrub pauses while failed/stale members would make
                # expected redundancy gaps look like damage (rebuild
                # has priority on a real array, too).
                self._count("scrubs_deferred")
                return
            if not self.dirty_since_scrub:
                # Nothing armed or corrupted since the last clean pass:
                # the scan would repair nothing, so skipping it is
                # outcome-identical and much cheaper.
                self._count("scrubs_skipped")
                return
            report = self.array.scrub_step(
                self.policy.scrub_units_per_tick
                or self.array.scrub_units - self.array.scrub_cursor)
            self._count("scrub_ticks")
            self._count("scrub_units", report.units_scanned)
            self._count("scrub_repairs", len(report.repaired))
            for member, block in report.repaired:
                self._heal(member, block)
                self._corrupt.discard((member, block))
            if report.unrepairable:
                if self.policy.stop_on_fault:
                    self._stop(t, site="scrub")
                else:
                    self._lose(t, site="scrub")
                return
            if self.policy.stop_on_fault and (
                    report.latent_errors or report.corruptions):
                self._stop(t, site="scrub")
                return
            self.events.consume_new()
            if self.array.scrub_cursor == 0 and report.units_scanned:
                self._count("scrub_passes")
                self.dirty_since_scrub = False
                self._clock(t, "scrub-pass", "scrub pass completed clean")
        else:
            self._single_scrub(t)

    def _single_scrub(self, t: float) -> None:
        """Media scan for the R_zero baseline: sequential reads with the
        policy's retry depth; an unreadable block has no second copy."""
        if not self.dirty_since_scrub:
            self._count("scrubs_skipped")
            return
        total = self.spec.num_blocks
        units = self.policy.scrub_units_per_tick or total - self.single_cursor
        end = min(self.single_cursor + units, total)
        self._count("scrub_ticks")
        for block in range(self.single_cursor, end):
            self._count("scrub_units")
            try:
                self._read_logical(block)
            except ReadError:
                self._count("scrub_errors")
                if self.policy.stop_on_fault:
                    self._stop(t, site="scrub")
                else:
                    self._lose(t, site="scrub")
                return
        if end >= total:
            self.single_cursor = 0
            self._count("scrub_passes")
            self.dirty_since_scrub = False
            self._clock(t, "scrub-pass", "media scan completed clean")
        else:
            self.single_cursor = end

    def _verify(self, t: float) -> None:
        """Mission-end audit: every logical block against the expected
        fill.  Detected loss if a read errors through all recovery
        levels; *silent* loss if wrong bytes come back without one."""
        self._clock(t, "verify-start", "mission-end verify sweep")
        span = self._tracer.start("verify", "phase", source="fleet") \
            if self._trace else 0
        try:
            for block in range(self.spec.num_blocks):
                expected = _payload(block, self.trial, self.spec.block_size)
                try:
                    data = self._read_logical(block)
                except ReadError:
                    self._lose(t, site="verify")
                    return
                if bytes(data) != expected:
                    self._lose(t, silent=True, site="verify")
                    return
        finally:
            if self._trace:
                self._tracer.end(span, status=self.outcome
                                 if self._done else "ok")

    # -- main loop --------------------------------------------------------------

    def run(self) -> TrialOutcome:
        mission = self.spec.mission_hours
        root = self._tracer.start(
            f"mission {self.geometry.label}/{self.policy.name}"
            f"#{self.trial}", "run", source="fleet") if self._trace else 0
        for member in range(self.n_members):
            self._schedule_member(0.0, member)
        if self.policy.scrub_interval_hours > 0:
            self._push(self.policy.scrub_interval_hours, _TICK)
        self._sample(0.0)

        handlers = {
            _FAILSTOP: self._on_failstop,
            _REPLACE: self._on_replace,
            _REBUILD: self._on_rebuild,
            _LSE: self._on_lse,
            _CORRUPT: self._on_corrupt,
        }
        while self._heap and not self._done:
            t, kind, member, _seq, epoch = heapq.heappop(self._heap)
            if t > mission:
                break
            if kind in _ARRIVALS and member >= 0 \
                    and epoch != self._epochs[member]:
                continue  # arrival for a member that since fail-stopped
            if kind == _TICK:
                self._on_tick(t)
            else:
                handlers[kind](t, member)
            self._sample(t)

        if not self._done:
            self._verify(mission)
        end = self.end if self.end is not None else mission
        self._sample(end)
        if self._trace:
            for span in self._window_spans.values():
                self._tracer.end(span, status="open-at-end")
            self._tracer.end(root, status=self.outcome)

        if self.array is not None:
            io = self.array.merged_member_stats()
            self._count("degraded_reads", self.array.degraded_reads)
            self._count("read_repairs", self.array.read_repairs)
            self._count("retry_recoveries", sum(
                getattr(m.device, "retry_recoveries", 0)
                for m in self.array.members))
        else:
            io = DiskStats().merge(self.stack.stats)

        label = f"fleet:{self.geometry.label}:{self.policy.name}:{self.trial}"
        hasher = hashlib.sha256()
        fold_digest(hasher, label, list(self.events))
        # Post-mortems only need the logical story: a lost or stopped
        # trial ships its LogEvents (arrivals, detections, recoveries,
        # verdicts), not the block-I/O firehose.  Traced re-runs keep
        # everything — the timeline export wants spans and I/O too.
        observed = None
        if self._trace:
            stream: Optional[Tuple[StorageEvent, ...]] = tuple(self.events)
            observed = TraceCapture(
                f"fleet:{self.geometry.label}:{self.policy.name}",
                [(label, stream)], flight=self._recorder.to_snapshot())
        elif self.outcome != "survived":
            stream = tuple(e for e in self.events
                           if isinstance(e, LogEvent))
        else:
            stream = None
        return TrialOutcome(
            geometry=self.geometry.label,
            policy=self.policy.name,
            trial=self.trial,
            outcome=self.outcome,
            ttdl_hours=self.ttdl,
            end_hours=round(end, 6),
            device_hours=round(self.n_members * end, 6),
            counters=dict(sorted(self.counters.items())),
            io=io,
            events=len(self.events),
            digest=hasher.hexdigest(),
            site=self.site,
            series=self._recorder.packed(mission),
            stream=stream,
            dropped_events=self.events.dropped,
            observed=observed,
        )


def run_trial(spec: FleetSpec, geometry: GeometrySpec, policy: PolicySpec,
              trial: int, trace: bool = False) -> TrialOutcome:
    """Simulate one device's mission; pure in ``(spec, cell, trial)``.

    ``trace=True`` re-runs the same trial with span tracing enabled:
    the verdict, time-to-loss and arrival sequence are identical (spans
    draw no randomness), but the event stream gains span events for the
    Perfetto timeline export, so the per-trial digest differs from the
    untraced run by construction.
    """
    return _Trial(spec, geometry, policy, trial, trace=trace).run()


__all__ = [
    "GAUGES",
    "TRIAL_LOG_EVENTS",
    "TrialOutcome",
    "run_trial",
]
