"""Bounded crash-state exploration: record, enumerate, replay, check.

The paper's fail-partial model (§2.2) and ixt3's transactional
checksums (§6.1) are claims about what survives an untimely crash.
This engine validates them systematically instead of by spot checks:

1. **Record** — run a :class:`~repro.crash.workloads.CrashWorkload`
   on a freshly formatted volume behind a recording
   :class:`~repro.disk.stack.DeviceStack`; the shared
   :class:`~repro.obs.events.EventLog` captures the ordered stream of
   :class:`~repro.obs.events.WriteImageEvent`\\ s interleaved with
   :class:`~repro.obs.events.JournalCommitEvent` barriers.  Setup is
   synced first and an O(1) CoW snapshot ("golden") taken, so every
   crash state is golden + some subset of recorded writes.

2. **Enumerate** — crash points are every *prefix* of the write
   sequence (an in-order power cut), plus bounded *torn* states: for
   each journal-commit epoch, the epoch completes but one of its
   writes is lost — the write-back-cache reordering of §2.2's phantom
   writes, the exact window transactional checksums exist to close.

3. **Replay** — each state is reconstructed by restoring the golden
   snapshot (O(1) — copy-on-write aliasing) and poking the selected
   write images back, then mounting a fresh file-system instance so
   its recovery path (journal replay) runs for real.

4. **Check** — per-state oracles:

   * **mountability** — recovery must neither panic nor refuse the
     volume;
   * **journal atomicity** — the recovered observable state must equal
     one of the *epoch boundary* states (transactions apply entirely
     or not at all);
   * **lost acknowledged data** — files synced before the recorded
     window must read back byte-identical;
   * **replay idempotence** — unmounting and mounting again must not
     change the state or replay the journal a second time;
   * **metadata consistency** — for the ext3 family, fsck must report
     the recovered volume clean.

Every violation carries the exact state key (``prefix:i`` or
``torn:e:j``) that reproduces it; :func:`apply_state` rebuilds the
disk image for any key.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import KernelPanic, StorageError
from repro.crash.workloads import CRASH_WORKLOADS, CrashWorkload
from repro.disk.stack import DeviceStack
from repro.fingerprint.adapters import ADAPTERS
from repro.fs.ext3.fsck import fsck_ext3
from repro.fs.ixt3.mkfs import FEATURE_BITS, features_mask
from repro.obs.capture import TraceCapture
from repro.obs.events import (
    DetectionEvent,
    EventLog,
    JournalCommitEvent,
    PolicyActionEvent,
    RecoveryEvent,
    StorageEvent,
    WriteImageEvent,
)
from repro.obs.trace import (
    SpanEndEvent,
    SpanStartEvent,
    enable_tracing,
    event_ref,
    span_ref,
)

#: Default cap on torn states per epoch (None = every single-write loss).
DEFAULT_MAX_TORN = None


@dataclass(frozen=True)
class CrashProfile:
    """How to build and judge one file system under crash exploration."""

    key: str
    #: Adapter recipe: ``ADAPTERS[registry_key](**registry_kwargs)``.
    registry_key: str
    registry_kwargs: Dict = field(default_factory=dict)
    #: An ext3-family volume: run its fsck as a consistency oracle, and
    #: fold statfs free counts into the state digest (a half-applied
    #: transaction shows up as leaked blocks/inodes even when the
    #: namespace looks plausible).
    ext3_family: bool = False


#: The file systems and array geometries a profile may name.
CRASH_FS = ("ext3", "ixt3", "reiserfs", "jfs", "ntfs")
CRASH_GEOMETRIES = ("mirror2", "parity4", "rdp5")

#: ``repro crash --list`` prints this.
PROFILE_GRAMMAR = f"""\
FS[+FEATURE...][@GEOMETRY]
  FS        {' | '.join(CRASH_FS)}
  FEATURE   {' | '.join(FEATURE_BITS)} (ixt3 only, Table 6's names; none = all off)
  GEOMETRY  {' | '.join(CRASH_GEOMETRIES)} (the volume on a redundancy array)
  e.g. ext3, ixt3+Mc+Dc@rdp5, ixt3+none; ixt3 alone means ixt3+Tc"""


def _profile(fs: str, features: Tuple[str, ...] = (), geometry: str = "",
             key: str = "") -> CrashProfile:
    at = f"@{geometry}" if geometry else ""
    if fs == "ixt3":
        canonical = f"ixt3+{'+'.join(features) or 'none'}{at}"
        kwargs = {"features": features_mask(features)}
    else:
        canonical, kwargs = fs + at, {}
    return CrashProfile(key or canonical, fs + at, kwargs,
                        ext3_family=fs in ("ext3", "ixt3"))


CRASH_PROFILES: Dict[str, CrashProfile] = {
    "ext3": _profile("ext3"),
    # "ixt3" here means ixt3 with *transactional checksums* (§6.1) —
    # the feature whose crash claim this engine exists to test.
    "ixt3": _profile("ixt3", ("Tc",), key="ixt3"),
    "reiserfs": _profile("reiserfs"),
    "jfs": _profile("jfs"),
    "ntfs": _profile("ntfs"),
    # Array-backed twins: the same file system with its single disk
    # swapped for a redundancy array.  Crash exploration is geometry-
    # agnostic — the composite array snapshot restores O(1) per state
    # like a slab image.
    "ext3@mirror2": _profile("ext3", geometry="mirror2"),
    "ext3@rdp5": _profile("ext3", geometry="rdp5"),
}


def crash_profile(key: str) -> CrashProfile:
    """The profile *key* names: one of :data:`CRASH_PROFILES`, or any
    member of the :data:`PROFILE_GRAMMAR` family — a file system, for
    ixt3 a set of Table-6 features, and an optional array geometry
    (``ixt3+Mc+Dc@rdp5``).  Features are put in Table 6's order, so
    every spelling of one variant gets the same key; ixt3 with no
    feature list has Tc, the engine's subject.  An unknown name raises
    ``KeyError``."""
    if key in CRASH_PROFILES:
        return CRASH_PROFILES[key]
    base, at, geometry = key.partition("@")
    fs, *features = base.split("+")
    if fs == "ixt3" and features in ([], ["none"]):
        features = [] if features else ["Tc"]
    chosen = tuple(f for f in FEATURE_BITS if f in features)
    if (fs not in CRASH_FS or (at and geometry not in CRASH_GEOMETRIES)
            or len(chosen) != len(features) or (chosen and fs != "ixt3")):
        raise KeyError(f"no such crash profile: {key!r}")
    return _profile(fs, chosen, geometry)


@dataclass(frozen=True)
class CrashState:
    """One enumerated crash point.

    ``prefix:i``  — writes ``[0, i)`` reached the platter, in order.
    ``torn:e:j``  — epoch *e* completed (prefix up to its commit
    barrier) but the epoch's *j*-th write was lost in the drive's
    write-back cache.
    """

    key: str
    end: int
    dropped: Optional[int] = None


@dataclass(frozen=True)
class Violation:
    """One oracle failure, addressable by its reproducing state key."""

    state_key: str
    oracle: str
    detail: str
    #: Explainability: references into the state's recovery-event
    #: stream — at minimum the per-state replay span, plus the first
    #: detection/recovery/policy event recovery emitted.  Resolve with
    #: :func:`repro.obs.trace.resolve_ref` against
    #: ``CrashReport.observed.by_label()``.
    provenance: Tuple[str, ...] = ()

    def as_tuple(self) -> Tuple[str, str, str]:
        # Provenance deliberately excluded: the violation digest is the
        # determinism witness and must stay comparable with records
        # produced before tracing existed.
        return (self.state_key, self.oracle, self.detail)


@dataclass(frozen=True)
class StateObservation:
    """What one crash state looked like after recovery."""

    key: str
    outcome: str  # "recovered" | "degraded-ro" | "panic" | "unmountable"
    digest: Optional[str]
    violations: Tuple[Violation, ...]
    #: The state's recovery event stream (replay span + everything the
    #: recovering FS emitted).  Kept only for violating states, or for
    #: every state when the exploration ran with ``trace=True`` —
    #: provenance references resolve against this.
    trace: Tuple[StorageEvent, ...] = ()


@dataclass
class Recording:
    """A workload's recorded write stream plus everything replay needs."""

    profile: CrashProfile
    workload: CrashWorkload
    disk: object
    adapter: object
    #: Golden slab image (snapshot after setup); restored O(1) per state.
    golden: object
    writes: List[Tuple[int, bytes]]
    #: Prefix lengths at each journal-commit barrier, strictly increasing.
    boundaries: List[int]
    #: Digests of every legal post-recovery state (epoch boundaries).
    boundary_digests: Dict[str, int] = field(default_factory=dict)
    #: Acknowledged-before-recording file contents.
    protected: Dict[str, bytes] = field(default_factory=dict)
    #: Keep per-state recovery streams for *every* state (not just
    #: violating ones) — set by ``record(trace=True)``.
    trace: bool = False
    #: Content-keyed memos for the *untraced* pure-read checks — the
    #: second-mount digest walk and read-only fsck.  Distinct crash
    #: states routinely recover to identical on-disk contents, and
    #: neither check emits into the state's kept event stream, so equal
    #: contents (golden image + privatized delta) imply equal results.
    digest_memo: Dict[tuple, str] = field(default_factory=dict)
    fsck_memo: Dict[tuple, Tuple[bool, str]] = field(default_factory=dict)
    #: Memo for the *traced* first-mount walk (digest + protected-file
    #: checks).  Unlike the two above, this segment emits VFS-op spans
    #: into the state's kept stream (they are part of the span-tree
    #: digest), so a hit cannot simply skip it: the cached entry carries
    #: a structural template of everything the segment emitted, and
    #: :func:`_replay_segment` re-plays it through the state's own
    #: tracer so span ids / parents / ordering come out exactly as a
    #: live walk would have produced them.  ``None`` marks a segment
    #: that wrote to the disk (a repairing policy): never replayed.
    walk_memo: Dict[tuple, Optional[tuple]] = field(default_factory=dict)
    #: Pre-recovery device deltas of the prefix states built so far, by
    #: prefix length (``capture_delta()``): :func:`apply_state` starts
    #: each state from the nearest earlier one instead of from golden.
    captures: Dict[int, object] = field(default_factory=dict)


# -- record -------------------------------------------------------------------


def record(
    profile: CrashProfile,
    workload: CrashWorkload,
    trace: bool = False,
    max_events: Optional[int] = None,
) -> Recording:
    """Run *workload* behind a recording stack and capture its stream.

    The recorder consumes incrementally — :meth:`EventLog.drain` after
    every step — so the shared log never holds more than one step's
    events, however long the workload (``drain() + drain() + ...``
    yields exactly the stream a single trailing ``consume_new()``
    would).  *max_events* additionally arms the log's ring mode as a
    hard backstop for steps that are themselves enormous.
    """
    adapter = ADAPTERS[profile.registry_key](**profile.registry_kwargs)
    disk = adapter.build_device()
    adapter.mkfs(disk)
    stack = DeviceStack(disk, record=True, events=EventLog(max_events=max_events))
    fs = adapter.make_fs(stack)
    fs.mount()
    workload.setup(fs)
    fs.sync()
    stack.events.drain()  # setup writes are below the golden line
    golden = disk.snapshot()

    writes: List[Tuple[int, bytes]] = []
    boundaries: List[int] = []

    def ingest(batch: List[StorageEvent]) -> None:
        for event in batch:
            if isinstance(event, WriteImageEvent):
                writes.append((event.block, event.data))
            elif isinstance(event, JournalCommitEvent):
                if not boundaries or boundaries[-1] != len(writes):
                    boundaries.append(len(writes))

    # Batched journaling: one transaction per step, committed to the
    # log but never checkpointed — every epoch leaves recovery real
    # work to do, which is the window being explored.
    fs.sync_mode = False
    for step in workload.steps:
        step(fs)
        fs.commit_transaction()
        ingest(stack.events.drain())
    fs.crash()
    ingest(stack.events.drain())

    rec = Recording(
        profile=profile,
        workload=workload,
        disk=disk,
        adapter=adapter,
        golden=golden,
        writes=writes,
        boundaries=boundaries,
        trace=trace,
    )
    _prepare_reference(rec)
    return rec


def _boundary_marks(rec: Recording) -> List[int]:
    marks = [0] + [b for b in rec.boundaries]
    if len(rec.writes) not in marks:
        marks.append(len(rec.writes))
    seen, out = set(), []
    for m in marks:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def _prepare_reference(rec: Recording) -> None:
    """Compute the legal-state digest set and protected-file contents.

    A boundary prefix hands recovery only *complete* transactions, so
    mounting it must always succeed; a failure here is an engine (or
    file-system) defect, not a finding, and raises.
    """
    for mark in _boundary_marks(rec):
        apply_state(rec, CrashState(f"prefix:{mark}", mark))
        fs = rec.adapter.make_fs(rec.disk)
        fs.mount()
        digest = state_digest(fs, rec.profile.ext3_family)
        rec.boundary_digests.setdefault(digest, mark)
        if mark == 0:
            for path in rec.workload.protected:
                rec.protected[path] = fs.read_file(path)
        fs.unmount()


# -- enumerate ----------------------------------------------------------------


def enumerate_states(
    rec: Recording, max_torn_per_epoch: Optional[int] = DEFAULT_MAX_TORN
) -> List[CrashState]:
    """Every prefix cut, plus bounded torn states per commit epoch."""
    if max_torn_per_epoch is not None and max_torn_per_epoch < 0:
        raise ValueError(
            f"max_torn_per_epoch must be >= 0, got {max_torn_per_epoch}")
    states = [CrashState(f"prefix:{i}", i) for i in range(len(rec.writes) + 1)]
    prev = 0
    for epoch, bound in enumerate(rec.boundaries):
        taken = 0
        # Dropping the epoch's final write is identical to the prefix
        # one short of the boundary; skip the duplicate.
        for j in range(prev, bound - 1):
            if max_torn_per_epoch is not None and taken >= max_torn_per_epoch:
                break
            states.append(CrashState(f"torn:{epoch}:{j - prev}", bound, j))
            taken += 1
        prev = bound
    return states


def state_by_key(rec: Recording, key: str) -> CrashState:
    """Resolve a reported state key back to its crash state (repro aid)."""
    for state in enumerate_states(rec, max_torn_per_epoch=None):
        if state.key == key:
            return state
    raise KeyError(f"no such crash state: {key!r}")


# -- replay -------------------------------------------------------------------


def apply_state(rec: Recording, state: CrashState) -> None:
    """Reconstruct *state* on the recording's disk: O(1) golden restore
    plus the selected write images poked back in order.

    Chained: the pokes of the longest prefix state already built that
    the state extends — ``prefix:i-1`` for ``prefix:i``, the prefix
    ending at the dropped write for a torn state — come back as one
    captured delta, so a state pokes only its own writes.  Poking in
    order from golden would leave the same delta, item for item."""
    rec.disk.restore(rec.golden)
    start = state.end if state.dropped is None else state.dropped
    while start and start not in rec.captures:
        start -= 1
    if start:
        rec.disk.install_delta(rec.captures[start])
    for i in range(start, state.end):
        if i == state.dropped:
            continue
        block, data = rec.writes[i]
        rec.disk.poke(block, data)
    if state.dropped is None and state.end and state.end not in rec.captures:
        rec.captures[state.end] = rec.disk.capture_delta()
    # Each reconstructed state gets its own event stream so recovery
    # observations never bleed between states (or into the recording).
    rec.disk.events = EventLog()


def _content_key(disk, exclude: Optional[Tuple[int, int]] = None) -> tuple:
    """Immutable key for the disk's current *logical* contents.  The
    golden base never changes within a :class:`Recording`, so the
    privatized delta identifies the state — canonicalized: entries
    whose payload equals the base image's (or all-zeroes over a
    never-written base block) are dropped, so crash states that
    recover to identical contents key equal even though they dirtied
    different block sets on the way there.  *exclude* elides a
    half-open block range the memoized computation provably never
    reads (the journal region: post-recovery it holds per-state replay
    residue that neither the namespace walk nor read-only fsck looks
    at)."""
    image = getattr(disk, "base_image", None)
    out = []
    for b, payload in disk.dirty_items():
        if exclude is not None and exclude[0] <= b < exclude[1]:
            continue
        if image is not None:
            base = image.block(b)
            if base is None:
                if payload.count(0) == len(payload):
                    continue
            elif payload == base:
                continue
        out.append((b, payload))
    return tuple(out)


def _segment_template(events) -> tuple:
    """Structural template of one traced segment's emissions: span
    starts/ends reduced to their content (donor span ids kept only to
    pair ends with starts at replay time), other events — detections a
    verifying read surfaced, policy actions — kept verbatim (they are
    frozen and content-pure, so sharing the objects is safe)."""
    ops = []
    for e in events:
        if isinstance(e, SpanStartEvent):
            ops.append(("s", e.span_id, e.name, e.category, e.detail, e.source))
        elif isinstance(e, SpanEndEvent):
            ops.append(("e", e.span_id, e.status))
        else:
            ops.append(("v", e))
    return tuple(ops)


def _replay_segment(stream: EventLog, template: tuple) -> None:
    """Re-emit a recorded segment through *stream*'s own (enabled)
    tracer.  Span ids are assigned fresh by the tracer — the donor ids
    in the template only pair each end with its start — so ids, parent
    links and ordering land exactly as a live walk over the same disk
    contents would have produced them."""
    tracer = stream.tracer
    id_map: Dict[int, int] = {}
    for op in template:
        tag = op[0]
        if tag == "s":
            id_map[op[1]] = tracer.start(op[2], op[3], op[4], op[5])
        elif tag == "e":
            tracer.end(id_map.get(op[1], 0), op[2])
        else:
            stream.emit(op[1])


def state_digest(fs, include_counts: bool) -> str:
    """Digest of the observable state: namespace, types, sizes, link
    targets — and, for the ext3 family, statfs free counts.

    File *contents* are deliberately excluded: ordered-mode data
    writes legitimately reach home locations mid-epoch, so contents
    are not atomic; acknowledged data is checked separately.
    """
    entries: List[tuple] = []
    pending = ["/"]
    # Torn recovery can leave a *cyclic* namespace (a stale index block
    # naming an ancestor); walk each directory inode once so the digest
    # terminates — the duplicate entry itself still lands in the digest.
    seen_dirs = {fs.lstat("/").ino}
    while pending:
        directory = pending.pop()
        names = sorted(
            n for n in fs.getdirentries(directory) if n not in (".", "..")
        )
        for name in names:
            path = directory.rstrip("/") + "/" + name
            st = fs.lstat(path)
            if st.is_dir:
                entries.append(("d", path))
                if st.ino not in seen_dirs:
                    seen_dirs.add(st.ino)
                    pending.append(path)
            elif st.is_symlink:
                entries.append(("l", path, fs.readlink(path)))
            else:
                entries.append(("f", path, st.size))
    entries.sort()
    if include_counts:
        vfs = fs.statfs()
        entries.append(("statfs", vfs.free_blocks, vfs.free_inodes))
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


# -- check --------------------------------------------------------------------


def _evidence(
    stream: EventLog, label: str, span_id: int
) -> Tuple[str, ...]:
    """Provenance for one violation: the state's replay span plus the
    first detection / recovery / policy event recovery emitted (when
    there is one) — both resolvable against the state's kept stream."""
    refs = [span_ref(label, span_id)]
    for index, event in enumerate(stream):
        if isinstance(event, (DetectionEvent, RecoveryEvent, PolicyActionEvent)):
            refs.append(event_ref(label, index, event))
            break
    return tuple(refs)


def check_state(rec: Recording, state: CrashState) -> StateObservation:
    """Replay one crash state and run every applicable oracle.

    Every state's recovery runs under a traced replay span, so each
    violation carries provenance into the stream that convicted it; the
    stream itself is kept on the observation for violating states (all
    states when the recording was made with ``trace=True``).
    """
    apply_state(rec, state)
    stream = rec.disk.events
    tracer = enable_tracing(stream)
    span_id = tracer.start(f"replay:{state.key}", "run", source=rec.profile.key)
    obs = _judge_state(rec, state, stream, span_id)
    tracer.end(span_id, "error" if obs.violations else "ok")
    if rec.trace or obs.violations:
        obs = dataclasses.replace(obs, trace=tuple(stream))
    return obs


def _judge_state(
    rec: Recording,
    state: CrashState,
    stream: EventLog,
    span_id: int,
) -> StateObservation:
    profile = rec.profile
    violations: List[Violation] = []

    fs = rec.adapter.make_fs(rec.disk)
    try:
        fs.mount()
    except KernelPanic as exc:
        return StateObservation(
            state.key, "panic", None,
            (Violation(state.key, "mountability", f"recovery panicked: {exc}",
                       _evidence(stream, state.key, span_id)),),
        )
    except StorageError as exc:
        return StateObservation(
            state.key, "unmountable", None,
            (Violation(
                state.key, "mountability",
                f"mount refused: {type(exc).__name__}: {exc}",
                _evidence(stream, state.key, span_id),
            ),),
        )

    # The traced walk (digest + protected-file reads) is a pure
    # function of the mounted state: post-recovery disk contents
    # outside the journal, the in-memory free counts, the fail-stop
    # flag, and any degraded-mode history (visible as detection /
    # policy events from recovery).  All of that is in the key, so a
    # hit replays the recorded segment — spans included — instead of
    # re-walking; see ``Recording.walk_memo``.
    region = getattr(fs, "journal_region", lambda: None)()
    sb = getattr(fs, "sb", None)
    # In-memory free counts come straight off the superblock object —
    # statfs() would work for any FS but is op-traced, and key
    # computation must not emit spans.  FSes without those fields
    # (reiserfs) just skip the memo and walk live.
    free_blocks = getattr(sb, "free_blocks", None)
    free_inodes = getattr(sb, "free_inodes", None)
    walk_key = None
    if (free_blocks is not None and free_inodes is not None
            and hasattr(rec.disk, "dirty_items")):
        walk_key = (
            _content_key(rec.disk, region),
            free_blocks, free_inodes, fs.read_only,
            sum(1 for e in stream
                if isinstance(e, (DetectionEvent, PolicyActionEvent))),
        )
    cached = rec.walk_memo.get(walk_key) if walk_key is not None else None
    if cached is not None:
        digest, exc_info, intact_flags, walk_ro = cached[:4]
        _replay_segment(stream, cached[4])
    else:
        pos = len(stream)
        stats = getattr(rec.disk, "stats", None)
        writes_before = stats.writes if stats is not None else None
        exc_info = None
        intact_flags: Tuple[bool, ...] = ()
        walk_ro = False
        try:
            digest = state_digest(fs, profile.ext3_family)
        except StorageError as exc:
            digest = None
            exc_info = (type(exc).__name__, str(exc))
        if digest is not None:
            flags = []
            for path, payload in rec.protected.items():
                try:
                    flags.append(
                        fs.exists(path) and fs.read_file(path) == payload
                    )
                except StorageError:
                    flags.append(False)
            intact_flags = tuple(flags)
            walk_ro = fs.read_only
        if walk_key is not None:
            if stats is not None and stats.writes == writes_before:
                rec.walk_memo[walk_key] = (
                    digest, exc_info, intact_flags, walk_ro,
                    _segment_template(stream[pos:]),
                )
            else:
                # The walk itself wrote (a repairing read policy);
                # replaying its emissions would skip those writes.
                rec.walk_memo[walk_key] = None

    if digest is None:
        return StateObservation(
            state.key, "recovered", None,
            (Violation(
                state.key, "consistency",
                f"namespace unreadable after recovery: "
                f"{exc_info[0]}: {exc_info[1]}",
                _evidence(stream, state.key, span_id),
            ),),
        )

    if digest not in rec.boundary_digests:
        violations.append(Violation(
            state.key, "atomicity",
            f"recovered state {digest} matches no journal-commit boundary",
            _evidence(stream, state.key, span_id),
        ))

    for (path, _payload), intact in zip(rec.protected.items(), intact_flags):
        if not intact:
            violations.append(Violation(
                state.key, "lost-data",
                f"acknowledged file {path} lost or changed",
                _evidence(stream, state.key, span_id),
            ))

    if walk_ro:
        # The FS detected damage and fail-stopped: consistent-but-
        # degraded is a legitimate recovery outcome, and the remaining
        # oracles need a writable remount cycle.
        return StateObservation(state.key, "degraded-ro", digest, tuple(violations))

    try:
        fs.unmount()
    except StorageError as exc:
        violations.append(Violation(
            state.key, "idempotence",
            f"unmount after recovery failed: {type(exc).__name__}: {exc}",
            _evidence(stream, state.key, span_id),
        ))
        return StateObservation(state.key, "recovered", digest, tuple(violations))

    rec.disk.events = EventLog()
    fs2 = rec.adapter.make_fs(rec.disk)
    try:
        fs2.mount()
        region = getattr(fs2, "journal_region", lambda: None)()
        # The walk reads non-journal blocks plus the mounted-in-memory
        # free counts; both are in the key, so equal keys imply equal
        # digests even when mount-time recovery diverged in the journal.
        vfs2 = fs2.statfs()
        key2 = (_content_key(rec.disk, region),
                vfs2.free_blocks, vfs2.free_inodes)
        digest2 = rec.digest_memo.get(key2)
        if digest2 is None:
            digest2 = rec.digest_memo[key2] = state_digest(
                fs2, profile.ext3_family
            )
        if digest2 != digest:
            violations.append(Violation(
                state.key, "idempotence",
                f"second mount changed state: {digest} -> {digest2}",
                _evidence(stream, state.key, span_id),
            ))
        if any(
            isinstance(e, RecoveryEvent) and e.mechanism == "journal-replay"
            for e in rec.disk.events
        ):
            violations.append(Violation(
                state.key, "idempotence",
                "second mount replayed the journal again",
                _evidence(stream, state.key, span_id),
            ))
        fs2.unmount()
    except StorageError as exc:
        violations.append(Violation(
            state.key, "idempotence",
            f"remount failed: {type(exc).__name__}: {exc}",
            _evidence(stream, state.key, span_id),
        ))

    if profile.ext3_family:
        key3 = _content_key(
            rec.disk, getattr(fs, "journal_region", lambda: None)()
        )
        fsck_result = rec.fsck_memo.get(key3)
        if fsck_result is None:
            report = fsck_ext3(rec.disk)
            fsck_result = rec.fsck_memo[key3] = (
                report.clean,
                "; ".join(report.messages[:3]) or "problems found",
            )
        if not fsck_result[0]:
            violations.append(Violation(
                state.key, "consistency", f"fsck unclean: {fsck_result[1]}",
                _evidence(stream, state.key, span_id),
            ))

    return StateObservation(state.key, "recovered", digest, tuple(violations))


# -- orchestration ------------------------------------------------------------


@dataclass
class CrashReport:
    """Everything one exploration run produced."""

    profile: str
    workload: str
    writes: int
    epochs: int
    observations: List[StateObservation]
    #: Whether every state's stream was kept (``explore(trace=True)``),
    #: as opposed to only the violating states'.
    traced: bool = False

    @property
    def states_explored(self) -> int:
        return len(self.observations)

    @property
    def violations(self) -> List[Violation]:
        return [v for obs in self.observations for v in obs.violations]

    def violations_by_oracle(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.oracle] = counts.get(v.oracle, 0) + 1
        return counts

    def violation_digest(self) -> str:
        """SHA-256 over the ordered violation tuples: the determinism
        witness recorded in ``BENCH_crash.json``."""
        h = hashlib.sha256()
        for v in self.violations:
            h.update(repr(v.as_tuple()).encode())
        return h.hexdigest()

    @property
    def observed(self) -> TraceCapture:
        """The kept per-state recovery streams, by state key in
        enumeration order (violating states; every state when
        ``traced``) — what the violations' provenance references
        resolve against, and what ``--trace`` exports."""
        return TraceCapture(
            f"crash:{self.profile}:{self.workload}",
            [(obs.key, obs.trace) for obs in self.observations if obs.trace],
        )

    def render(self) -> str:
        lines = [
            f"crash exploration: {self.profile} / {self.workload}",
            f"  {self.writes} recorded writes in {self.epochs} commit epochs",
            f"  {self.states_explored} crash states explored "
            f"({sum(1 for o in self.observations if o.key.startswith('torn'))} torn)",
        ]
        by_oracle = self.violations_by_oracle()
        if not by_oracle:
            lines.append("  all oracles passed in every state")
        else:
            total = len(self.violations)
            lines.append(f"  {total} oracle violations:")
            for oracle in sorted(by_oracle):
                lines.append(f"    {oracle}: {by_oracle[oracle]}")
            for v in self.violations:
                lines.append(f"    [{v.state_key}] {v.oracle}: {v.detail}")
        lines.append(f"  violation digest: {self.violation_digest()}")
        return "\n".join(lines)


def explore(
    profile_key: str,
    workload_key: str,
    max_torn_per_epoch: Optional[int] = DEFAULT_MAX_TORN,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
) -> CrashReport:
    """Record one workload and check every enumerated crash state.

    Output is deterministic: states are checked in enumeration order.
    With ``trace=True``, every state's recovery stream is kept
    (not just violating ones) for Chrome-trace export.
    """
    profile = crash_profile(profile_key)
    workload = CRASH_WORKLOADS[workload_key]
    rec = record(profile, workload, trace=trace)
    states = enumerate_states(rec, max_torn_per_epoch)
    if progress:
        progress(
            f"{profile.key}/{workload_key}: {len(rec.writes)} writes, "
            f"{len(rec.boundaries)} epochs, {len(states)} crash states"
        )

    report = CrashReport(
        profile=profile.key,
        workload=workload_key,
        writes=len(rec.writes),
        epochs=len(rec.boundaries),
        observations=[check_state(rec, state) for state in states],
        traced=trace,
    )
    if progress:
        progress(
            f"{profile.key}/{workload_key}: {len(report.violations)} violations "
            f"across {report.states_explored} states"
        )
    return report
