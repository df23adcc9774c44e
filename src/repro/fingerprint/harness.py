"""The failure-policy fingerprinting harness (§4).

Three steps, mechanized:

1. **Apply workloads** (Table 3) that exercise every interesting code
   path, from singlets to recovery and journal writes.
2. **Type-aware fault injection**: for each block type the workload
   touches, arm a read-failure, write-failure, or corruption fault on
   the *next access of that type* beneath the file system.
3. **Infer failure policy** by diffing all observable outputs of the
   faulty run against a fault-free baseline.

The result is a :class:`~repro.taxonomy.policy.PolicyMatrix` — Figure 2
(or Figure 3) as data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import FSError, KernelPanic
from repro.disk.disk import BlockDevice, DiskStats, SimulatedDisk
from repro.disk.faults import CorruptionMode, Fault, FaultKind, FaultOp
from repro.disk.injector import TypeOracle
from repro.disk.stack import DeviceStack
from repro.fingerprint.inference import RunObservation, infer_policy
from repro.fingerprint.workloads import WORKLOADS, OpResult, Recorder, Workload
from repro.obs.capture import TraceCapture
from repro.obs.events import fold_digest
from repro.obs.metrics import MetricsRegistry, metrics_from_events
from repro.obs.trace import enable_tracing
from repro.taxonomy.policy import FAULT_CLASSES, PolicyMatrix
from repro.vfs.api import FileSystem

FieldCorruptor = Callable[[bytes, str], bytes]


@dataclass
class FSAdapter:
    """Everything the harness needs to fingerprint one file system."""

    name: str
    #: Figure rows, in display order (Table 4 names).
    figure_block_types: List[str]
    build_device: Callable[[], SimulatedDisk]
    mkfs: Callable[[BlockDevice], None]
    make_fs: Callable[[BlockDevice], FileSystem]
    #: FS-aware corruptor producing plausible-but-wrong blocks
    #: (misdirected-write style); None = random noise only.
    field_corruptor: Optional[FieldCorruptor] = None
    #: Block types holding redundant copies; reads of these during
    #: recovery infer R_redundancy.
    redundancy_types: List[str] = field(default_factory=list)
    #: Workload keys to run (NTFS uses a subset, as in the paper).
    workload_keys: str = "abcdefghijklmnopqrst"
    #: Golden (snapshot, frozen-oracle) pairs keyed by the workload's
    #: ``(setup, crash_ops)`` — the only inputs the pristine image
    #: depends on.  Every standard workload shares one setup, so one
    #: slab image (and the type-oracle cache hanging off its ``meta``)
    #: serves the whole matrix instead of being rebuilt per workload.
    golden_cache: Dict[Any, Any] = field(default_factory=dict, repr=False)

    def build_stack(self) -> DeviceStack:
        """Compose the fingerprinting device stack: disk + injector,
        deliberately cache-less so every FS request reaches the fault
        layer and shows up in the typed event stream."""
        return DeviceStack(self.build_device(), inject=True)


@dataclass
class CellResult:
    """One fingerprinting test: the paper's unit of experimentation."""

    workload: str
    block_type: str
    fault_class: str
    fired: bool


class Fingerprinter:
    """Runs the full fault matrix for one file system."""

    def __init__(
        self,
        adapter: FSAdapter,
        workloads: Optional[Sequence[Workload]] = None,
        corruption_mode: CorruptionMode = CorruptionMode.NOISE,
        progress: Optional[Callable[[str], None]] = None,
        trace: bool = False,
        metrics: bool = False,
    ):
        self.adapter = adapter
        if workloads is None:
            workloads = [w for w in WORKLOADS if w.key in adapter.workload_keys]
        self.workloads = list(workloads)
        self.corruption_mode = corruption_mode
        self.progress = progress or (lambda msg: None)
        #: Emit spans into every run's event stream and keep the labeled
        #: streams for export (Chrome trace) and digesting.
        self.trace = trace
        #: Accumulate per-workload metrics registries (merged after run).
        self.metrics = metrics
        self.tests_run = 0
        self.cells: List[CellResult] = []
        #: Per-workload raw device traffic, populated by run() for the
        #: result records.
        self.workload_io: Dict[str, DiskStats] = {}
        #: Per-workload typed-event totals and determinism digests.
        self.workload_events: Dict[str, int] = {}
        self.workload_digest: Dict[str, str] = {}
        #: What the run kept for export: one part per workload, in
        #: workload order.
        self.observed = TraceCapture(f"fingerprint:{adapter.name}")
        #: The workload in progress (set by ``_run_workload``): its
        #: device traffic, its metrics registry (``metrics=True`` only)
        #: and its part of ``observed``.
        self._io_acc: Optional[DiskStats] = None
        self._metrics_acc: Optional[MetricsRegistry] = None
        self._part: Optional[TraceCapture] = None

    # -- public entry point --------------------------------------------------

    def run(self) -> PolicyMatrix:
        matrix = PolicyMatrix(
            fs_name=self.adapter.name,
            block_types=list(self.adapter.figure_block_types),
            workloads=[w.name for w in self.workloads],
        )
        for workload in self.workloads:
            self.progress(
                f"{self.adapter.name}: workload {workload.key} ({workload.name})"
            )
            self._run_workload(matrix, workload)
        if self.metrics:
            self.observed.metrics = MetricsRegistry.merge_snapshots(
                part.metrics for part in self.observed.parts)
        return matrix

    # -- one workload ------------------------------------------------------------

    def _run_workload(self, matrix: PolicyMatrix, workload: Workload) -> None:
        """Fingerprint every (fault class × block type) cell of one
        workload into *matrix*."""
        self._io_acc = DiskStats()
        self._metrics_acc = MetricsRegistry() if self.metrics else None
        self._part = TraceCapture(workload.key, category="workload")
        event_count = 0
        hasher = hashlib.sha256()
        snapshot, oracle = self._golden(workload)
        baseline = self._observe(
            workload, snapshot, oracle, fault=None,
            label=f"{workload.key}:baseline",
        )
        fold_digest(hasher, f"{workload.key}:baseline", baseline.typed_events)
        event_count += len(baseline.typed_events)
        read_types = self._accessed_types(baseline, "read")
        write_types = self._accessed_types(baseline, "write")
        applicability = {
            "read-failure": read_types,
            "write-failure": write_types,
            "corruption": read_types,
        }
        for fault_class in FAULT_CLASSES:
            for btype in self.adapter.figure_block_types:
                if btype not in applicability[fault_class]:
                    matrix.mark_not_applicable(fault_class, btype, workload.name)
                    continue
                fault = self._build_fault(fault_class, btype)
                obs = self._observe(
                    workload, snapshot, oracle, fault,
                    label=f"{workload.key}:{fault_class}:{btype}",
                )
                fold_digest(
                    hasher, f"{workload.key}:{fault_class}:{btype}", obs.typed_events
                )
                event_count += len(obs.typed_events)
                self.tests_run += 1
                fired = obs.fault_fired > 0
                self.cells.append(
                    CellResult(workload.name, btype, fault_class, fired))
                if not fired:
                    matrix.mark_not_applicable(fault_class, btype, workload.name)
                    continue
                observation = infer_policy(
                    baseline, obs, fault, self.adapter.redundancy_types
                )
                matrix.put(fault_class, btype, workload.name, observation)
        if self._metrics_acc is not None:
            self._part.metrics = self._metrics_acc.snapshot()
        self.workload_io[workload.key] = self._io_acc
        self.workload_events[workload.key] = event_count
        self.workload_digest[workload.key] = hasher.hexdigest()
        self.observed.parts.append(self._part)

    # -- image preparation ------------------------------------------------------

    def _golden(self, workload: Workload) -> Tuple[Any, TypeOracle]:
        """Build the pristine (or deliberately crashed) image for one
        workload, plus a frozen block-type oracle usable before mount.
        The pair is a pure function of the workload's setup and crash
        schedule, so it is cached on the adapter and shared by every
        workload with the same ``(setup, crash_ops)``."""
        cache_key = (workload.setup, workload.crash_ops)
        cached = self.adapter.golden_cache.get(cache_key)
        if cached is not None:
            return cached
        disk = self.adapter.build_device()
        self.adapter.mkfs(disk)
        fs = self.adapter.make_fs(disk)
        fs.mount()
        workload.setup(fs)
        if workload.crash_ops is not None:
            fs.crash_after(workload.crash_ops)
        else:
            fs.unmount()
        snapshot = disk.snapshot()
        # Frozen oracle: harvested from a shadow mount on the same disk
        # (post-snapshot mutations are discarded when runs restore).
        # Probed whole, here: asked lazily instead, the shadow would
        # keep the build disk's private copy of every block alive.
        shadow = self.adapter.make_fs(disk)
        shadow.mount()
        oracle = {
            b: t for b in range(disk.num_blocks)
            if (t := shadow.block_type(b)) is not None
        }.get
        self.adapter.golden_cache[cache_key] = (snapshot, oracle)
        return snapshot, oracle

    # -- one observed run ------------------------------------------------------------

    def _observe(
        self,
        workload: Workload,
        snapshot: Any,
        golden_type: TypeOracle,
        fault: Optional[Fault],
        label: str,
    ) -> RunObservation:
        stack = self.adapter.build_stack()
        stack.restore(snapshot)
        if self._metrics_acc is not None:
            stack.observe_latencies(self._metrics_acc)
        fs = self.adapter.make_fs(stack)
        fs_type = fs.block_type
        injector = stack.injector
        recorder = Recorder()
        panic: Optional[str] = None

        if not workload.body_mounts:
            try:
                fs.mount()
            except FSError as exc:
                recorder.results.append(OpResult("pre-mount", exc.errno.name))
            # The body is the traced part; mount traffic is excluded for
            # workloads whose subject is not the mount path itself, so
            # it goes untyped: no fault is armed yet and its events are
            # dropped here unread.
            stack.events.clear()
        injector.set_type_oracle(lambda b: fs_type(b) or golden_type(b))

        # Enable tracing only now: the run span must open after the
        # mount-traffic clear above, or its start would be erased.
        tracer = enable_tracing(stack.events) if self.trace else None
        run_span = tracer.start(label, "run",
                                source=self.adapter.name) if tracer else 0

        if fault is not None:
            injector.arm(fault)

        try:
            workload.body(fs, recorder)
        except KernelPanic as exc:
            panic = str(exc)
        except FSError as exc:
            recorder.results.append(OpResult("unexpected-error", exc.errno.name))

        if tracer is not None:
            tracer.end(run_span, "error" if panic is not None else "ok")

        free_blocks: Optional[int] = None
        final_ro = False
        if fs.mounted:
            final_ro = fs.read_only
            try:
                free_blocks = fs.statfs().free_blocks
            except FSError:
                pass

        fault_block: Optional[int] = None
        fired = 0
        if fault is not None:
            fired = fault._fired
            fault_block = fault._locked_block if fault.block is None else fault.block

        self._io_acc.merge(stack.stats)
        events = list(stack.events)
        if self._metrics_acc is not None:
            metrics_from_events(events, self._metrics_acc)
            stack.collect_metrics(self._metrics_acc)
        if tracer is not None:
            self._part.streams.append((label, events))

        return RunObservation(
            results=recorder.results,
            events=events,
            panic=panic,
            fault_fired=fired,
            fault_block=fault_block,
            final_read_only=final_ro,
            free_blocks=free_blocks,
            label=label,
        )

    # -- helpers --------------------------------------------------------------------------

    def _accessed_types(self, baseline: RunObservation, op: str) -> set:
        return {
            e.block_type for e in baseline.io_events
            if e.op == op and e.block_type is not None and e.outcome == "ok"
        }

    def _build_fault(self, fault_class: str, block_type: str) -> Fault:
        if fault_class == "read-failure":
            return Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type=block_type)
        if fault_class == "write-failure":
            return Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block_type=block_type)
        if fault_class == "corruption":
            corruptor = self.adapter.field_corruptor
            mode = (
                CorruptionMode.FIELD
                if corruptor is not None and self.corruption_mode is CorruptionMode.FIELD
                else self.corruption_mode
            )
            return Fault(
                op=FaultOp.READ,
                kind=FaultKind.CORRUPT,
                block_type=block_type,
                corruption=mode,
                corruptor=corruptor,
            )
        raise ValueError(f"unknown fault class {fault_class!r}")
