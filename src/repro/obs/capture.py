"""One-shot trace capture: run a workload with tracing and metrics on.

This is the engine behind ``python -m repro trace FS --workload W``.
It builds a fresh device stack for the requested file system (via the
crash-exploration profiles, so the recipe matches what the crash and
fingerprint harnesses run), enables span tracing on the shared event
log, drives one of the portable crash workloads end to end, and hands
back the labeled event stream plus a metrics snapshot.

Multiple workloads fan out over :func:`repro.common.pool.pool_map`
with the usual submission-order merge, so the merged trace — and its
structural :func:`~repro.obs.trace.span_tree_digest` — is byte-identical
at any ``--jobs`` width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventLog, StorageEvent
from repro.obs.metrics import MetricsRegistry, metrics_from_events
from repro.obs.trace import enable_tracing, merge_streams, span_tree_digest


@dataclass
class TraceCapture:
    """Labeled per-workload streams plus the merged metrics snapshot."""

    fs: str
    streams: List[Tuple[str, List[StorageEvent]]]
    metrics: Dict[str, Any]

    def merged(self) -> List[StorageEvent]:
        """All workload streams spliced under one deterministic root."""
        return merge_streams(self.streams, root=f"trace:{self.fs}")

    def span_digest(self) -> str:
        """Structural digest of the merged span tree (jobs-invariant)."""
        return span_tree_digest(self.merged())


def _capture_one(
    fs_key: str, workload_key: str
) -> Tuple[str, List[StorageEvent], Dict[str, Any]]:
    """Pool entry point: trace one workload on a fresh stack."""
    from repro.crash.engine import CRASH_PROFILES
    from repro.crash.workloads import CRASH_WORKLOADS
    from repro.disk.stack import DeviceStack
    from repro.fingerprint.adapters import ADAPTERS

    profile = CRASH_PROFILES[fs_key]
    workload = CRASH_WORKLOADS[workload_key]
    adapter = ADAPTERS[profile.registry_key](**profile.registry_kwargs)
    disk = adapter.build_device()
    adapter.mkfs(disk)
    # inject=True adds the fault-injection layer even though no faults
    # are armed: it is what records device-boundary IOEvents, which the
    # Chrome trace renders on the device track.
    stack = DeviceStack(disk, inject=True, events=EventLog())
    fs = adapter.make_fs(stack)

    registry = MetricsRegistry()
    stack.observe_latencies(registry)
    tracer = enable_tracing(stack.events)
    span = tracer.start(workload.key, "workload",
                        detail=workload.name, source=adapter.name)
    try:
        fs.mount()
        workload.setup(fs)
        fs.sync()
        for step in workload.steps:
            step(fs)
        fs.sync()
        fs.unmount()
    except BaseException:
        tracer.end(span, "error")
        raise
    tracer.end(span)

    events = list(stack.events)
    metrics_from_events(events, registry)
    stack.collect_metrics(registry)
    return workload.key, events, registry.snapshot()


def trace_workloads(
    fs_key: str,
    workload_keys: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> TraceCapture:
    """Trace *workload_keys* (default: all crash workloads) on *fs_key*."""
    from repro.crash.engine import CRASH_PROFILES
    from repro.crash.workloads import CRASH_WORKLOADS
    from repro.common.pool import pool_map

    if fs_key not in CRASH_PROFILES:
        raise KeyError(
            f"unknown file system {fs_key!r}; choose from "
            f"{sorted(CRASH_PROFILES)}"
        )
    keys = list(workload_keys) if workload_keys else sorted(CRASH_WORKLOADS)
    for key in keys:
        if key not in CRASH_WORKLOADS:
            raise KeyError(
                f"unknown workload {key!r}; choose from "
                f"{sorted(CRASH_WORKLOADS)}"
            )
    results = pool_map(_capture_one, [(fs_key, key) for key in keys], jobs)
    return TraceCapture(
        fs=fs_key,
        streams=[(key, events) for key, events, _ in results],
        metrics=MetricsRegistry.merge_snapshots(
            snap for _, _, snap in results
        ),
    )
