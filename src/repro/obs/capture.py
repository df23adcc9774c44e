"""What an observed run produces, and the one-shot trace capture.

:class:`TraceCapture` is what every driver that keeps event streams
for export hands back (``fingerprint --trace/--metrics``, ``crash
--trace``, ``trace``, ``report --trace-trial``): one merge, one
span-tree digest, one writer of the trace and metrics files.

:func:`trace_workloads` is the engine behind ``python -m repro trace FS
--workload W``.  It builds a fresh device stack for the requested file
system (via the crash-exploration profiles, so the recipe matches what
the crash and fingerprint harnesses run), enables span tracing on the
shared event log and drives one of the portable crash workloads end to
end, one workload after another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventLog, StorageEvent
from repro.obs.metrics import (
    MetricsRegistry,
    metrics_from_events,
    render_prometheus,
)
from repro.obs.trace import (
    enable_tracing,
    merge_streams,
    span_tree_digest,
    write_chrome_trace,
)


@dataclass
class TraceCapture:
    """What one observed run produced.

    ``streams`` are the labelled event streams the run kept, in
    submission order; ``parts`` are the products of its sub-runs (a
    fingerprint run has one per workload, each holding that workload's
    baseline and cell streams), spliced after the run's own streams
    under their ``root`` as label.  ``metrics`` is the merged
    ``repro-metrics/1`` snapshot, None when the run collected none;
    ``flight`` the raw ``repro-timeseries/1`` samples of a fleet trial.
    """

    root: str
    streams: List[Tuple[str, Sequence[StorageEvent]]] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None
    category: str = "run"
    parts: List["TraceCapture"] = field(default_factory=list)
    flight: Optional[Dict[str, Any]] = None

    def merged(self) -> List[StorageEvent]:
        """Every stream spliced under one deterministic root span."""
        return merge_streams(
            self.streams + [(part.root, part.merged()) for part in self.parts],
            root=self.root, root_category=self.category,
        )

    def span_digest(self) -> str:
        """Structural digest of the merged span tree (deterministic)."""
        return span_tree_digest(self.merged())

    def by_label(self) -> Dict[str, Sequence[StorageEvent]]:
        """Every kept stream by its label, parts included — what
        provenance references resolve against."""
        found = dict(self.streams)
        for part in self.parts:
            found.update(part.by_label())
        return found

    def write(self, trace_out: Optional[str], metrics_out: Optional[str]) -> None:
        """Write the merged Chrome trace-event JSON to *trace_out*
        (``.flight.json`` beside it when there are flight samples) and
        the metrics snapshot to *metrics_out* (Prometheus text, ``.prom``,
        beside it), saying where each went; None skips that file."""
        if trace_out:
            write_chrome_trace(self.merged(), trace_out)
            print(f"chrome trace written to {trace_out} (load in ui.perfetto.dev)")
            if self.flight is not None:
                flight_out = Path(trace_out).with_suffix(".flight.json")
                flight_out.write_text(
                    json.dumps(self.flight, indent=2, sort_keys=True) + "\n")
                print(f"flight-recorder samples written to {flight_out}")
        if metrics_out and self.metrics is not None:
            path = Path(metrics_out)
            path.write_text(json.dumps(self.metrics, indent=2, sort_keys=True) + "\n")
            prom = path.with_suffix(".prom")
            prom.write_text(render_prometheus(self.metrics))
            print(f"metrics written to {path} and {prom}")


def _capture_one(
    fs_key: str, workload_key: str
) -> Tuple[str, List[StorageEvent], Dict[str, Any]]:
    """Trace one workload on a fresh stack."""
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
    with enable_tracing(stack.events).span(
            workload.key, "workload", workload.name, adapter.name):
        fs.mount()
        workload.setup(fs)
        fs.sync()
        for step in workload.steps:
            step(fs)
        fs.sync()
        fs.unmount()

    events = list(stack.events)
    metrics_from_events(events, registry)
    stack.collect_metrics(registry)
    return workload.key, events, registry.snapshot()


def trace_workloads(
    fs_key: str,
    workload_keys: Optional[Sequence[str]] = None,
) -> TraceCapture:
    """Trace *workload_keys* (default: all crash workloads) on *fs_key*."""
    from repro.crash.engine import CRASH_PROFILES
    from repro.crash.workloads import CRASH_WORKLOADS

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
    results = [_capture_one(fs_key, key) for key in keys]
    return TraceCapture(
        f"trace:{fs_key}",
        [(key, events) for key, events, _ in results],
        MetricsRegistry.merge_snapshots(snap for _, _, snap in results),
    )
