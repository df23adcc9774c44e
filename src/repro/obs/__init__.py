"""The typed storage-event pipeline: one schema for every observable.

Every layer of the storage stack — the fault injector at the device
boundary, the VFS buffer layer, the journal framing, and each file
system's policy code — reports through :class:`StorageEvent` records
appended to a shared :class:`EventLog`.  ``SysLog`` and ``IOTrace``
are rendering views over this stream; policy inference matches the
structured events directly.

:mod:`repro.obs.trace` layers hierarchical spans over the same stream
(run → workload → VFS op → journal transaction → block I/O) and exports
Chrome trace-event JSON for Perfetto; :mod:`repro.obs.metrics` folds
the stream and the device stack's counters into a mergeable metrics
registry with Prometheus-text and JSON-snapshot exporters.

The fleet flight recorder builds on all three:
:mod:`repro.obs.timeseries` records gauges over the *virtual* fleet
clock (ring-bounded raw tracks, associatively-mergeable binned
series), and :mod:`repro.obs.postmortem` walks recorded event streams
to classify every lost trial into a typed :class:`Incident` with
``resolve_ref``-able provenance.
"""

from repro.obs.events import (
    DETECTION_MECHANISMS,
    POLICY_ACTION_TAGS,
    RECOVERY_MECHANISMS,
    DetectionEvent,
    EventLog,
    FaultArmedEvent,
    FleetClockEvent,
    IOEvent,
    JournalCommitEvent,
    LogEvent,
    PolicyActionEvent,
    RecoveryEvent,
    Severity,
    StorageEvent,
    WriteImageEvent,
    classify_log,
    fold_digest,
)
from repro.common.schema import validate_json
from repro.obs.capture import TraceCapture, trace_workloads
from repro.obs.metrics import (
    MetricsRegistry,
    metrics_from_events,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.postmortem import (
    INCIDENT_MODES,
    Incident,
    IncidentCause,
    build_incident,
    classify,
    fold_incidents,
    mode_counts,
)
from repro.obs.timeseries import (
    FlightRecorder,
    TimeSeries,
    Track,
)
from repro.obs.trace import (
    SelfTimeProfiler,
    SpanEndEvent,
    SpanStartEvent,
    Tracer,
    chrome_trace,
    enable_tracing,
    event_ref,
    merge_profiles,
    merge_streams,
    render_profile,
    resolve_ref,
    span_ref,
    span_tree,
    span_tree_digest,
    tracer_for,
    write_chrome_trace,
)

__all__ = [
    "DETECTION_MECHANISMS",
    "POLICY_ACTION_TAGS",
    "RECOVERY_MECHANISMS",
    "DetectionEvent",
    "EventLog",
    "FaultArmedEvent",
    "FleetClockEvent",
    "IOEvent",
    "JournalCommitEvent",
    "LogEvent",
    "PolicyActionEvent",
    "RecoveryEvent",
    "Severity",
    "StorageEvent",
    "WriteImageEvent",
    "classify_log",
    "fold_digest",
    "TraceCapture",
    "trace_workloads",
    "MetricsRegistry",
    "metrics_from_events",
    "render_prometheus",
    "validate_json",
    "validate_snapshot",
    "INCIDENT_MODES",
    "Incident",
    "IncidentCause",
    "build_incident",
    "classify",
    "fold_incidents",
    "mode_counts",
    "FlightRecorder",
    "TimeSeries",
    "Track",
    "SelfTimeProfiler",
    "SpanEndEvent",
    "SpanStartEvent",
    "Tracer",
    "chrome_trace",
    "enable_tracing",
    "event_ref",
    "merge_profiles",
    "merge_streams",
    "render_profile",
    "resolve_ref",
    "span_ref",
    "span_tree",
    "span_tree_digest",
    "tracer_for",
    "write_chrome_trace",
]
