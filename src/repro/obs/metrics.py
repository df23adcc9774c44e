"""Process-local metrics over the storage-event stream.

A :class:`MetricsRegistry` holds counters, gauges, and fixed-bucket
histograms keyed by ``(name, sorted labels)``.  The registry is the one
source of truth the BENCH JSON records and the Prometheus text export
both read, so the two never disagree (satellite: ``BlockCache.hit_rate``
and ``DeviceStack`` per-layer stats feed the same registry the exporter
renders).

Design constraints:

* **Deterministic** — metric state is pure accumulation over the event
  stream and device counters; snapshots of the same run are identical
  however many workers produced them.
* **Associative merge** — :meth:`MetricsRegistry.merge` sums counters
  and histogram buckets (gauges take the max, see the method docstring),
  so per-worker registries combine in any grouping to the same totals:
  ``(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)``.  Parallel fan-outs rely on this.
* **Schema-stable** — :meth:`MetricsRegistry.snapshot` emits the
  committed ``repro-metrics/1`` JSON shape
  (``schemas/metrics_snapshot.schema.json``); CI validates exporter
  output against that schema with :func:`validate_snapshot`, a
  dependency-free subset validator.

:func:`metrics_from_events` is the bridge from the typed event stream to
IRON-taxonomy metrics: detections and recoveries are bucketed by the
paper's D_*/R_* levels, faults armed vs. fired are counted separately,
and journal commits and spans get their own families.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.schema import schema_root, validate_json
from repro.obs.events import (
    DetectionEvent,
    FaultArmedEvent,
    IOEvent,
    JournalCommitEvent,
    PolicyActionEvent,
    RecoveryEvent,
    STOP_ACTION_TAGS,
    StorageEvent,
    WriteImageEvent,
)
from repro.obs.timeseries import SERIES_BINS, LabelsKey, TimeSeries, labels_key
from repro.obs.trace import SpanStartEvent

SNAPSHOT_SCHEMA = "repro-metrics/1"

#: Default histogram bounds for virtual-disk latencies (seconds).  The
#: simulator's per-request times are sub-millisecond to tens of ms, so
#: the buckets concentrate there; ``inf`` is always implied last.
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.5, 1.0)


class Counter:
    """A count that only ever increases."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey, value: float = 0):
        self.name = name
        self.labels = labels
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (cache hit rate, open span depth...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey, value: float = 0.0):
        self.name = name
        self.labels = labels
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; a final
    implicit ``+Inf`` bucket equals :attr:`count`.  Fixed bounds are
    what make merging associative: same-name histograms always share a
    bucket layout.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, labels: LabelsKey,
                 bounds: Tuple[float, ...] = LATENCY_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1


class MetricsRegistry:
    """Counters, gauges, and histograms for one process (or worker)."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        self._timeseries: Dict[Tuple[str, LabelsKey], TimeSeries] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], bounds)
        elif instrument.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return instrument

    def timeseries(
        self,
        name: str,
        t_max: float,
        bins: int = SERIES_BINS,
        **labels: str,
    ) -> TimeSeries:
        """A binned virtual-clock series (the fourth instrument type).

        Like histograms, a series' bin layout is fixed at registration;
        re-registering with a different layout is an error because it
        would break associative merging.
        """
        key = (name, labels_key(labels))
        instrument = self._timeseries.get(key)
        if instrument is None:
            instrument = self._timeseries[key] = TimeSeries(
                name, key[1], t_max, bins)
        elif (instrument.t_max, instrument.bins) != (float(t_max), bins):
            raise ValueError(
                f"timeseries {name!r} re-registered with different bin layout"
            )
        return instrument

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._timeseries))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serialize to the committed ``repro-metrics/1`` JSON shape.

        Series are sorted by (name, labels) so equal registries always
        serialize byte-identically — the determinism tests compare the
        JSON dumps directly.
        """

        def sort_key(instrument):
            return (instrument.name, instrument.labels)

        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in sorted(self._counters.values(), key=sort_key)
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in sorted(self._gauges.values(), key=sort_key)
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for h in sorted(self._histograms.values(), key=sort_key)
            ],
            "timeseries": [
                ts.to_entry()
                for ts in sorted(self._timeseries.values(), key=sort_key)
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema: {snapshot.get('schema')!r}"
            )
        registry = cls()
        for entry in snapshot.get("counters", ()):
            registry.counter(entry["name"], **entry["labels"]).value = entry["value"]
        for entry in snapshot.get("gauges", ()):
            registry.gauge(entry["name"], **entry["labels"]).value = entry["value"]
        for entry in snapshot.get("histograms", ()):
            hist = registry.histogram(
                entry["name"], tuple(entry["bounds"]), **entry["labels"]
            )
            hist.bucket_counts = list(entry["bucket_counts"])
            hist.count = entry["count"]
            hist.sum = entry["sum"]
        for entry in snapshot.get("timeseries", ()):
            series = TimeSeries.from_entry(entry)   # floats may be JSON ints
            registry._timeseries[(series.name, series.labels)] = series
        return registry

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry (in place; returns self).

        Counters and histogram buckets sum — the natural combination for
        accumulated totals, and trivially associative + commutative.
        Gauges take the **max**: a gauge is a point-in-time reading with
        no meaningful sum across workers, and max is the only
        associative-commutative choice that keeps "worst observed"
        semantics (deepest span nesting, fullest cache).  Rate-style
        gauges (hit rates) should instead be derived from the summed
        hit/miss counters after merging — :func:`derive_rates` does.
        """
        for key, counter in other._counters.items():
            mine = self.counter(counter.name, **dict(counter.labels))
            mine.value += counter.value
        for key, gauge in other._gauges.items():
            mine = self.gauge(gauge.name, **dict(gauge.labels))
            mine.value = max(mine.value, gauge.value)
        for key, hist in other._histograms.items():
            mine = self.histogram(hist.name, hist.bounds, **dict(hist.labels))
            mine.count += hist.count
            mine.sum += hist.sum
            for i, n in enumerate(hist.bucket_counts):
                mine.bucket_counts[i] += n
        for key, series in other._timeseries.items():
            mine = self.timeseries(series.name, series.t_max, series.bins,
                                   **dict(series.labels))
            mine.merge(series)
        return self

    @classmethod
    def merge_snapshots(cls, snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
        """Merge serialized snapshots; returns a merged snapshot."""
        merged = cls()
        for snap in snapshots:
            merged.merge(cls.from_snapshot(snap))
        derive_rates(merged)
        return merged.snapshot()


def derive_rates(registry: MetricsRegistry) -> None:
    """Recompute rate gauges from their underlying counters.

    Called after a merge so ``repro_cache_hit_rate`` reflects the summed
    hit/miss totals rather than a max over per-worker rates, and
    ``repro_fleet_loss_probability`` reflects the summed per-cell trial
    outcomes.  Every derivation guards its denominator: empty or merged
    snapshots with zero reads (or zero trials in a cell) simply derive
    nothing, so report generation never divides by zero.
    """
    hits = {dict(c.labels).get("layer", ""): c.value
            for c in registry._counters.values()
            if c.name == "repro_cache_hits_total"}
    misses = {dict(c.labels).get("layer", ""): c.value
              for c in registry._counters.values()
              if c.name == "repro_cache_misses_total"}
    for layer in sorted(set(hits) | set(misses)):
        total = hits.get(layer, 0) + misses.get(layer, 0)
        if total:
            registry.gauge("repro_cache_hit_rate", layer=layer).set(
                hits.get(layer, 0) / total
            )
    # Fleet loss probability: losses / trials per (geometry, policy)
    # cell, recomputed from the summed outcome counters.
    trials: Dict[Tuple[str, str], float] = {}
    losses: Dict[Tuple[str, str], float] = {}
    for c in registry._counters.values():
        if c.name != "repro_fleet_trials_total":
            continue
        labels = dict(c.labels)
        cell = (labels.get("geometry", ""), labels.get("policy", ""))
        trials[cell] = trials.get(cell, 0) + c.value
        if labels.get("outcome") in ("detected-loss", "silent-loss"):
            losses[cell] = losses.get(cell, 0) + c.value
    for cell in sorted(trials):
        total = trials[cell]
        if total:
            registry.gauge(
                "repro_fleet_loss_probability",
                geometry=cell[0], policy=cell[1],
            ).set(losses.get(cell, 0) / total)


# -- Prometheus text exposition ----------------------------------------------

_HELP = {
    "repro_io_total": "Block I/O requests observed at the device boundary",
    "repro_io_latency_seconds": "Virtual per-request service time at the raw disk",
    "repro_faults_armed_total": "Faults armed beneath the file system",
    "repro_faults_fired_total": "Armed faults that actually fired (error/corrupted I/O)",
    "repro_detections_total": "Failure detections bucketed by IRON level (D_*)",
    "repro_recoveries_total": "Recovery attempts bucketed by IRON level (R_*)",
    "repro_policy_actions_total": "Failure-policy actions taken by the file system",
    "repro_journal_commits_total": "Journal transaction commit barriers",
    "repro_array_member_reads_total": "Raw reads issued to one array member",
    "repro_array_member_writes_total": "Raw writes issued to one array member",
    "repro_array_member_busy_seconds_total": "Virtual busy time of one array member",
    "repro_array_degraded_reads_total": "Logical reads served by reconstruction",
    "repro_array_degraded_writes_total": "Logical writes landed with a member missing",
    "repro_array_read_repairs_total": "Reconstructed blocks written back to the erring member",
    "repro_array_rebuilt_blocks_total": "Member blocks repopulated by rebuild",
    "repro_array_scrub_repairs_total": "Member blocks repaired during scrub passes",
    "repro_array_suspect_blocks": "Member blocks currently known stale or unwritten",
    "repro_spans_total": "Trace spans opened, by category",
    "repro_cache_hits_total": "Buffer-cache read hits",
    "repro_cache_misses_total": "Buffer-cache read misses",
    "repro_cache_hit_rate": "Fraction of reads served from the buffer cache",
    "repro_device_reads_total": "Reads served by the raw device",
    "repro_device_writes_total": "Writes absorbed by the raw device",
    "repro_device_bytes_read_total": "Bytes read from the raw device",
    "repro_device_bytes_written_total": "Bytes written to the raw device",
    "repro_device_seeks_total": "Head seeks performed by the raw device",
    "repro_device_busy_seconds_total": "Virtual seconds the device was busy",
    "repro_recorded_writes_total": "Write images captured by the crash recorder",
    "repro_faults_currently_armed": "Faults currently armed in the injector",
    "repro_fleet_trials_total": "Monte Carlo trials simulated, by cell and outcome",
    "repro_fleet_device_hours_total": "Device-hours of fleet time simulated",
    "repro_fleet_failstops_total": "Whole-disk fail-stop arrivals injected",
    "repro_fleet_lse_total": "Latent-sector-error arrivals armed on members",
    "repro_fleet_corruptions_total": "Silent-corruption arrivals poked into members",
    "repro_fleet_rebuild_windows_total": "Replacement+rebuild vulnerability windows opened",
    "repro_fleet_scrub_units_total": "Scrub units scanned by the interval scheduler",
    "repro_fleet_scrub_repairs_total": "Member blocks repaired by fleet scrub passes",
    "repro_fleet_retry_recoveries_total": "Member reads recovered by policy retries (R_retry)",
    "repro_fleet_member_reads_total": "Raw member reads issued across the fleet",
    "repro_fleet_member_writes_total": "Raw member writes issued across the fleet",
    "repro_fleet_loss_probability": "Fraction of a cell's trials that lost data",
    "repro_fleet_ttdl_hours": "Time to data loss in fleet hours, per cell",
    "repro_fleet_degraded_members": "Members failed or awaiting rebuild, over the fleet clock",
    "repro_fleet_latent_blocks": "Sticky latent sector errors armed, over the fleet clock",
    "repro_fleet_corrupt_blocks": "Silently corrupted blocks not yet known-repaired, over the fleet clock",
    "repro_fleet_rebuild_progress": "Progress through the open rebuild window (0 = none open)",
    "repro_fleet_scrub_cursor": "Incremental scrub cursor position, as a fraction of a pass",
    "repro_fleet_foreground_reads": "Cumulative foreground logical reads, over the fleet clock",
    "repro_fleet_scrub_member_reads": "Cumulative scrub units scanned, over the fleet clock",
    "repro_fleet_incidents_total": "Classified loss/stop incidents, by cell and mode",
}

#: Bucket bounds (fleet hours) for time-to-data-loss histograms —
#: mission timescales, not the I/O-latency defaults.
TTDL_BUCKETS = (10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                5000.0, 10000.0, 25000.0, 50000.0, 100000.0)


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double-quote, and line-feed must be escaped inside the
    quoted value (in that order — backslash first, or it would re-escape
    the escapes)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt_labels(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs = sorted(pairs + [extra])
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a ``repro-metrics/1`` snapshot as Prometheus text format."""
    lines: List[str] = []
    seen_help = set()

    def header(name: str, mtype: str) -> None:
        if name in seen_help:
            return
        seen_help.add(name)
        if name in _HELP:
            lines.append(f"# HELP {name} {_HELP[name]}")
        lines.append(f"# TYPE {name} {mtype}")

    for kind, mtype in (("counters", "counter"), ("gauges", "gauge")):
        for entry in snapshot.get(kind, ()):
            header(entry["name"], mtype)
            lines.append(f"{entry['name']}{_fmt_labels(entry['labels'])} "
                         f"{_fmt_value(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        header(name, "histogram")
        labels = entry["labels"]
        # bucket_counts are already cumulative (observe() increments
        # every bucket whose bound covers the value).
        for bound, n in zip(entry["bounds"], entry["bucket_counts"]):
            lines.append(
                f"{name}_bucket{_fmt_labels(labels, ('le', _fmt_value(float(bound))))} {n}"
            )
        lines.append(
            f"{name}_bucket{_fmt_labels(labels, ('le', '+Inf'))} {entry['count']}"
        )
        lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(entry['sum'])}")
        lines.append(f"{name}_count{_fmt_labels(labels)} {entry['count']}")
    for entry in snapshot.get("timeseries", ()):
        name = entry["name"]
        header(name, "gauge")
        labels = entry["labels"]
        bins = int(entry["bins"])
        t_max = float(entry["t_max"])
        # One gauge sample per non-empty bin: the bin mean, stamped with
        # the bin midpoint on the *virtual* clock (hours rendered as the
        # exposition's millisecond timestamps — the simulator has no
        # wall clock, and the virtual axis is the one worth plotting).
        for i, count in enumerate(entry["counts"]):
            if not count:
                continue
            mean = entry["sums"][i] / count
            ts_ms = int(round((i + 0.5) * t_max / bins * 3_600_000))
            lines.append(
                f"{name}{_fmt_labels(labels)} {_fmt_value(mean)} {ts_ms}"
            )
    return "\n".join(lines) + "\n"


# -- event stream → IRON-taxonomy metrics -------------------------------------

#: Detection mechanism (event field) → IRON detection level (Table 1).
DETECTION_LEVELS = {
    "error-code": "D_errorcode",
    "sanity": "D_sanity",
    "redundancy": "D_redundancy",
}

#: Recovery mechanism (event field) → IRON recovery level (Table 2).
#: Journal replay rebuilds damaged structures, hence R_repair.
RECOVERY_LEVELS = {
    "retry": "R_retry",
    "redundancy": "R_redundancy",
    "remap": "R_remap",
    "journal-replay": "R_repair",
}


def metrics_from_events(
    events: Iterable[StorageEvent],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Accumulate one event stream into IRON-taxonomy metric families."""
    if registry is None:
        registry = MetricsRegistry()
    for event in events:
        if isinstance(event, IOEvent):
            registry.counter(
                "repro_io_total", op=event.op, outcome=event.outcome
            ).inc()
            if event.outcome in ("error", "corrupted"):
                registry.counter("repro_faults_fired_total", op=event.op).inc()
        elif isinstance(event, WriteImageEvent):
            registry.counter("repro_recorded_writes_total").inc()
        elif isinstance(event, FaultArmedEvent):
            registry.counter(
                "repro_faults_armed_total",
                op=event.op, fault_kind=event.fault_kind,
            ).inc()
        elif isinstance(event, DetectionEvent):
            level = DETECTION_LEVELS.get(event.mechanism, "D_zero")
            registry.counter(
                "repro_detections_total", level=level, source=event.source
            ).inc()
        elif isinstance(event, RecoveryEvent):
            level = RECOVERY_LEVELS.get(event.mechanism, "R_zero")
            registry.counter(
                "repro_recoveries_total", level=level, source=event.source
            ).inc()
        elif isinstance(event, PolicyActionEvent):
            registry.counter(
                "repro_policy_actions_total", action=event.tag
            ).inc()
            if event.tag in STOP_ACTION_TAGS:
                registry.counter(
                    "repro_recoveries_total", level="R_stop", source=event.source
                ).inc()
        elif isinstance(event, JournalCommitEvent):
            registry.counter(
                "repro_journal_commits_total", source=event.source
            ).inc()
        elif isinstance(event, SpanStartEvent):
            registry.counter(
                "repro_spans_total", category=event.category
            ).inc()
    return registry


def validate_snapshot(
    snapshot: Mapping[str, Any],
    schema_path: Optional[Path] = None,
) -> List[str]:
    """Validate a snapshot against the committed JSON schema.

    Returns a list of violation messages (empty = valid).  With no
    *schema_path*, uses ``schemas/metrics_snapshot.schema.json`` at the
    repository root.
    """
    return validate_json(
        snapshot, schema_path or schema_root() / "metrics_snapshot.schema.json")
