"""Monte Carlo campaigns: trials fanned across the persistent pool.

A campaign is the cross product ``spec.cells() × range(spec.trials)``
run through :func:`repro.fleet.sim.run_trial`.  Trials are pure
functions of ``(spec, cell, trial)`` with per-trial named seed streams,
and :func:`repro.common.pool.pool_map` yields them in submission order,
so the aggregate — per-cell loss probabilities, the typed
:class:`~repro.obs.events.FleetTrialEvent` stream, and the fold digest
over it — is byte-identical at any ``--jobs`` width.  The parent folds
each trial as it arrives and keeps none of them.

The digest folds, in enumeration order, each trial's own event-stream
digest *and* its outcome key: a single flipped recovery anywhere in any
trial's machinery changes the campaign digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.pool import pool_map
from repro.disk.disk import DiskStats
from repro.fleet.analytic import crosscheck_summary
from repro.fleet.sim import GAUGES, TrialOutcome, run_trial
from repro.fleet.spec import (
    CROSSCHECK_GEOMETRY,
    CROSSCHECK_POLICY,
    FleetSpec,
    GeometrySpec,
    PolicySpec,
)
from repro.obs.events import EventLog, FleetTrialEvent, StorageEvent, fold_digest
from repro.obs.metrics import TTDL_BUCKETS, MetricsRegistry
from repro.obs.postmortem import (
    Incident,
    build_incident,
    fold_incidents,
    mode_counts,
    stream_label,
)

OUTCOMES = ("survived", "detected-loss", "silent-loss", "stopped")


@dataclass
class CellResult:
    """Aggregate of one (geometry, policy) cell's trials."""

    geometry: str
    policy: str
    trials: int = 0
    outcomes: Dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in OUTCOMES})
    device_hours: float = 0.0
    ttdl_hours: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    io: DiskStats = field(default_factory=DiskStats)
    #: Loss-mode histogram from the cell's classified incidents.
    incident_modes: Dict[str, int] = field(default_factory=dict)

    def add(self, outcome: TrialOutcome) -> None:
        self.trials += 1
        self.outcomes[outcome.outcome] += 1
        self.device_hours += outcome.device_hours
        if outcome.ttdl_hours is not None:
            self.ttdl_hours.append(outcome.ttdl_hours)
        for name, value in outcome.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.io.merge(outcome.io)

    @property
    def losses(self) -> int:
        return self.outcomes["detected-loss"] + self.outcomes["silent-loss"]

    @property
    def loss_probability(self) -> float:
        return self.losses / self.trials if self.trials else 0.0

    @property
    def stop_probability(self) -> float:
        return self.outcomes["stopped"] / self.trials if self.trials else 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "trials": self.trials,
            "outcomes": dict(sorted(self.outcomes.items())),
            "losses": self.losses,
            "loss_probability": round(self.loss_probability, 6),
            "stop_probability": round(self.stop_probability, 6),
            "device_hours": round(self.device_hours, 3),
            "mean_ttdl_hours": (
                round(sum(self.ttdl_hours) / len(self.ttdl_hours), 3)
                if self.ttdl_hours else None),
            "incident_modes": dict(sorted(self.incident_modes.items())),
        }


@dataclass
class FleetReport:
    """Everything one campaign produced."""

    spec: FleetSpec
    jobs: int = 1
    cells: "Dict[Tuple[str, str], CellResult]" = field(default_factory=dict)
    events: EventLog = field(default_factory=EventLog)
    #: Fold over (trial event digest, outcome key) in enumeration
    #: order — THE determinism witness compared across --jobs widths.
    digest: str = ""
    crosscheck: Optional[Dict[str, Any]] = None
    #: One classified post-mortem per lost/stopped trial, in
    #: enumeration order.
    incidents: List[Incident] = field(default_factory=list)
    #: Fold over incident keys in enumeration order — byte-identical
    #: at any --jobs width, asserted alongside :attr:`digest`.
    incident_digest: str = ""
    #: Retained logical event streams by label (terminal trials only);
    #: every incident cause ref resolves against this mapping.
    streams: Dict[str, Tuple[StorageEvent, ...]] = field(default_factory=dict)
    #: Flight-recorder time series folded across all trials (a
    #: registry holding only timeseries instruments).
    series: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def trials(self) -> int:
        return sum(cell.trials for cell in self.cells.values())

    @property
    def device_hours(self) -> float:
        return sum(cell.device_hours for cell in self.cells.values())

    def cell(self, geometry: str, policy: str) -> CellResult:
        return self.cells[(geometry, policy)]

    def matrix(self) -> Dict[str, Dict[str, float]]:
        """geometry → policy → loss probability (the headline)."""
        out: Dict[str, Dict[str, float]] = {}
        for (geometry, policy), cell in self.cells.items():
            out.setdefault(geometry, {})[policy] = round(
                cell.loss_probability, 6)
        return out

    def metrics(self) -> MetricsRegistry:
        """The campaign as ``repro_fleet_*`` series (schema-valid,
        associatively mergeable like every other registry)."""
        registry = MetricsRegistry()
        counter_series = {
            "failstops": "repro_fleet_failstops_total",
            "lse": "repro_fleet_lse_total",
            "corruptions": "repro_fleet_corruptions_total",
            "rebuild_windows": "repro_fleet_rebuild_windows_total",
            "scrub_units": "repro_fleet_scrub_units_total",
            "scrub_repairs": "repro_fleet_scrub_repairs_total",
            "retry_recoveries": "repro_fleet_retry_recoveries_total",
        }
        for (geometry, policy), cell in self.cells.items():
            labels = {"geometry": geometry, "policy": policy}
            for outcome, count in sorted(cell.outcomes.items()):
                if count:
                    registry.counter("repro_fleet_trials_total",
                                     outcome=outcome, **labels).inc(count)
            registry.counter("repro_fleet_device_hours_total",
                             **labels).inc(cell.device_hours)
            for key, name in counter_series.items():
                value = cell.counters.get(key, 0)
                if value:
                    registry.counter(name, **labels).inc(value)
            registry.counter("repro_fleet_member_reads_total",
                             **labels).inc(cell.io.reads)
            registry.counter("repro_fleet_member_writes_total",
                             **labels).inc(cell.io.writes)
            registry.gauge("repro_fleet_loss_probability",
                           **labels).set(cell.loss_probability)
            histogram = registry.histogram(
                "repro_fleet_ttdl_hours", bounds=TTDL_BUCKETS, **labels)
            for ttdl in cell.ttdl_hours:
                histogram.observe(ttdl)
            for mode, count in sorted(cell.incident_modes.items()):
                registry.counter("repro_fleet_incidents_total",
                                 mode=mode, **labels).inc(count)
        registry.merge(self.series)
        return registry

    def render(self) -> str:
        """The loss-probability matrix as a fixed-width table."""
        geometries = list(dict.fromkeys(g for g, _p in self.cells))
        policies = list(dict.fromkeys(p for _g, p in self.cells))
        width = max(12, *(len(p) + 2 for p in policies))
        lines = [
            f"fleet: {self.trials} trials, "
            f"{self.device_hours:,.0f} device-hours, "
            f"mission {self.spec.mission_hours:,.0f}h, "
            f"acceleration {self.spec.rates.acceleration:g}x",
            "",
            "P(data loss) per geometry x policy:",
            "  " + "geometry".ljust(10) + "".join(
                p.rjust(width) for p in policies),
        ]
        for geometry in geometries:
            row = "  " + geometry.ljust(10)
            for policy in policies:
                cell = self.cells.get((geometry, policy))
                if cell is None:
                    row += "-".rjust(width)
                else:
                    text = f"{cell.loss_probability:.3f}"
                    if cell.outcomes["stopped"]:
                        text += f"({cell.stop_probability:.2f}s)"
                    row += text.rjust(width)
            lines.append(row)
        if any(cell.outcomes["stopped"] for cell in self.cells.values()):
            lines.append("  (Ns) = fraction of trials frozen by R_stop "
                         "before any loss")
        if self.crosscheck is not None:
            cc = self.crosscheck
            verdict = "OK" if cc["within_tolerance"] else "FAIL"
            lines += [
                "",
                "mirror2 analytic cross-check: "
                f"simulated {cc['simulated_loss_probability']:.4f} vs "
                f"closed-form {cc['analytic_loss_probability']:.4f} "
                f"(tolerance {cc['tolerance']:.4f}) [{verdict}]",
            ]
        lines.append("")
        lines.append(f"outcome digest: {self.digest}")
        lines.append(f"incident digest: {self.incident_digest}")
        return "\n".join(lines)

    def incident_summary(self) -> List[str]:
        """One line per cell with terminal trials: the dominant loss
        mode and its count (the ``repro fleet`` exit summary)."""
        lines = []
        for (geometry, policy), cell in self.cells.items():
            if not cell.incident_modes:
                continue
            top_mode, top_count = max(
                cell.incident_modes.items(), key=lambda kv: (kv[1], kv[0]))
            total = sum(cell.incident_modes.values())
            lines.append(
                f"{geometry}/{policy}: {total} incidents, "
                f"top {top_mode} x{top_count}")
        return lines

    def _cell_records(self) -> Dict[str, Dict[str, Any]]:
        return {f"{geometry}/{policy}": cell.to_record()
                for (geometry, policy), cell in self.cells.items()}

    def campaign_report(self) -> Dict[str, Any]:
        """The schema-validated campaign report body
        (``repro-campaign-report/1``): the matrix, every classified
        incident with provenance refs, the merged flight-recorder
        series, and the determinism digests."""
        report: Dict[str, Any] = {
            "schema": "repro-campaign-report/1",
            "seed": self.spec.seed,
            "jobs": self.jobs,
            "trials": self.trials,
            "trials_per_cell": self.spec.trials,
            "mission_hours": self.spec.mission_hours,
            "device_hours": round(self.device_hours, 3),
            "acceleration": self.spec.rates.acceleration,
            "matrix": self.matrix(),
            "cells": self._cell_records(),
            "incidents": [
                incident.to_record() for incident in self.incidents],
            "incident_digest": self.incident_digest,
            "outcome_digest": self.digest,
            "timeseries": self.series.snapshot()["timeseries"],
        }
        if self.crosscheck is not None:
            report["crosscheck"] = self.crosscheck
        return report

    def to_record(self) -> Dict[str, Any]:
        """The BENCH_fleet.json entry body."""
        record: Dict[str, Any] = {
            "trials_per_cell": self.spec.trials,
            "trials": self.trials,
            "cells": len(self.cells),
            "device_hours": round(self.device_hours, 3),
            "mission_hours": self.spec.mission_hours,
            "seed": self.spec.seed,
            "acceleration": self.spec.rates.acceleration,
            "matrix": self.matrix(),
            "incidents": len(self.incidents),
            "incident_modes": mode_counts(self.incidents),
            "cell_detail": self._cell_records(),
        }
        if self.crosscheck is not None:
            record["crosscheck"] = self.crosscheck
        return record


def _trial_worker(spec: FleetSpec, cell_index: int, trial: int) -> TrialOutcome:
    geometry, policy = spec.cells()[cell_index]
    return run_trial(spec, geometry, policy, trial)


def _crosscheck_repair_hours(spec: FleetSpec, geometry: GeometrySpec,
                             policy: PolicySpec) -> float:
    """The repair window the closed form integrates: replacement delay
    plus the rebuild of one full member (mirror members hold every
    logical block)."""
    return (policy.replace_delay_hours
            + policy.rebuild_hours(spec.num_blocks))


def run_fleet(spec: FleetSpec, jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None) -> FleetReport:
    """Run the campaign; byte-identical results at any *jobs* width."""
    cells = spec.cells()
    tasks = [(spec, cell_index, trial)
             for cell_index in range(len(cells))
             for trial in range(spec.trials)]
    report = FleetReport(spec=spec, jobs=jobs)
    members = {}
    for geometry, policy in cells:
        report.cells[(geometry.label, policy.name)] = CellResult(
            geometry=geometry.label, policy=policy.name)
        members[geometry.label] = geometry.members

    hasher = hashlib.sha256()
    done = 0
    for outcome in pool_map(_trial_worker, tasks, jobs):
        cell = report.cells[(outcome.geometry, outcome.policy)]
        cell.add(outcome)
        event = FleetTrialEvent(
            geometry=outcome.geometry,
            policy=outcome.policy,
            trial=outcome.trial,
            outcome=outcome.outcome,
            ttdl_hours=outcome.ttdl_hours,
            device_hours=outcome.device_hours,
        )
        report.events.emit(event)
        hasher.update(outcome.digest.encode("ascii"))
        fold_digest(hasher, f"{outcome.geometry}:{outcome.policy}", [event])
        # Float sums do not regroup exactly: the merged series is
        # --jobs-invariant because pool_map keeps submission order and
        # each trial folds in here, one at a time.
        outcome.series.fold_into([report.series.timeseries(
            name, spec.mission_hours, geometry=outcome.geometry,
            policy=outcome.policy) for name in GAUGES])
        if outcome.outcome != "survived":
            incident = build_incident(
                outcome, members[outcome.geometry])
            report.incidents.append(incident)
            cell.incident_modes[incident.mode] = \
                cell.incident_modes.get(incident.mode, 0) + 1
            if outcome.stream is not None:
                report.streams[stream_label(outcome)] = outcome.stream
        done += 1
        if progress is not None and done % max(1, spec.trials // 2) == 0:
            progress(f"fleet: {done}/{len(tasks)} trials "
                     f"({outcome.geometry}/{outcome.policy})")
    report.digest = hasher.hexdigest()
    report.incident_digest = fold_incidents(report.incidents)

    if spec.crosscheck:
        cell = report.cells[(CROSSCHECK_GEOMETRY.label,
                             CROSSCHECK_POLICY.name)]
        rates = spec.rates_for(CROSSCHECK_POLICY)
        report.crosscheck = crosscheck_summary(
            observed_losses=cell.losses,
            trials=cell.trials,
            failstop_per_hour=rates.failstop_per_hour,
            repair_hours=_crosscheck_repair_hours(
                spec, CROSSCHECK_GEOMETRY, CROSSCHECK_POLICY),
            mission_hours=spec.mission_hours,
        )
    return report


__all__ = ["CellResult", "FleetReport", "OUTCOMES", "run_fleet"]
