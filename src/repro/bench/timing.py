"""Wall-clock timing layer for the benchmark drivers.

The simulator's own observable is *virtual* disk time; this module
records the other axis — how long the harness itself takes to run — so
the repo's performance trajectory is machine-readable.  Records merge
into a single JSON file, ``BENCH_fingerprint.json`` at the repo root
(override with the ``REPRO_BENCH_JSON`` environment variable), keyed by
entry name so successive runs update in place.

Schema (``repro-bench-timing/1``)::

    {
      "schema": "repro-bench-timing/1",
      "generated_at": "2026-08-06T12:00:00Z",
      "entries": {
        "fingerprint_ext3": {
          "wall_s": 12.3,          # total wall-clock for the run
          "jobs": 4,               # process-pool width used
          "tests_run": 420,        # fault-injection tests executed
          "total_cells": 420,      # CellResults recorded
          "applicable_cells": 312, # matrix cells with an observation
          "workloads": {           # per-workload breakdown
            "a": {"wall_s": 0.61, "reads": 1200, "writes": 340,
                  "bytes_read": 1228800, "bytes_written": 348160,
                  "seeks": 95, "busy_time_s": 0.8,
                  "events": 5000,  # typed storage events observed
                  "event_digest": "sha256-hex"}  # determinism witness
          }
        },
        ...                        # non-fingerprint entries carry their
      }                            # own driver-specific fields
    }
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

SCHEMA = "repro-bench-timing/1"
#: Record kind -> (environment override, default file name).
BENCH_FILES = {
    "fingerprint": ("REPRO_BENCH_JSON", "BENCH_fingerprint.json"),
    "crash": ("REPRO_BENCH_CRASH_JSON", "BENCH_crash.json"),
    "array": ("REPRO_BENCH_ARRAY_JSON", "BENCH_array.json"),
    "fleet": ("REPRO_BENCH_FLEET_JSON", "BENCH_fleet.json"),
}

T = TypeVar("T")


def bench_json_path(kind: str, root: Optional[os.PathLike] = None) -> Path:
    """Where records of *kind* land: the kind's environment variable
    when set, else its default file name under *root* (default: cwd);
    see :data:`BENCH_FILES`."""
    env_var, filename = BENCH_FILES[kind]
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    return Path(root or Path.cwd()) / filename


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """Run *fn*, returning ``(result, wall_clock_seconds)``.

    When *fn* raises, the measurement is not lost: the elapsed time up
    to the failure is attached to the exception as ``timed_wall_s``, so
    drivers can record a failed entry (see :func:`failure_record`)
    before re-raising instead of dropping the run from the BENCH JSON.
    """
    started = time.perf_counter()
    try:
        value = fn()
    except BaseException as exc:
        exc.timed_wall_s = time.perf_counter() - started
        raise
    return value, time.perf_counter() - started


def failure_record(exc: BaseException, **context: Any) -> Dict[str, Any]:
    """Build the JSON record for a benched run that raised.

    ``wall_s`` is the elapsed time :func:`timed` attached to the
    exception (0.0 when the failure happened outside ``timed``), and
    ``status``/``error`` mark the entry so dashboards and the BENCH
    sanity checks can tell a crashed run from a slow one.  Extra
    keyword context (jobs, profile, workload...) is merged in.
    """
    record: Dict[str, Any] = {
        "status": "failed",
        "error": type(exc).__name__,
        "error_detail": str(exc)[:200],
        "wall_s": round(getattr(exc, "timed_wall_s", 0.0), 6),
    }
    record.update(context)
    return record


def fingerprint_record(fp, matrix, wall_s: float) -> Dict[str, Any]:
    """Build the JSON record for one Fingerprinter run.

    *fp* is the (already-run) :class:`~repro.fingerprint.Fingerprinter`;
    its per-workload wall times and raw-device traffic become the
    ``workloads`` breakdown.
    """
    workloads: Dict[str, Any] = {}
    for key, secs in fp.workload_wall.items():
        entry: Dict[str, Any] = {"wall_s": round(secs, 6)}
        io = fp.workload_io.get(key)
        if io is not None:
            entry.update(
                reads=io.reads,
                writes=io.writes,
                bytes_read=io.bytes_read,
                bytes_written=io.bytes_written,
                seeks=io.seeks,
                busy_time_s=round(io.busy_time_s, 6),
            )
        if key in getattr(fp, "workload_events", {}):
            entry["events"] = fp.workload_events[key]
        if getattr(fp, "workload_digest", {}).get(key):
            entry["event_digest"] = fp.workload_digest[key]
        if getattr(fp, "workload_span_digest", {}).get(key):
            entry["span_digest"] = fp.workload_span_digest[key]
        workloads[key] = entry
    record = {
        "wall_s": round(wall_s, 6),
        "jobs": fp.jobs,
        "tests_run": fp.tests_run,
        "total_cells": len(fp.cells),
        "applicable_cells": len(matrix.cells),
        "workloads": workloads,
    }
    # Observability extras: the structural span-tree digest (a second
    # jobs-width determinism witness) and the merged metrics snapshot.
    if getattr(fp, "trace", False):
        record["span_digest"] = fp.span_digest()
    if getattr(fp, "metrics", False):
        record["metrics"] = fp.merged_metrics()
    return record


def crash_record(report, wall_s: float) -> Dict[str, Any]:
    """Build the JSON record for one crash-exploration run.

    *report* is a :class:`~repro.crash.engine.CrashReport`; the
    violation digest is the determinism witness compared across
    ``--jobs`` widths.
    """
    record = {
        "wall_s": round(wall_s, 6),
        "jobs": report.jobs,
        "profile": report.profile,
        "workload": report.workload,
        "writes": report.writes,
        "epochs": report.epochs,
        "states_explored": report.states_explored,
        "violations": len(report.violations),
        "violations_by_oracle": report.violations_by_oracle(),
        "violation_digest": report.violation_digest(),
    }
    if getattr(report, "traced", False):
        record["span_digest"] = report.span_digest()
    return record


def array_record(geometry: str, members: int, wall_s: float,
                 throughput: Dict[str, Any],
                 stats: Optional[Any] = None,
                 **extra: Any) -> Dict[str, Any]:
    """Build the JSON record for one array-geometry benchmark.

    *throughput* carries the per-phase numbers (healthy read/write,
    degraded read, rebuild — blocks and virtual MB/s); *stats* is the
    array's logical :class:`~repro.disk.disk.DiskStats` after the run.
    Extra keyword context (event digests, scrub counts...) merges in.
    """
    record: Dict[str, Any] = {
        "geometry": geometry,
        "members": members,
        "wall_s": round(wall_s, 6),
        "throughput": throughput,
    }
    if stats is not None:
        record["io"] = {
            "reads": stats.reads,
            "writes": stats.writes,
            "bytes_read": stats.bytes_read,
            "bytes_written": stats.bytes_written,
            "busy_time_s": round(stats.busy_time_s, 6),
        }
    record.update(extra)
    return record


def fleet_record(report, wall_s: float, **extra: Any) -> Dict[str, Any]:
    """Build the JSON record for one fleet campaign.

    *report* is a :class:`repro.fleet.campaign.FleetReport`; the record
    carries the loss matrix, the per-cell detail, the analytic
    cross-check, and the campaign's outcome digest.  Extra keyword
    context (``event_digest_jobs1``...) merges in so ``bench --compare``
    can hard-fail on any intra-entry digest disagreement.
    """
    record = report.to_record()
    record["wall_s"] = round(wall_s, 6)
    record["jobs"] = report.jobs
    record["digest"] = report.digest
    record.update(extra)
    return record


def table6_record(run, wall_s: float) -> Dict[str, Any]:
    """Build the JSON record for a Table-6 variant sweep."""
    benches: Dict[str, Any] = {}
    for bench, rows in run.results.items():
        benches[bench] = {
            "variants": [
                {"label": r.label, "seconds": round(r.seconds, 6),
                 "reads": r.reads, "writes": r.writes}
                for r in rows
            ],
            "normalized": [round(x, 4) for x in run.normalized(bench)],
        }
    return {"wall_s": round(wall_s, 6), "benches": benches}


def record_entry(
    name: str,
    record: Dict[str, Any],
    path: Optional[os.PathLike] = None,
) -> Path:
    """Merge one named record into the timing JSON (atomic rewrite).

    A missing or unreadable file starts fresh rather than failing — the
    timing layer must never take a benchmark down with it.
    """
    target = Path(path) if path is not None else bench_json_path("fingerprint")
    data: Dict[str, Any] = {"schema": SCHEMA, "entries": {}}
    try:
        existing = json.loads(target.read_text())
        if isinstance(existing, dict) and isinstance(existing.get("entries"), dict):
            data["entries"] = existing["entries"]
    except (OSError, ValueError):
        pass
    data["entries"][name] = record
    data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(target)
    return target
