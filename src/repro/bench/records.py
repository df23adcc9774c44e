"""Result records for the CLI and the benchmark drivers.

Everything this repo reports — policy matrices, crash verdicts, loss
tables, virtual disk time — is deterministic, so the ``BENCH_*.json``
files at the repo root hold *results and digests only*: re-running the
command that wrote an entry rewrites the file byte for byte, and
``python -m repro bench --compare OLD NEW`` names every value that
moved.  Host time is not recorded here; it lives in the perf ledger
(``python3 perf/run.py``).  Records merge by entry name into one file
per kind (see :data:`BENCH_FILES`).

Schema (``repro-bench-results/1``)::

    {
      "schema": "repro-bench-results/1",
      "entries": {
        "fingerprint_ext3": {
          "tests_run": 420,        # fault-injection tests executed
          "total_cells": 420,      # CellResults recorded
          "applicable_cells": 312, # matrix cells with an observation
          "workloads": {           # per-workload breakdown
            "a": {"reads": 1200, "writes": 340,
                  "bytes_read": 1228800, "bytes_written": 348160,
                  "seeks": 95, "busy_time_s": 0.8,   # virtual seconds
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
from pathlib import Path
from typing import Any, Dict, Optional

from repro.bench.paperdata import TABLE6_PAPER, VARIANT_ORDER, variant_label

SCHEMA = "repro-bench-results/1"
#: Record kind -> (environment override, default file name).
BENCH_FILES = {
    "fingerprint": ("REPRO_BENCH_JSON", "BENCH_fingerprint.json"),
    "crash": ("REPRO_BENCH_CRASH_JSON", "BENCH_crash.json"),
    "array": ("REPRO_BENCH_ARRAY_JSON", "BENCH_array.json"),
    "fleet": ("REPRO_BENCH_FLEET_JSON", "BENCH_fleet.json"),
}


def bench_json_path(kind: str, root: Optional[os.PathLike] = None) -> Path:
    """Where records of *kind* land: the kind's environment variable
    when set, else its default file name under *root* (default: cwd);
    see :data:`BENCH_FILES`."""
    env_var, filename = BENCH_FILES[kind]
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    return Path(root or Path.cwd()) / filename


def failure_record(exc: BaseException, **context: Any) -> Dict[str, Any]:
    """Build the JSON record for a run that raised.

    ``status``/``error`` mark the entry, so a crashed run replaces its
    result row instead of leaving the previous one standing.  Extra
    keyword context (fs, profile, workload...) is merged in.
    """
    record: Dict[str, Any] = {
        "status": "failed",
        "error": type(exc).__name__,
        "error_detail": str(exc)[:200],
    }
    record.update(context)
    return record


def fingerprint_record(fp, matrix) -> Dict[str, Any]:
    """Build the JSON record for one Fingerprinter run.

    *fp* is the (already-run) :class:`~repro.fingerprint.Fingerprinter`;
    its per-workload raw-device traffic and event digests become the
    ``workloads`` breakdown.
    """
    workloads: Dict[str, Any] = {}
    for key, io in fp.workload_io.items():
        workloads[key] = {
            "reads": io.reads,
            "writes": io.writes,
            "bytes_read": io.bytes_read,
            "bytes_written": io.bytes_written,
            "seeks": io.seeks,
            "busy_time_s": round(io.busy_time_s, 6),
            "events": fp.workload_events[key],
            "event_digest": fp.workload_digest[key],
        }
    record = {
        "tests_run": fp.tests_run,
        "total_cells": len(fp.cells),
        "applicable_cells": len(matrix.cells),
        "workloads": workloads,
    }
    # Observability extras: the structural span-tree digest (a second
    # determinism witness) and the merged metrics snapshot.
    if fp.trace:
        record["span_digest"] = fp.observed.span_digest()
        for part in fp.observed.parts:
            workloads[part.root]["span_digest"] = part.span_digest()
    if fp.metrics:
        record["metrics"] = fp.observed.metrics
    return record


def crash_record(report) -> Dict[str, Any]:
    """Build the JSON record for one crash-exploration run.

    *report* is a :class:`~repro.crash.engine.CrashReport`; the
    violation digest is its determinism witness.
    """
    record = {
        "profile": report.profile,
        "workload": report.workload,
        "writes": report.writes,
        "epochs": report.epochs,
        "states_explored": report.states_explored,
        "violations": len(report.violations),
        "violations_by_oracle": report.violations_by_oracle(),
        "violation_digest": report.violation_digest(),
    }
    if report.traced:
        record["span_digest"] = report.observed.span_digest()
    return record


def array_record(geometry: str, members: int,
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


def fleet_record(report, **extra: Any) -> Dict[str, Any]:
    """Build the JSON record for one fleet campaign.

    *report* is a :class:`repro.fleet.campaign.FleetReport`; the record
    carries the loss matrix, the per-cell detail, the analytic
    cross-check, and the campaign's outcome digest.  Extra keyword
    context (``event_digest_jobs1``...) merges in so ``bench --compare``
    can hard-fail on any intra-entry digest disagreement.
    """
    record = report.to_record()
    record["jobs"] = report.jobs
    record["digest"] = report.digest
    record.update(extra)
    return record


def table6_record(run) -> Dict[str, Any]:
    """Build the JSON record for a Table-6 variant sweep, scoring each
    bench's normalised run times against the paper's (mean and max)."""
    benches: Dict[str, Any] = {}
    for bench, rows in run.results.items():
        normalized = run.normalized(bench)
        paper = dict(zip(map(variant_label, VARIANT_ORDER),
                         TABLE6_PAPER[bench]))
        errors = [abs(x - paper[r.label]) for r, x in zip(rows, normalized)]
        benches[bench] = {
            "variants": [
                {"label": r.label, "seconds": round(r.seconds, 6),
                 "reads": r.reads, "writes": r.writes}
                for r in rows
            ],
            "normalized": [round(x, 4) for x in normalized],
            "paper_mean_abs_err": round(sum(errors) / len(errors), 4),
            "paper_max_abs_err": round(max(errors), 4),
        }
    return {"benches": benches}


def record_entry(
    name: str,
    record: Dict[str, Any],
    path: Optional[os.PathLike] = None,
) -> Path:
    """Merge one named record into the results JSON (atomic rewrite).

    The single writer: sorted keys and no clock, so recording the same
    result again leaves the file's bytes unchanged.  A missing or
    unreadable file, or one of another schema, starts fresh rather
    than failing — the recorder must never take a benchmark down with
    it, and never carries another schema's fields under this one's name.
    """
    target = Path(path) if path is not None else bench_json_path("fingerprint")
    data: Dict[str, Any] = {"schema": SCHEMA, "entries": {}}
    try:
        existing = json.loads(target.read_text())
        if (isinstance(existing, dict) and existing.get("schema") == SCHEMA
                and isinstance(existing.get("entries"), dict)):
            data["entries"] = existing["entries"]
    except (OSError, ValueError):
        pass
    data["entries"][name] = record
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(target)
    return target
