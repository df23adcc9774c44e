"""Process-pool fan-out for the fingerprinting harness.

The fault matrix is embarrassingly parallel at workload granularity:
each workload owns its golden image, baseline, and every (fault class ×
block type) cell derived from them, with no shared state between
workloads.  A pool worker rebuilds the adapter from the registry recipe
(:attr:`FSAdapter.registry_key` — the adapter's closures are not
picklable), fingerprints one workload end to end, and ships the
resulting :class:`~repro.fingerprint.harness.WorkloadOutcome` back.
The parent merges outcomes in submission (= workload) order, so
``jobs=N`` output is byte-identical to ``jobs=1``.

Workers are **warm**: they come from the persistent pool in
:mod:`repro.common.pool` and memoize the rebuilt adapter per registry
recipe, so repeated matrices reuse one adapter (and its caches) per
worker instead of rebuilding per task.  That includes the golden
images: a worker builds each one itself through
:meth:`Fingerprinter._golden`, once per process and ``(setup,
crash_ops)``, exactly as a serial run does — nothing image-sized
travels in a task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.common.pool import pool_map
from repro.disk.faults import CorruptionMode
from repro.fingerprint.adapters import ADAPTERS, adapter_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fingerprint.harness import Fingerprinter, WorkloadOutcome


def _worker(
    registry_key: str,
    registry_kwargs: Dict[str, Any],
    workload_key: str,
    corruption_mode: CorruptionMode,
    trace: bool = False,
    metrics: bool = False,
) -> "WorkloadOutcome":
    """Pool entry point: rebuild the adapter by name, run one workload."""
    from repro.fingerprint.harness import Fingerprinter
    from repro.fingerprint.workloads import WORKLOAD_BY_KEY

    workload = WORKLOAD_BY_KEY[workload_key]
    fp = Fingerprinter(adapter_for(registry_key, registry_kwargs),
                       workloads=[workload], corruption_mode=corruption_mode,
                       trace=trace, metrics=metrics)
    return fp._run_workload(workload)


def check_parallelizable(fp: "Fingerprinter") -> None:
    """Raise with an actionable message when this run cannot fan out."""
    from repro.fingerprint.workloads import WORKLOAD_BY_KEY

    if fp.adapter.registry_key is None or fp.adapter.registry_key not in ADAPTERS:
        raise ValueError(
            f"adapter {fp.adapter.name!r} has no registry recipe; parallel "
            "workers rebuild adapters via ADAPTERS[registry_key](**kwargs) — "
            "register the adapter or run with jobs=1"
        )
    for workload in fp.workloads:
        if WORKLOAD_BY_KEY.get(workload.key) is not workload:
            raise ValueError(
                f"workload {workload.key!r} is not the registered Table-3 "
                "workload; custom workloads require jobs=1"
            )


def run_parallel(fp: "Fingerprinter") -> List["WorkloadOutcome"]:
    """Fan the fingerprinter's workloads out across the persistent pool.

    Returns outcomes in workload order regardless of completion order;
    the caller's merge is therefore deterministic.
    """
    check_parallelizable(fp)
    outcomes: List["WorkloadOutcome"] = pool_map(
        _worker,
        [
            (
                fp.adapter.registry_key,
                fp.adapter.registry_kwargs,
                workload.key,
                fp.corruption_mode,
                fp.trace,
                fp.metrics,
            )
            for workload in fp.workloads
        ],
        fp.jobs,
    )
    for workload in fp.workloads:
        fp.progress(
            f"{fp.adapter.name}: workload {workload.key} ({workload.name})"
        )
    return outcomes
