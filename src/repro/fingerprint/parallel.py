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
worker instead of rebuilding per task.  Golden images do not travel
through the task pickle stream either — the parent builds each
distinct golden once, publishes its slab in shared memory, and workers
attach the same physical pages zero-copy
(:func:`repro.common.pool.attach_image`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.pool import (
    SharedSnapshot,
    attach_snapshot,
    begin_run,
    pool_map,
    run_token,
)
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
    golden: Optional[Tuple[Any, Dict[int, str]]] = None,
    token: Any = None,
) -> "WorkloadOutcome":
    """Pool entry point: rebuild the adapter by name, run one workload.

    *golden* is the parent's pre-built image for this workload as a
    ``(slab descriptor, oracle)`` pair; the worker attaches the shared
    slab and seeds the adapter's golden cache so the harness never
    rebuilds it.
    """
    from repro.fingerprint.harness import Fingerprinter
    from repro.fingerprint.workloads import WORKLOAD_BY_KEY

    if token is not None:
        begin_run(token)
    adapter = adapter_for(registry_key, registry_kwargs)
    workload = WORKLOAD_BY_KEY[workload_key]
    if golden is not None:
        descriptor, oracle = golden
        cache_key = (workload.setup, workload.crash_ops)
        if cache_key not in adapter.golden_cache:
            adapter.golden_cache[cache_key] = (attach_snapshot(descriptor), oracle)
    fp = Fingerprinter(adapter, workloads=[workload],
                       corruption_mode=corruption_mode,
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
    the caller's merge is therefore deterministic.  Distinct golden
    images (one per ``(setup, crash_ops)`` recipe — typically two for
    the Table-3 matrix) are built once in the parent and published via
    shared memory; each task carries its workload's slab descriptor.
    """
    check_parallelizable(fp)
    slabs: Dict[Any, SharedSnapshot] = {}
    goldens: Dict[str, Tuple[Any, Dict[int, str]]] = {}
    for workload in fp.workloads:
        cache_key = (workload.setup, workload.crash_ops)
        snapshot, oracle = fp._golden(workload)
        slab = slabs.get(cache_key)
        if slab is None:
            slab = slabs[cache_key] = SharedSnapshot(snapshot)
        goldens[workload.key] = (slab.descriptor, oracle)
    token = run_token()
    try:
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
                    goldens[workload.key],
                    token,
                )
                for workload in fp.workloads
            ],
            fp.jobs,
        )
    finally:
        for slab in slabs.values():
            slab.close()
    for workload in fp.workloads:
        fp.progress(
            f"{fp.adapter.name}: workload {workload.key} ({workload.name})"
        )
    return outcomes
