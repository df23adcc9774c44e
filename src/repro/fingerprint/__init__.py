"""Failure-policy fingerprinting: workloads, type-aware fault injection,
and observable-driven policy inference (§4)."""

from repro.fingerprint.harness import (
    CellResult,
    FSAdapter,
    Fingerprinter,
)
from repro.fingerprint.inference import RunObservation, infer_policy
from repro.fingerprint.workloads import (
    WORKLOAD_BY_KEY,
    WORKLOADS,
    OpResult,
    Recorder,
    Workload,
    render_workload_table,
    standard_setup,
)

__all__ = [
    "CellResult",
    "FSAdapter",
    "Fingerprinter",
    "OpResult",
    "Recorder",
    "RunObservation",
    "WORKLOADS",
    "WORKLOAD_BY_KEY",
    "Workload",
    "infer_policy",
    "render_workload_table",
    "standard_setup",
]
