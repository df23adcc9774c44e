"""Figure-2-style fingerprint rows for redundancy arrays.

The file-system matrices ask *"what does the FS do when its (single)
disk misbehaves?"*; these rows ask the same question one layer down:
what does the **array** do when a *member* misbehaves — and the answer
is classified by exactly the same machinery
(:func:`repro.fingerprint.inference.infer_policy` over typed events
into IRON D_*/R_* levels), so R_redundancy stops being a level the
repro can only talk about and becomes one it measures.

Rows (the matrix's "block types") are member-fault scenarios:

* ``member-lse`` — a single latent sector error at the faulted
  block's data location.  Every geometry reconstructs (R_redundancy)
  and read-repairs.
* ``member-lse-x2`` — latent sector errors on *two* members of the
  same stripe.  Single-redundancy geometries (2-way mirror, single
  parity) lose data and propagate EIO; RDP reconstructs.
* ``member-failstop`` — a member fail-stops, reads run degraded, the
  member is replaced and rebuilt **while a second latent error sits on
  a surviving peer** (the §3.3 motivation for double parity: only RDP
  rebuilds fully).
* ``member-corrupt`` — a member block is silently corrupted at rest;
  only ``scrub()`` can notice (D_redundancy), and repair needs either
  a voting majority (3-way mirror) or locatable parity (RDP).

Each cell is a baseline-vs-faulty differential over one raw-array
workload (write a working set, read it all back, scrub), exactly the
harness recipe.  :func:`run_array_fingerprint` runs the cells in
(geometry, scenario) order and folds their digests in that order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReadError, WriteError
from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fingerprint.inference import RunObservation, infer_policy
from repro.fingerprint.workloads import OpResult
from repro.obs.events import EventLog, fold_digest
from repro.redundancy.array import ArrayDevice, make_array
from repro.taxonomy.policy import PolicyMatrix

#: (scenario row, IRON fault class) in figure order.
ARRAY_SCENARIOS: List[Tuple[str, str]] = [
    ("member-lse", "read-failure"),
    ("member-lse-x2", "read-failure"),
    ("member-failstop", "read-failure"),
    ("member-corrupt", "corruption"),
]

#: (label, geometry, members) — the matrix columns-of-matrices.
ARRAY_GEOMETRIES: List[Tuple[str, str, int]] = [
    ("mirror2", "mirror", 2),
    ("mirror3", "mirror", 3),
    ("parity4", "parity", 4),
    ("rdp5", "rdp", 5),
]

_GEOMETRY_BY_LABEL = {label: (geom, members)
                      for label, geom, members in ARRAY_GEOMETRIES}

WORKLOAD = "array-io"
NUM_BLOCKS = 64
BLOCK_SIZE = 512
#: The logical block every scenario faults.
TARGET = 13


def _payload(block: int) -> bytes:
    return bytes([(block * 37 + 11) % 256]) * BLOCK_SIZE


def _build(label: str) -> ArrayDevice:
    geometry, members = _GEOMETRY_BY_LABEL[label]
    array = make_array(geometry, NUM_BLOCKS, BLOCK_SIZE, members=members)
    array.events = EventLog()
    for block in range(NUM_BLOCKS):
        array.write_block(block, _payload(block))
    array.events.clear()
    return array


def _read_all(array: ArrayDevice, op: str) -> List[OpResult]:
    """Read every logical block: a digest of its bytes, or EIO."""
    results: List[OpResult] = []
    for block in range(NUM_BLOCKS):
        try:
            data = array.read_block(block)
        except ReadError as exc:
            results.append(OpResult(f"{op}:{block}", "EIO", str(exc)))
        else:
            digest = hashlib.sha256(data).hexdigest()[:12]
            results.append(OpResult(f"{op}:{block}", None, digest))
    return results


def _run_workload(array: ArrayDevice) -> Tuple[List[OpResult], list]:
    """The differential workload: read the working set, then scrub."""
    results = _read_all(array, "read")
    try:
        array.scrub()
        # Admin ops carry no detail: their outcome is judged from the
        # typed events, and a detail diff would read as fabricated
        # *user* data to the differential.
        results.append(OpResult("scrub", None))
    except (ReadError, WriteError) as exc:  # pragma: no cover - defensive
        results.append(OpResult("scrub", "EIO"))
    return results, list(array.events)


def _peer_of(array: ArrayDevice, member: int, member_block: int) -> int:
    """A different member holding data of the same stripe/block."""
    for other in range(len(array.members)):
        if other != member:
            return other
    raise AssertionError("array with one member")


def _arm_scenario(array: ArrayDevice, scenario: str) -> None:
    m, mb = array._locate(TARGET)
    if scenario == "member-lse":
        array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
    elif scenario == "member-lse-x2":
        peer = _peer_of(array, m, mb)
        array.members[m].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        array.members[peer].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
    elif scenario == "member-corrupt":
        array.members[m].disk.poke(mb, b"\xa5" * BLOCK_SIZE)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")


def _run_failstop(array: ArrayDevice,
                  faulty: bool = True) -> Tuple[List[OpResult], list]:
    """member-failstop: degraded reads, then a rebuild that collides
    with a latent error on a surviving peer.  With *faulty* false, the
    fault-free twin: the same op sequence, no member faults (rebuild of
    an intact replacement is the baseline)."""
    m, mb = array._locate(TARGET)
    if faulty:
        array.fail_member(m)
    results, _ = _run_workload(array)
    if faulty:
        array.members[_peer_of(array, m, mb)].injector.arm(
            Fault(FaultOp.READ, FaultKind.FAIL, block=mb))
        array.revive_member(m)
    array.replace_member(m)
    array.rebuild_member(m)
    results.append(OpResult("rebuild", None))
    results += _read_all(array, "reread")
    return results, list(array.events)


def fingerprint_cell(label: str, scenario: str) -> Tuple[object, str]:
    """One (geometry, scenario) differential: returns the classified
    :class:`PolicyObservation` plus the observed run's event digest."""
    fault_class = dict(ARRAY_SCENARIOS)[scenario]

    baseline_array = _build(label)
    base_results, base_events = _run_workload(baseline_array)
    if scenario == "member-failstop":
        # The baseline for the rebuild run repeats the same op sequence
        # fault-free, so the differential isolates the member faults.
        baseline_array = _build(label)
        base_results, base_events = _run_failstop(baseline_array, faulty=False)

    observed_array = _build(label)
    if scenario == "member-failstop":
        obs_results, obs_events = _run_failstop(observed_array)
    else:
        _arm_scenario(observed_array, scenario)
        obs_results, obs_events = _run_workload(observed_array)

    fault = Fault(
        FaultOp.READ,
        FaultKind.CORRUPT if fault_class == "corruption" else FaultKind.FAIL,
        block=TARGET,
    )
    baseline = RunObservation(results=base_results, events=base_events)
    observed = RunObservation(
        results=obs_results,
        events=obs_events,
        fault_fired=1,
        fault_block=None,  # member faults live below the logical space
        label=f"{label}:{scenario}",
    )
    observation = infer_policy(baseline, observed, fault, redundancy_types=[])
    hasher = hashlib.sha256()
    fold_digest(hasher, f"{label}:{scenario}", obs_events)
    return observation, hasher.hexdigest()


@dataclass
class ArrayFingerprint:
    """The full array matrix: one :class:`PolicyMatrix` per geometry
    plus a fold digest over every observed event stream (the
    determinism witness recorded in ``BENCH_array.json``)."""

    matrices: Dict[str, PolicyMatrix] = field(default_factory=dict)
    digest: str = ""

    def render(self) -> str:
        from repro.taxonomy.render import render_matrix

        panels = []
        for label, matrix in self.matrices.items():
            for aspect in ("detection", "recovery"):
                for fault_class in ("read-failure", "corruption"):
                    panels.append(render_matrix(matrix, aspect, fault_class))
        panels.append(f"event digest: {self.digest}")
        return "\n\n".join(panels)


def run_array_fingerprint(
    labels: Optional[List[str]] = None,
    progress=None,
) -> ArrayFingerprint:
    """Run every (geometry, scenario) cell in enumeration order."""
    chosen = labels or [label for label, _, _ in ARRAY_GEOMETRIES]
    for label in chosen:
        if label not in _GEOMETRY_BY_LABEL:
            raise ValueError(f"unknown array geometry label {label!r}")
    result = ArrayFingerprint()
    hasher = hashlib.sha256()
    for label in chosen:
        matrix = result.matrices.get(label)
        if matrix is None:
            matrix = result.matrices[label] = PolicyMatrix(
                fs_name=f"array:{label}",
                block_types=[s for s, _ in ARRAY_SCENARIOS],
                workloads=[WORKLOAD],
            )
        for scenario, fault_class in ARRAY_SCENARIOS:
            observation, cell_digest = fingerprint_cell(label, scenario)
            matrix.put(fault_class, scenario, WORKLOAD, observation)
            hasher.update(f"{label}:{scenario}:{cell_digest}".encode())
            if progress is not None:
                progress(f"array {label}: {scenario} classified")
    result.digest = hasher.hexdigest()
    return result
