"""Failure-policy inference (§4.3) over typed storage events.

Determines how the file system behaved by comparing a faulty run
against the fault-free baseline across *observable outputs only*: the
error codes and data returned by the API, and the unified typed event
stream — :class:`~repro.obs.events.IOEvent`\\ s recorded at the device
boundary by the fault-injection layer interleaved with the detection /
recovery / policy-action events the file system emitted.  The paper
performs this comparison by hand; we mechanize it.

The retry, redundancy, and remap inferences are derived from the
structured events (request counts per block, typed reads of redundant
locations, explicit remap recovery events) — not from syslog string
matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Union

from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fingerprint.workloads import OpResult
from repro.obs.events import (
    DetectionEvent,
    IOEvent,
    LogEvent,
    PolicyActionEvent,
    RecoveryEvent,
    STOP_ACTION_TAGS as STOP_ACTIONS,
    Severity,
    StorageEvent,
    classify_log,
)
from repro.obs.trace import SpanEndEvent, SpanStartEvent, event_ref, span_ref
from repro.taxonomy.detection import Detection
from repro.taxonomy.policy import PolicyObservation
from repro.taxonomy.recovery import Recovery


#: ``isinstance(event, StorageEvent)``, callable from ``map``.
_is_typed = StorageEvent.__instancecheck__


@dataclass
class RunObservation:
    """Everything observable from one workload run.

    ``events`` is the unified ordered stream for the run — typed
    :class:`StorageEvent`\\ s covering device-boundary I/O and FS policy
    behaviour.  Plain strings are accepted for convenience (tests,
    hand-built observations) and coerced via the central tag
    classifier.
    """

    results: List[OpResult]
    events: List[Union[StorageEvent, str]]
    panic: Optional[str] = None
    fault_fired: int = 0
    fault_block: Optional[int] = None
    final_read_only: bool = False
    free_blocks: Optional[int] = None
    #: Stream label provenance references resolve against (the harness
    #: sets "{workload}:{fault_class}:{btype}", matching the digest
    #: fold labels; empty for hand-built observations).
    label: str = ""
    #: Normalized typed stream (computed once at construction).
    typed_events: List[StorageEvent] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Normalise the stream, then count in one pass all inference
        reads — ``io_events``, the tag / mechanism / action counts,
        ``type_reads`` (per block type) and ``requests`` (per ``(op,
        block)``) — so a baseline is counted once, not once per cell.
        A list that is typed throughout (the harness's) is used as is."""
        typed = self.events
        if not (type(typed) is list and all(map(_is_typed, typed))):
            typed = [
                e if isinstance(e, StorageEvent)
                else classify_log(Severity.INFO, "run", e, e)
                for e in typed
            ]
        self.typed_events = typed
        io = self.io_events = []
        tags = self.log_tags = {}
        detections = self.detection_mechanisms = {}
        recoveries = self.recovery_mechanisms = {}
        actions = self.policy_actions = {}
        type_reads = self.type_reads = {}
        requests = self.requests = {}
        for e in typed:
            if isinstance(e, IOEvent):
                io.append(e)
                key = (e.op, e.block)
                requests[key] = requests.get(key, 0) + 1
                if e.block_type and e.op == "read":
                    type_reads[e.block_type] = type_reads.get(e.block_type, 0) + 1
            elif isinstance(e, LogEvent):
                tags[e.tag] = tags.get(e.tag, 0) + 1
                if isinstance(e, DetectionEvent):
                    detections[e.mechanism] = detections.get(e.mechanism, 0) + 1
                elif isinstance(e, RecoveryEvent):
                    recoveries[e.mechanism] = recoveries.get(e.mechanism, 0) + 1
                elif isinstance(e, PolicyActionEvent):
                    actions[e.tag] = actions.get(e.tag, 0) + 1


def _new_counts(observed: Dict[str, int],
                baseline: Dict[str, int]) -> Dict[str, int]:
    """What *observed* counts beyond *baseline*: the positive part of
    their difference, as ``Counter`` subtraction keeps it."""
    return {k: n - baseline.get(k, 0) for k, n in observed.items()
            if n > baseline.get(k, 0)}


def _collect_provenance(observed: RunObservation) -> List[str]:
    """Evidence references justifying a cell's classification.

    Deterministic and bounded: the *first* faulty I/O event (the
    injected fault firing — present in every cell that reaches
    inference), the first event of each detection / recovery mechanism
    and policy action, and each trace span the evidence occurred under
    (when the run was traced).  All references resolve against the
    run's recorded stream via :func:`repro.obs.trace.resolve_ref`.
    """
    label = observed.label or "observed"
    refs: List[str] = []
    seen = set()
    open_spans: List[int] = []
    cited_spans = set()
    for index, event in enumerate(observed.typed_events):
        if isinstance(event, SpanStartEvent):
            open_spans.append(event.span_id)
            continue
        if isinstance(event, SpanEndEvent):
            if open_spans and open_spans[-1] == event.span_id:
                open_spans.pop()
            continue
        marker = None
        if isinstance(event, IOEvent):
            if event.outcome in ("error", "corrupted"):
                marker = "faulty-io"
        elif isinstance(event, (DetectionEvent, RecoveryEvent)):
            marker = (event.kind, event.mechanism)
        elif isinstance(event, PolicyActionEvent):
            marker = (event.kind, event.tag)
        if marker is None or marker in seen:
            continue
        seen.add(marker)
        refs.append(event_ref(label, index, event))
        if open_spans and open_spans[-1] not in cited_spans:
            cited_spans.add(open_spans[-1])
            refs.append(span_ref(label, open_spans[-1]))
    return refs


def infer_policy(
    baseline: RunObservation,
    observed: RunObservation,
    fault: Fault,
    redundancy_types: List[str],
) -> PolicyObservation:
    """Classify one faulty run against its baseline into IRON levels."""
    detection = set()
    recovery = set()
    notes: List[str] = []

    new_events = _new_counts(observed.log_tags, baseline.log_tags)
    # Each baseline result against the observed one at its index (None
    # when the faulty run stopped short).
    pairs = list(zip_longest(baseline.results,
                             observed.results[:len(baseline.results)]))
    all_errors_new = [
        (b.op, o.errno) for b, o in pairs
        if o is not None and b.errno is None and o.errno is not None
    ]
    # Only I/O-flavoured error codes are *detection* evidence.  An
    # ENOENT or ENOSPC several calls later is a downstream consequence
    # of silently-accepted damage, which the paper classifies as the
    # failure being hidden, not detected.
    io_errnos = {"EIO", "EROFS", "EUCLEAN"}
    errors_new = [(op, e) for op, e in all_errors_new if e in io_errnos]
    consequence_errors = [(op, e) for op, e in all_errors_new if e not in io_errnos]
    missing_ops = sum(1 for _, o in pairs if o is None)
    data_diff = [
        b.op for b, o in pairs
        if o is not None and b.errno is None and o.errno is None and b.detail != o.detail
    ]

    # ---- recovery -------------------------------------------------------

    if observed.panic is not None:
        recovery.add(Recovery.STOP)
        notes.append(f"panic: {observed.panic}")
    new_actions = _new_counts(observed.policy_actions, baseline.policy_actions)
    if any(a in new_actions for a in STOP_ACTIONS) or (
        observed.final_read_only and not baseline.final_read_only
    ):
        recovery.add(Recovery.STOP)
    if errors_new:
        recovery.add(Recovery.PROPAGATE)
        notes.append("errors propagated: " + ", ".join(f"{op}={e}" for op, e in errors_new[:3]))

    if observed.fault_block is not None:
        request = (fault.op.value, observed.fault_block)
        base_n = baseline.requests.get(request, 0)
        obs_n = observed.requests.get(request, 0)
        # More requests than the baseline (and more than the one attempt
        # any access implies) means the file system retried.
        if obs_n > max(base_n, 1):
            recovery.add(Recovery.RETRY)
            notes.append(f"retried {obs_n - max(base_n, 1)}x")

    for rtype in redundancy_types:
        if observed.type_reads.get(rtype, 0) > baseline.type_reads.get(rtype, 0):
            recovery.add(Recovery.REDUNDANCY)
            notes.append(f"read redundant copies ({rtype})")
            break

    # An explicit remap recovery event: the FS redirected the faulty
    # block to a different locale (no current stock FS does — the event
    # exists for IRON-style extensions and shows up here when they do).
    new_mechanisms = _new_counts(
        observed.recovery_mechanisms, baseline.recovery_mechanisms
    )
    if new_mechanisms.get("remap", 0) > 0:
        recovery.add(Recovery.REMAP)
        notes.append("remapped to a different locale")

    # Typed redundancy recoveries — a redundancy array (or any future
    # replica/parity layer) reconstructing around the fault reports
    # mechanism="redundancy" directly, so R_redundancy is structural
    # even when the extra reads happen below the type oracle's view.
    if (Recovery.REDUNDANCY not in recovery
            and new_mechanisms.get("redundancy", 0) > 0):
        recovery.add(Recovery.REDUNDANCY)
        notes.append("reconstructed from redundancy")

    if fault.kind is FaultKind.FAIL and fault.op is FaultOp.READ and data_diff and not errors_new:
        # A failed read, yet the API "succeeded" with different contents:
        # the file system manufactured a response.
        recovery.add(Recovery.GUESS)
        notes.append("fabricated data returned: " + ", ".join(data_diff[:3]))

    if fault.kind is FaultKind.CORRUPT and data_diff and not detection and not errors_new:
        notes.append("corrupt data returned to user: " + ", ".join(data_diff[:3]))

    # ---- detection -------------------------------------------------------

    anything_observed = bool(
        new_events or errors_new or observed.panic or recovery or missing_ops
    )
    if fault.kind is FaultKind.FAIL:
        if anything_observed:
            detection.add(Detection.ERROR_CODE)
        else:
            detection.add(Detection.ZERO)
    else:  # corruption
        new_detections = _new_counts(
            observed.detection_mechanisms, baseline.detection_mechanisms
        )
        if new_detections.get("redundancy", 0) > 0:
            detection.add(Detection.REDUNDANCY)
        if new_detections.get("sanity", 0) > 0:
            detection.add(Detection.SANITY)
        if not detection:
            if errors_new or observed.panic is not None or recovery:
                # It noticed structurally even without an explicit log line.
                detection.add(Detection.SANITY)
            else:
                detection.add(Detection.ZERO)

    if not recovery:
        recovery.add(Recovery.ZERO)

    if "silent-failure" in new_events:
        notes.append("operation failed silently")
    if consequence_errors:
        notes.append(
            "downstream consequences: "
            + ", ".join(f"{op}={e}" for op, e in consequence_errors[:3])
        )
    if (
        baseline.free_blocks is not None
        and observed.free_blocks is not None
        and observed.free_blocks < baseline.free_blocks
    ):
        notes.append(
            f"space leaked: {baseline.free_blocks - observed.free_blocks} blocks"
        )

    return PolicyObservation.of(
        detection, recovery, notes, _collect_provenance(observed)
    )
