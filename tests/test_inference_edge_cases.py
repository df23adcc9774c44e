"""Inference edge cases: empty, read-only, and armed-but-unfired streams.

The policy-inference layer runs on whatever a workload happened to
produce.  Degenerate observations — no events at all, a workload that
only read, a fault that was armed but never fired — are legitimate
inputs and must classify as zero-policy (D_zero / R_zero), never
raise.
"""

from __future__ import annotations

import pytest

from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fingerprint.inference import RunObservation, infer_policy
from repro.fingerprint.workloads import OpResult
from repro.obs.events import FaultArmedEvent, IOEvent
from repro.taxonomy.detection import Detection
from repro.taxonomy.recovery import Recovery

READ_FAIL = Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=7)
READ_CORRUPT = Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT, block=7)


def observation(**kwargs) -> RunObservation:
    kwargs.setdefault("results", [])
    kwargs.setdefault("events", [])
    return RunObservation(**kwargs)


class TestEmptyStream:
    """A run that produced nothing at all."""

    @pytest.mark.parametrize("fault", [READ_FAIL, READ_CORRUPT])
    def test_empty_baseline_and_observed_is_zero_policy(self, fault):
        policy = infer_policy(observation(), observation(), fault, [])
        assert policy.detection == {Detection.ZERO}
        assert policy.recovery == {Recovery.ZERO}

    def test_empty_observed_against_busy_baseline(self):
        baseline = observation(
            results=[OpResult("read", None, "payload")],
            events=[IOEvent(op="read", block=7, outcome="ok")],
        )
        policy = infer_policy(baseline, observation(), READ_FAIL, [])
        # Nothing observed means nothing detected — but also nothing
        # recovered; the comparison must not crash on missing ops.
        assert Recovery.ZERO in policy.recovery or Recovery.STOP in policy.recovery

    def test_empty_redundancy_type_list(self):
        policy = infer_policy(observation(), observation(), READ_CORRUPT, [])
        assert Recovery.REDUNDANCY not in policy.recovery


class TestReadOnlyWorkload:
    """A workload that only read and saw identical results both runs."""

    def _runs(self):
        results = [OpResult("read", None, "same-bytes")]
        events = [IOEvent(op="read", block=3, outcome="ok", block_type="data")]
        return (
            observation(results=list(results), events=list(events)),
            observation(results=list(results), events=list(events)),
        )

    def test_identical_read_only_runs_are_zero_policy(self):
        baseline, observed = self._runs()
        policy = infer_policy(baseline, observed, READ_FAIL, ["data"])
        assert policy.detection == {Detection.ZERO}
        assert policy.recovery == {Recovery.ZERO}

    def test_no_retry_inferred_without_extra_requests(self):
        baseline, observed = self._runs()
        observed.fault_block = 3
        policy = infer_policy(baseline, observed, READ_FAIL, [])
        assert Recovery.RETRY not in policy.recovery

    def test_no_redundancy_inferred_from_equal_read_counts(self):
        baseline, observed = self._runs()
        policy = infer_policy(baseline, observed, READ_CORRUPT, ["data"])
        assert Recovery.REDUNDANCY not in policy.recovery


class TestArmedButUnfired:
    """The injector armed a fault the workload never tripped: the only
    'new' event is the arming marker itself."""

    def _observed(self):
        return observation(
            events=[
                FaultArmedEvent(op="read", fault_kind="fail", block=7),
            ],
            fault_fired=0,
        )

    def test_armed_only_stream_is_zero_policy(self):
        policy = infer_policy(observation(), self._observed(), READ_FAIL, [])
        assert policy.detection == {Detection.ZERO}
        assert policy.recovery == {Recovery.ZERO}

    def test_armed_only_stream_under_corruption_fault(self):
        policy = infer_policy(observation(), self._observed(), READ_CORRUPT, [])
        assert policy.detection == {Detection.ZERO}
        assert policy.recovery == {Recovery.ZERO}

    def test_typed_accessors_ignore_armed_markers(self):
        obs = self._observed()
        assert obs.io_events == []
        assert not obs.log_tags
        assert not obs.recovery_mechanisms
        assert not obs.detection_mechanisms
        assert not obs.policy_actions


class TestPartitions:
    """The partitions made at construction hold what a filter over
    ``typed_events`` returns, per query — the accessors they replaced."""

    def test_mixed_stream_with_a_separate_io_trace(self):
        from collections import Counter

        from repro.common.syslog import Severity
        from repro.obs.events import (
            DetectionEvent, JournalCommitEvent, LogEvent, PolicyActionEvent,
            RecoveryEvent, classify_log, io_event)
        from repro.obs.trace import SpanEndEvent, SpanStartEvent

        io = [io_event("read", 7, "error", "inode"),
              io_event("read", 7, "ok", "inode"), io_event("write", 9, "ok")]
        obs = observation(events=[
            SpanStartEvent(1, None, "run", "run"),
            "read-retry", "remount-ro", "some-chatter",
            classify_log(Severity.ERROR, "ext3", "sanity-fail", "bad", 7),
            RecoveryEvent(Severity.INFO, "ixt3", "replica", "used", 7,
                          mechanism="redundancy"),
            DetectionEvent(Severity.ERROR, "ixt3", "csum", "bad", 7,
                           mechanism="redundancy"),
            PolicyActionEvent(Severity.CRITICAL, "jfs", "panic", "dying"),
            JournalCommitEvent("ext3", 2),
            SpanEndEvent(1),
        ] + io)
        typed = obs.typed_events
        assert len(typed) == 13    # every string classified, the I/O kept
        assert obs.io_events == io == \
            [e for e in typed if isinstance(e, IOEvent)]
        assert obs.log_tags == Counter(
            e.tag for e in typed if isinstance(e, LogEvent))
        assert obs.log_tags["some-chatter"] == 1 and len(obs.log_tags) == 7
        assert obs.detection_mechanisms == Counter(
            e.mechanism for e in typed if isinstance(e, DetectionEvent))
        assert obs.detection_mechanisms == {"sanity": 1, "redundancy": 1}
        assert obs.recovery_mechanisms == Counter(
            e.mechanism for e in typed if isinstance(e, RecoveryEvent))
        assert obs.recovery_mechanisms == {"retry": 1, "redundancy": 1}
        assert obs.policy_actions == Counter(
            e.action for e in typed if isinstance(e, PolicyActionEvent))
        assert obs.policy_actions == {"remount-ro": 1, "panic": 1}
