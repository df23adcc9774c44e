"""Unit tests for the failure-policy inference layer: synthetic
observations must classify into the IRON levels the paper would assign."""

from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fingerprint.inference import RunObservation, infer_policy
from repro.fingerprint.workloads import OpResult
from repro.obs.events import io_event
from repro.taxonomy import Detection, Recovery


def obs(results=(), events=(), trace_entries=(), panic=None, fired=1,
        fault_block=50, final_ro=False, free=None):
    stream = list(events) + [io_event(*entry) for entry in trace_entries]
    return RunObservation(
        results=list(results), events=stream, panic=panic,
        fault_fired=fired, fault_block=fault_block, final_read_only=final_ro,
        free_blocks=free,
    )


def read_fault():
    return Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=50)


def write_fault():
    return Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=50)


def corrupt_fault():
    return Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT, block=50)


BASE = obs(results=[OpResult("stat", None, "aaaa")], fired=0,
           trace_entries=[("read", 50, "ok")], free=100)


class TestDetectionInference:
    def test_silent_write_is_dzero(self):
        observed = obs(results=[OpResult("stat", None, "aaaa")],
                       trace_entries=[("write", 50, "error")], free=100)
        p = infer_policy(BASE, observed, write_fault(), [])
        assert p.detection == frozenset({Detection.ZERO})
        assert p.recovery == frozenset({Recovery.ZERO})

    def test_logged_error_is_derrorcode(self):
        observed = obs(results=[OpResult("stat", "EIO")],
                       events=["read-error"], free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert Detection.ERROR_CODE in p.detection
        assert Recovery.PROPAGATE in p.recovery

    def test_sanity_event_is_dsanity(self):
        observed = obs(results=[OpResult("stat", "EUCLEAN")],
                       events=["sanity-fail"], free=100)
        p = infer_policy(BASE, observed, corrupt_fault(), [])
        assert Detection.SANITY in p.detection

    def test_checksum_event_is_dredundancy(self):
        observed = obs(results=[OpResult("stat", None, "aaaa")],
                       events=["checksum-mismatch", "redundancy-used"], free=100)
        p = infer_policy(BASE, observed, corrupt_fault(), [])
        assert Detection.REDUNDANCY in p.detection

    def test_undetected_corruption_is_dzero_with_note(self):
        observed = obs(results=[OpResult("stat", None, "bbbb")], free=100)
        p = infer_policy(BASE, observed, corrupt_fault(), [])
        assert p.detection == frozenset({Detection.ZERO})
        assert any("corrupt data" in n for n in p.notes)

    def test_consequence_errors_are_not_detection(self):
        """An ENOENT later is damage, not detection (the paper's
        'failure hidden')."""
        observed = obs(results=[OpResult("stat", "ENOENT")],
                       trace_entries=[("write", 50, "error")], free=100)
        p = infer_policy(BASE, observed, write_fault(), [])
        assert Detection.ZERO in p.detection
        assert Recovery.PROPAGATE not in p.recovery
        assert any("consequence" in n for n in p.notes)


class TestRecoveryInference:
    def test_panic_is_rstop(self):
        observed = obs(results=[], panic="kernel panic - x", events=["write-error"])
        p = infer_policy(BASE, observed, write_fault(), [])
        assert Recovery.STOP in p.recovery

    def test_remount_ro_is_rstop(self):
        observed = obs(results=[OpResult("stat", "EIO")],
                       events=["read-error", "remount-ro"], final_ro=True, free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert Recovery.STOP in p.recovery
        assert Recovery.PROPAGATE in p.recovery

    def test_retries_counted_from_trace(self):
        observed = obs(results=[OpResult("stat", "EIO")],
                       events=["read-error"],
                       trace_entries=[("read", 50, "error")] * 4, free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert Recovery.RETRY in p.recovery

    def test_single_attempt_is_not_retry(self):
        observed = obs(results=[OpResult("stat", "EIO")],
                       events=["read-error"],
                       trace_entries=[("read", 50, "error")], free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert Recovery.RETRY not in p.recovery

    def test_redundant_reads_are_rredundancy(self):
        observed = RunObservation(
            results=[OpResult("stat", None, "aaaa")],
            events=["read-error", "redundancy-used",
                    io_event("read", 50, "error", "inode"),
                    io_event("read", 900, "ok", "replica")],
            fault_fired=1, fault_block=50, free_blocks=100)
        p = infer_policy(BASE, observed, read_fault(), ["replica", "parity"])
        assert Recovery.REDUNDANCY in p.recovery

    def test_fabricated_data_is_rguess(self):
        observed = obs(results=[OpResult("stat", None, "zzzz")],
                       events=["sanity-fail"],
                       trace_entries=[("read", 50, "error")], free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert Recovery.GUESS in p.recovery

    def test_space_leak_noted(self):
        observed = obs(results=[OpResult("stat", None, "aaaa")],
                       events=["ignored-error"], free=80)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert any("leaked" in n for n in p.notes)

    def test_silent_failure_noted(self):
        observed = obs(results=[OpResult("stat", None, "aaaa")],
                       events=["silent-failure"], free=100)
        p = infer_policy(BASE, observed, read_fault(), [])
        assert any("silently" in n for n in p.notes)
        assert Detection.ERROR_CODE in p.detection  # the log proves it saw it
        assert Recovery.ZERO in p.recovery
