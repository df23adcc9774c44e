"""Bounded crash-state exploration over recorded write streams.

Records a workload's ordered write/journal-commit events, enumerates
crash points (every prefix plus bounded torn states per commit epoch),
replays each onto an O(1) copy-on-write snapshot, runs the file
system's real recovery path, and checks per-FS oracles — reporting
every violation with the exact state key that reproduces it.  See
``docs/crash_testing.md``.
"""

from repro.crash.engine import (
    CRASH_PROFILES,
    PROFILE_GRAMMAR,
    CrashProfile,
    CrashReport,
    CrashState,
    Recording,
    StateObservation,
    Violation,
    apply_state,
    check_state,
    crash_profile,
    enumerate_states,
    explore,
    record,
    state_by_key,
    state_digest,
)
from repro.crash.workloads import CRASH_WORKLOADS, CrashWorkload

__all__ = [
    "CRASH_PROFILES",
    "CRASH_WORKLOADS",
    "CrashProfile",
    "CrashReport",
    "CrashState",
    "CrashWorkload",
    "PROFILE_GRAMMAR",
    "Recording",
    "StateObservation",
    "Violation",
    "apply_state",
    "check_state",
    "crash_profile",
    "enumerate_states",
    "explore",
    "record",
    "state_by_key",
    "state_digest",
]
