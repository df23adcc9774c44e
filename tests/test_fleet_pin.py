"""Pin of everything a fleet campaign produces, series included.

``BENCH_fleet.json`` and ``perf/expected.json`` hold the loss matrix
and the digests only; the flight-recorder series, counters, retained
streams and per-trial I/O are pinned nowhere else.  One SHA-256 folds,
for every cell × trial of ``FleetSpec().scaled(trials=2)``, every
``TrialOutcome`` field a campaign keeps (outcome, time to loss, end,
counters, member I/O, event count, digest, site, binned series,
retained stream, evicted events); one traced rdp5 trial's raw
flight-recorder snapshot; and ``run_fleet``'s outcome digest, incident
digest and merged ``timeseries``.  A trial's packed series is hashed
as the binned entries it unpacks to.  ``PINNED`` is what the script
produced at commit 3c8f17f; a change to the simulator, the arrays, the
injector or the recorder that moves one sample, one member read or one
event moves it.  Run ``python tests/test_fleet_pin.py`` to print the
current value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.fleet.campaign import run_fleet
from repro.fleet.sim import GAUGES, run_trial
from repro.fleet.spec import FleetSpec
from repro.obs.metrics import MetricsRegistry

PINNED = "c35cec98c200a594dc2a6743b2098a5e20fed62d641094549d293f0f090db29c"

TRACED = ("rdp5", "baseline", 0)


def _series_entries(outcome, spec) -> list:
    """The trial's packed series as the binned entries ``PINNED`` was
    taken over: each gauge folded into a fresh series of its cell."""
    registry = MetricsRegistry()
    outcome.series.fold_into([
        registry.timeseries(name, spec.mission_hours,
                            geometry=outcome.geometry, policy=outcome.policy)
        for name in GAUGES])
    return registry.snapshot()["timeseries"]


def _outcome_bytes(outcome, spec) -> bytes:
    stream = (None if outcome.stream is None
              else [repr(event.key()) for event in outcome.stream])
    return json.dumps([
        outcome.geometry, outcome.policy, outcome.trial,
        outcome.outcome, repr(outcome.ttdl_hours), repr(outcome.end_hours),
        repr(outcome.device_hours), outcome.counters,
        [repr(v) for v in dataclasses.astuple(outcome.io)],
        outcome.events, outcome.digest, outcome.site,
        _series_entries(outcome, spec), stream, outcome.dropped_events,
    ], sort_keys=True).encode()


def capture() -> str:
    spec = FleetSpec().scaled(trials=2)
    hasher = hashlib.sha256()
    for geometry, policy in spec.cells():
        for trial in range(spec.trials):
            hasher.update(_outcome_bytes(
                run_trial(spec, geometry, policy, trial), spec))
            if (geometry.label, policy.name, trial) == TRACED:
                traced = run_trial(spec, geometry, policy, trial, trace=True)
                hasher.update(_outcome_bytes(traced, spec))
                hasher.update(json.dumps(traced.observed.flight,
                                         sort_keys=True).encode())
    report = run_fleet(spec)
    hasher.update(json.dumps([
        report.digest, report.incident_digest,
        report.campaign_report()["timeseries"],
    ], sort_keys=True).encode())
    return hasher.hexdigest()


def test_fleet_campaign_is_pinned():
    assert capture() == PINNED


if __name__ == "__main__":
    print(capture())
