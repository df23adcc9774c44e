"""Fleet-scale Monte Carlo reliability campaign benchmark.

Regenerates the headline data-loss-probability matrix — five
geometries (the R_zero single-disk baseline, 2- and 3-way mirrors,
rotating parity, RDP) crossed with four IRON maintenance policies plus
the analytic cross-check cell — at ``jobs=1`` and ``jobs=4``, asserts
the campaign outcome digests are byte-identical (the determinism
witness: trials fan across the persistent pool but fold in enumeration
order), asserts the mirror2 fail-stop-only cell sits inside the
closed-form two-failure integral's tolerance, and commits both digests
to ``BENCH_fleet.json`` where ``repro bench --compare`` hard-fails on
any disagreement.

The flight recorder rides the same bar: the incident digest (a fold
over every classified loss post-mortem) must match across jobs widths,
every lost/stopped trial must map to exactly one incident, and every
incident cause ref must resolve against the retained event streams.
"""

from __future__ import annotations

from conftest import REPO_ROOT, run_once, save_result

from repro.bench.records import fleet_record, record_entry
from repro.fleet.campaign import run_fleet
from repro.fleet.spec import FleetSpec
from repro.obs.trace import resolve_ref

FLEET_JSON = REPO_ROOT / "BENCH_fleet.json"


def test_fleet_campaign(benchmark):
    spec = FleetSpec()  # trials=200, mission 10,000 h, the committed matrix

    r1, r4 = run_once(benchmark, lambda: (
        run_fleet(spec, jobs=1), run_fleet(spec, jobs=4)))

    # The determinism witness: same digest at any --jobs width.
    assert r1.digest == r4.digest
    assert r1.matrix() == r4.matrix()
    assert r1.render() == r4.render()

    # ... and the flight recorder's: the incident digest folds every
    # classified post-mortem in enumeration order.
    assert r1.incident_digest == r4.incident_digest

    # The matrix must span the acceptance grid.
    geometries = {g for g, _p in r1.cells}
    policies = {p for _g, p in r1.cells}
    assert len(geometries) >= 5 and len(policies) >= 4

    # Every lost/stopped trial maps to exactly one classified incident,
    # and every incident cause ref resolves against the retained
    # streams (the provenance acceptance bar).
    terminal = sum(
        cell.outcomes["detected-loss"] + cell.outcomes["silent-loss"]
        + cell.outcomes["stopped"] for cell in r1.cells.values())
    assert terminal == len(r1.incidents)
    seen = set()
    for incident in r1.incidents:
        key = (incident.geometry, incident.policy, incident.trial)
        assert key not in seen
        seen.add(key)
        for cause in incident.causes:
            event = resolve_ref(cause.ref, r1.streams)
            assert event.tag == cause.tag

    # The simulation must agree with the closed-form mirror2 integral.
    assert r1.crosscheck is not None
    assert r1.crosscheck["within_tolerance"], r1.crosscheck

    record = fleet_record(
        r1,
        event_digest_jobs1=r1.digest,
        event_digest_jobs4=r4.digest,
        incident_digest_jobs1=r1.incident_digest,
        incident_digest_jobs4=r4.incident_digest,
    )
    record_entry("fleet_campaign", record, path=FLEET_JSON)
    save_result("fleet_campaign", r1.render())
