"""Fleet-scale Monte Carlo reliability simulation.

The IRON taxonomy evaluated at datacenter scale: thousands of
array-backed :class:`~repro.disk.stack.DeviceStack` trials per
(geometry × policy) cell, each advancing a virtual fleet clock over
device-hours and sampling fail-stop / latent-sector-error / silent-
corruption arrivals from seeded distributions calibrated to the Gray &
van Ingen measurements.  Faults inject through the real
``FaultInjector``/array machinery — detection, scrub, degraded reads
and ``rebuild_member`` run the actual recovery paths — and the headline
artifact is a data-loss-probability-per-policy matrix cross-checked
against the closed-form mirror2 two-failure integral.

Entry points: ``python -m repro fleet``, :func:`run_fleet`.
"""

from repro.fleet.analytic import binomial_tolerance, mirror2_loss_probability
from repro.fleet.campaign import CellResult, FleetReport, run_fleet
from repro.fleet.rates import FaultRates, GRAY_VANINGEN
from repro.fleet.sim import TrialOutcome, run_trial
from repro.fleet.spec import (
    CROSSCHECK_POLICY,
    DEFAULT_GEOMETRIES,
    DEFAULT_POLICIES,
    FleetSpec,
    GeometrySpec,
    PolicySpec,
)

__all__ = [
    "CROSSCHECK_POLICY",
    "CellResult",
    "DEFAULT_GEOMETRIES",
    "DEFAULT_POLICIES",
    "FaultRates",
    "FleetReport",
    "FleetSpec",
    "GRAY_VANINGEN",
    "GeometrySpec",
    "PolicySpec",
    "TrialOutcome",
    "binomial_tolerance",
    "mirror2_loss_probability",
    "run_fleet",
    "run_trial",
]
