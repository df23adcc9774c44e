"""Fault arrival rates calibrated to measured disk-error studies.

The base numbers come from Gray & van Ingen, "Empirical Measurements of
Disk Failure Rates and Error Rates" (MSR-TR-2005-166, PAPERS.md):

* **Fail-stop** — drive datasheets claim ~1M-hour MTBF (an annualized
  failure rate under 1%), but the fleets they survey observe **3–7%
  AFR**.  We take the 5% midpoint: ``0.05 / 8760 ≈ 5.7e-6`` whole-disk
  failures per device-hour.
* **Latent sector errors** — SATA datasheets advertise one
  uncorrectable read error per 10^14 bits (~one per 10 TB read).  At a
  modeled steady background load of ~10 GB read per device-hour that
  is ``1e10 * 8 / 1e14 ≈ 8e-4`` errors per hour of *reading*; latent
  errors also arrive while data sits idle (media degradation), which
  field studies put at the same order.  We fold both into
  ``1.1e-5`` new latent sector errors per device-hour — roughly one
  per device-decade, consistent with their observation that real disks
  beat the advertised UER by ~2 orders of magnitude on sequential
  workloads.
* **Transient fraction** — Gray & van Ingen emphasize that many
  observed read errors are *soft* (a retry succeeds, the sector is
  fine); we model 40% of latent-sector-error arrivals as transient,
  which is what makes R_retry a measurably distinct policy.
* **Silent corruption** — their end-to-end file-transfer experiments
  saw "uncorrectable bit errors" that no layer reported, at roughly
  one event per ~30 device-years once controller/firmware causes are
  included: ``2.3e-7`` per device-hour.

Simulating a 10,000-hour mission at the measured rates would need
~10^5 trials per cell to resolve mirror2's loss probability, so
campaigns run **accelerated**: every rate is multiplied by a documented
``acceleration`` factor (default 40×).  This is a standard reliability
trick — it compresses the mission, it does not change which *mechanism*
loses data — and the analytic cross-check runs at the same accelerated
rates, so the comparison stays apples-to-apples.  ``docs/fleet.md``
carries the full calibration table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class FaultRates:
    """Per-device-hour arrival rates for the fail-partial fault model."""

    #: Whole-disk fail-stop arrivals per device-hour (AFR / 8760).
    failstop_per_hour: float
    #: New latent sector errors (unreadable blocks) per device-hour.
    lse_per_hour: float
    #: Fraction of latent sector errors that are transient (a retry
    #: succeeds); the rest are sticky until scrubbed/rewritten.
    transient_fraction: float
    #: Silent corruption events (wrong bytes, no error) per device-hour.
    corruption_per_hour: float
    #: Multiplier already applied to the measured base rates.
    acceleration: float = 1.0

    def accelerated(self, factor: float) -> "FaultRates":
        """These rates with every arrival process sped up *factor*×."""
        if factor <= 0:
            raise ValueError("acceleration factor must be positive")
        return replace(
            self,
            failstop_per_hour=self.failstop_per_hour * factor,
            lse_per_hour=self.lse_per_hour * factor,
            corruption_per_hour=self.corruption_per_hour * factor,
            acceleration=self.acceleration * factor,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "failstop_per_hour": self.failstop_per_hour,
            "lse_per_hour": self.lse_per_hour,
            "transient_fraction": self.transient_fraction,
            "corruption_per_hour": self.corruption_per_hour,
            "acceleration": self.acceleration,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRates":
        return cls(
            failstop_per_hour=float(data["failstop_per_hour"]),
            lse_per_hour=float(data["lse_per_hour"]),
            transient_fraction=float(data.get("transient_fraction", 0.0)),
            corruption_per_hour=float(data.get("corruption_per_hour", 0.0)),
            acceleration=float(data.get("acceleration", 1.0)),
        )


#: The measured (unaccelerated) calibration from MSR-TR-2005-166.
GRAY_VANINGEN = FaultRates(
    failstop_per_hour=0.05 / HOURS_PER_YEAR,   # 5% AFR midpoint of 3-7%
    lse_per_hour=1.1e-5,                        # ~1 latent error / device-decade
    transient_fraction=0.4,                     # soft-error share
    corruption_per_hour=2.3e-7,                 # ~1 silent event / 30 device-years
)

#: Default campaign acceleration: compresses a 10,000-hour mission so
#: 200 trials per cell resolve loss probabilities in the 0.01-0.5 band.
DEFAULT_ACCELERATION = 40.0

#: Rates with no arrivals at all — the zero-rate edge-case fleet.
ZERO_RATES = FaultRates(
    failstop_per_hour=0.0, lse_per_hour=0.0,
    transient_fraction=0.0, corruption_per_hour=0.0,
)


__all__ = [
    "DEFAULT_ACCELERATION",
    "FaultRates",
    "GRAY_VANINGEN",
    "HOURS_PER_YEAR",
    "ZERO_RATES",
]
