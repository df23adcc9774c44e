"""Declarative fleet campaign specification.

A :class:`FleetSpec` pins everything a campaign needs — geometries,
policies, arrival rates, mission length, trial count, and the root
seed — as frozen, picklable, JSON-round-trippable dataclasses, so the
same spec reproduces the same outcome digest on any machine at any
``--jobs`` width.  ``python -m repro fleet --spec fleet.json`` loads
one; the defaults below are the committed ``BENCH_fleet.json`` matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.fleet.rates import DEFAULT_ACCELERATION, FaultRates, GRAY_VANINGEN


@dataclass(frozen=True)
class GeometrySpec:
    """One redundancy geometry in the matrix.

    ``kind`` is ``"single"`` (a bare one-disk stack, the R_zero
    baseline) or one of the array geometries from
    :data:`repro.redundancy.array.GEOMETRIES`; ``members`` counts the
    member disks (data + parity for the striped kinds).
    """

    label: str
    kind: str
    members: int

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "kind": self.kind, "members": self.members}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GeometrySpec":
        return cls(str(data["label"]), str(data["kind"]), int(data["members"]))


@dataclass(frozen=True)
class PolicySpec:
    """One IRON maintenance policy in the matrix.

    The knobs map onto the taxonomy: ``retries`` is the R_retry depth
    applied to member reads; the array geometries supply R_redundancy
    inherently; ``stop_on_fault`` is R_stop (freeze the array at the
    first detected fault rather than risk compound damage).  Scrub
    interval/increment set how often the trial's clock steps the scrub
    cursor and how far, and ``rebuild_concurrency`` scales
    reconstruction bandwidth, which shrinks the post-replacement
    vulnerability window.
    """

    name: str
    #: Hours between scrub ticks; 0 disables scrubbing (and with it the
    #: periodic foreground reads, so detection happens only on rebuild
    #: or at the mission-end verify).
    scrub_interval_hours: float = 168.0
    #: Scrub units advanced per tick; 0 means a full remaining pass.
    scrub_units_per_tick: int = 0
    #: R_retry depth for member/device reads (0 = no retry).
    retries: int = 0
    #: R_stop: freeze at the first detected fault instead of recovering.
    stop_on_fault: bool = False
    #: Hours from a fail-stop to the replacement drive being seated.
    replace_delay_hours: float = 24.0
    #: Reconstruction bandwidth of one rebuild stream, in member blocks
    #: per hour; total rate is ``rebuild_rate * rebuild_concurrency``.
    rebuild_rate_blocks_per_hour: float = 16.0
    rebuild_concurrency: int = 1
    #: Foreground reads issued each tick (exercises degraded reads and
    #: R_retry on live traffic, not just scrub).
    io_reads_per_tick: int = 4
    #: When set, this policy's cells run at these rates instead of the
    #: spec-wide ones — how the analytic cross-check cell isolates the
    #: fail-stop process.
    rates_override: Optional[FaultRates] = None

    def __post_init__(self) -> None:
        if self.scrub_interval_hours < 0:
            raise ValueError("scrub interval must be >= 0 (0 disables)")

    def rebuild_hours(self, member_blocks: int) -> float:
        """Length of the reconstruction window for one member."""
        rate = self.rebuild_rate_blocks_per_hour * max(1, self.rebuild_concurrency)
        return member_blocks / rate if rate > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "scrub_interval_hours": self.scrub_interval_hours,
            "scrub_units_per_tick": self.scrub_units_per_tick,
            "retries": self.retries,
            "stop_on_fault": self.stop_on_fault,
            "replace_delay_hours": self.replace_delay_hours,
            "rebuild_rate_blocks_per_hour": self.rebuild_rate_blocks_per_hour,
            "rebuild_concurrency": self.rebuild_concurrency,
            "io_reads_per_tick": self.io_reads_per_tick,
        }
        if self.rates_override is not None:
            data["rates_override"] = self.rates_override.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicySpec":
        override = data.get("rates_override")
        return cls(
            name=str(data["name"]),
            scrub_interval_hours=float(data.get("scrub_interval_hours", 168.0)),
            scrub_units_per_tick=int(data.get("scrub_units_per_tick", 0)),
            retries=int(data.get("retries", 0)),
            stop_on_fault=bool(data.get("stop_on_fault", False)),
            replace_delay_hours=float(data.get("replace_delay_hours", 24.0)),
            rebuild_rate_blocks_per_hour=float(
                data.get("rebuild_rate_blocks_per_hour", 16.0)),
            rebuild_concurrency=int(data.get("rebuild_concurrency", 1)),
            io_reads_per_tick=int(data.get("io_reads_per_tick", 4)),
            rates_override=FaultRates.from_dict(override) if override else None,
        )


#: The acceptance matrix: the R_zero baseline plus every PR 6 geometry.
DEFAULT_GEOMETRIES: Tuple[GeometrySpec, ...] = (
    GeometrySpec("single", "single", 1),
    GeometrySpec("mirror2", "mirror", 2),
    GeometrySpec("mirror3", "mirror", 3),
    GeometrySpec("parity4", "parity", 4),
    GeometrySpec("rdp5", "rdp", 5),
)

#: Policy axis: weekly scrub baseline; aggressive daily scrub with
#: retries and 4-wide rebuild; no maintenance at all; and R_stop.
DEFAULT_POLICIES: Tuple[PolicySpec, ...] = (
    PolicySpec("baseline"),
    PolicySpec("fast-scrub", scrub_interval_hours=24.0, retries=2,
               replace_delay_hours=12.0, rebuild_concurrency=4),
    PolicySpec("no-scrub", scrub_interval_hours=0.0),
    PolicySpec("stop-first", stop_on_fault=True),
)

#: Fail-stop rate for the analytic cross-check cell, chosen so a
#: 10,000-hour mission at a ~28-hour repair window yields a mirror2
#: loss probability near 0.14 — large enough that 200 trials resolve
#: it cleanly against the closed-form two-failure integral.
CROSSCHECK_FAILSTOP_PER_HOUR = 5.2e-4

#: The cross-check policy: fail-stop arrivals only (no latent errors,
#: no corruption, no scrub), so the simulation measures exactly the
#: process the mirror2 closed form integrates.
CROSSCHECK_POLICY = PolicySpec(
    "failstop-only",
    scrub_interval_hours=0.0,
    io_reads_per_tick=0,
    rates_override=FaultRates(
        failstop_per_hour=CROSSCHECK_FAILSTOP_PER_HOUR,
        lse_per_hour=0.0, transient_fraction=0.0, corruption_per_hour=0.0,
        acceleration=1.0,
    ),
)

#: Geometry the cross-check runs on (must stay mirror2 — the closed
#: form is the two-way-mirror double-failure integral).
CROSSCHECK_GEOMETRY = GeometrySpec("mirror2", "mirror", 2)


@dataclass(frozen=True)
class FleetSpec:
    """Everything one campaign needs, frozen and picklable."""

    name: str = "default"
    trials: int = 200
    mission_hours: float = 10_000.0
    num_blocks: int = 64
    block_size: int = 512
    seed: int = 20260807
    rates: FaultRates = field(
        default_factory=lambda: GRAY_VANINGEN.accelerated(DEFAULT_ACCELERATION))
    geometries: Tuple[GeometrySpec, ...] = DEFAULT_GEOMETRIES
    policies: Tuple[PolicySpec, ...] = DEFAULT_POLICIES
    #: Append the mirror2 × failstop-only analytic cross-check cell.
    crosscheck: bool = True

    def cells(self) -> Tuple[Tuple[GeometrySpec, PolicySpec], ...]:
        """The (geometry, policy) matrix in deterministic enumeration
        order, cross-check cell last."""
        grid = [(g, p) for g in self.geometries for p in self.policies]
        if self.crosscheck:
            grid.append((CROSSCHECK_GEOMETRY, CROSSCHECK_POLICY))
        return tuple(grid)

    def rates_for(self, policy: PolicySpec) -> FaultRates:
        return policy.rates_override if policy.rates_override is not None else self.rates

    def scaled(self, **changes: Any) -> "FleetSpec":
        """A copy with fields replaced (trials, seed, mission...)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trials": self.trials,
            "mission_hours": self.mission_hours,
            "num_blocks": self.num_blocks,
            "block_size": self.block_size,
            "seed": self.seed,
            "rates": self.rates.to_dict(),
            "geometries": [g.to_dict() for g in self.geometries],
            "policies": [p.to_dict() for p in self.policies],
            "crosscheck": self.crosscheck,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetSpec":
        spec = cls()
        geometries: Iterable[Any] = data.get("geometries", ())
        policies: Iterable[Any] = data.get("policies", ())
        return cls(
            name=str(data.get("name", spec.name)),
            trials=int(data.get("trials", spec.trials)),
            mission_hours=float(data.get("mission_hours", spec.mission_hours)),
            num_blocks=int(data.get("num_blocks", spec.num_blocks)),
            block_size=int(data.get("block_size", spec.block_size)),
            seed=int(data.get("seed", spec.seed)),
            rates=(FaultRates.from_dict(data["rates"])
                   if "rates" in data else spec.rates),
            geometries=(tuple(GeometrySpec.from_dict(g) for g in geometries)
                        or spec.geometries),
            policies=(tuple(PolicySpec.from_dict(p) for p in policies)
                      or spec.policies),
            crosscheck=bool(data.get("crosscheck", spec.crosscheck)),
        )

    @classmethod
    def load(cls, path: Path) -> "FleetSpec":
        """Load a spec from a JSON file (missing keys take defaults)."""
        return cls.from_dict(json.loads(Path(path).read_text()))


__all__ = [
    "CROSSCHECK_FAILSTOP_PER_HOUR",
    "CROSSCHECK_GEOMETRY",
    "CROSSCHECK_POLICY",
    "DEFAULT_GEOMETRIES",
    "DEFAULT_POLICIES",
    "FleetSpec",
    "GeometrySpec",
    "PolicySpec",
]
