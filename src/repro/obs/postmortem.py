"""Causal loss post-mortems: from event streams to typed incidents.

A fleet campaign ends with *counts* — so many trials lost per cell —
but counts do not explain anything.  This module turns each lost or
stopped trial's recorded event stream (the :class:`FleetClockEvent`
lifecycle vocabulary plus detections and recoveries) into a typed
:class:`Incident`: the **loss mode** it exemplifies, the root-cause
arrival sequence with fleet-clock timestamps, and a provenance
reference per cause that :func:`repro.obs.trace.resolve_ref` resolves
back to the recorded evidence.

The taxonomy mirrors the failure scenarios the IRON paper's analysis
distinguishes (§3.3 compound failures, latent sector errors surfaced
by reconstruction, silent corruption that outlives scrub):

``double-fault-in-rebuild-window``
    Reconstruction of a failed member came up short because a second
    fault sat inside the rebuild window — the classic compound-failure
    scenario.
``latent-error-exposed-by-reconstruction``
    A latent sector error (not a whole-disk failure) was the straw: a
    degraded or foreground read pushed an unreadable block through
    every recovery level.
``scrub-unrepairable-damage``
    The scrub itself established the loss: damage on intact members
    exceeded the redundancy's repair reach.
``silent-corruption-past-scrub``
    Wrong bytes survived to the mission-end verify with no mechanism
    ever flagging them — the definition of silent data loss.
``whole-disk-fail-stop``
    An unprotected (R_zero) device fail-stopped; no spare pool, no
    redundancy, immediate loss.
``unrecovered-media-error``
    An unprotected device returned an unrecovered read error to the
    application.
``rstop-freeze``
    An R_stop policy froze the array at first trouble; data is
    intact-but-unavailable, scored separately from loss.

Layering: this module sits in ``repro.obs`` and must not import
``repro.fleet`` — it duck-types the trial verdict (anything with
``geometry`` / ``policy`` / ``trial`` / ``outcome`` / ``site`` /
``ttdl_hours`` / ``end_hours`` / ``stream`` / ``dropped_events``
attributes), so the classifier is testable with hand-built outcomes
and the fleet layer stays free to evolve its dataclass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import FleetClockEvent, StorageEvent
from repro.obs.trace import event_ref

#: Arrival tags that count as root causes in the causal chain.
ARRIVAL_TAGS = ("failstop-arrival", "lse-arrival", "corrupt-arrival")

#: Terminal tags that close the chain.
TERMINAL_TAGS = ("loss-established", "rstop-freeze")

#: The closed loss-mode vocabulary (kept in sync with
#: ``schemas/campaign_report.schema.json`` by a unit test).
INCIDENT_MODES = (
    "double-fault-in-rebuild-window",
    "latent-error-exposed-by-reconstruction",
    "scrub-unrepairable-damage",
    "silent-corruption-past-scrub",
    "whole-disk-fail-stop",
    "unrecovered-media-error",
    "rstop-freeze",
)

#: Keep at most this many causes per incident: the first few arrivals
#: (how the trial got into trouble) and the last stretch before the
#: verdict (what finished it).  Everything dropped is counted.
CAUSE_CAP = 16
_CAUSE_HEAD = 4


@dataclass(frozen=True)
class IncidentCause:
    """One arrival (or verdict) in an incident's causal chain."""

    t_hours: float
    tag: str
    member: Optional[int] = None
    block: Optional[int] = None
    #: Provenance reference (``resolve_ref``-able against the trial's
    #: retained stream).
    ref: str = ""

    def to_record(self) -> Dict[str, Any]:
        return {
            "t_hours": self.t_hours,
            "tag": self.tag,
            "member": self.member,
            "block": self.block,
            "ref": self.ref,
        }


@dataclass(frozen=True)
class Incident:
    """One lost/stopped trial, explained."""

    geometry: str
    policy: str
    trial: int
    #: "detected-loss" | "silent-loss" | "stopped"
    outcome: str
    #: One of :data:`INCIDENT_MODES`.
    mode: str
    #: Where the verdict was established ("rebuild", "scrub", ...).
    site: str
    ttdl_hours: Optional[float]
    end_hours: float
    causes: Tuple[IncidentCause, ...] = ()
    #: Label of the retained stream the cause refs resolve against.
    stream_label: str = ""
    #: Length of the retained stream and how many events the trial's
    #: ring evicted before the end (the causal prefix may be truncated).
    events: int = 0
    dropped_events: int = 0
    #: Causes elided by :data:`CAUSE_CAP` (middle of long chains).
    dropped_causes: int = 0

    def key(self) -> Tuple:
        """Stable content tuple — the digest fold input."""
        return (
            self.geometry, self.policy, self.trial, self.outcome,
            self.mode, self.site, self.ttdl_hours, self.end_hours,
            self.events, self.dropped_events, self.dropped_causes,
            tuple((c.t_hours, c.tag, c.member, c.block, c.ref)
                  for c in self.causes),
        )

    def to_record(self) -> Dict[str, Any]:
        return {
            "geometry": self.geometry,
            "policy": self.policy,
            "trial": self.trial,
            "outcome": self.outcome,
            "mode": self.mode,
            "site": self.site,
            "ttdl_hours": self.ttdl_hours,
            "end_hours": self.end_hours,
            "stream_label": self.stream_label,
            "events": self.events,
            "dropped_events": self.dropped_events,
            "dropped_causes": self.dropped_causes,
            "causes": [cause.to_record() for cause in self.causes],
        }


def classify(outcome: Any, members: int) -> str:
    """Name the loss mode of a terminal trial verdict.

    *outcome* duck-types the fleet trial verdict; *members* is the
    geometry's member count (1 for the unprotected baseline).  The
    decision tree keys on the verdict kind and the site that
    established it — both recorded by the simulator, not re-derived.
    """
    if outcome.outcome == "stopped":
        return "rstop-freeze"
    if outcome.outcome == "silent-loss":
        return "silent-corruption-past-scrub"
    site = getattr(outcome, "site", "")
    if site == "rebuild":
        return "double-fault-in-rebuild-window"
    if members <= 1:
        if site == "failstop":
            return "whole-disk-fail-stop"
        return "unrecovered-media-error"
    if site == "scrub":
        return "scrub-unrepairable-damage"
    return "latent-error-exposed-by-reconstruction"


def stream_label(outcome: Any) -> str:
    """The canonical retained-stream label for a trial verdict (the
    same label the simulator folds into the trial digest)."""
    return f"fleet:{outcome.geometry}:{outcome.policy}:{outcome.trial}"


def _causes_from_stream(
    label: str, stream: Sequence[StorageEvent],
) -> Tuple[List[IncidentCause], int]:
    """Extract the causal chain (arrivals + terminal verdict) from a
    retained stream; returns (kept causes, elided count)."""
    chain: List[Tuple[int, FleetClockEvent]] = []
    for index, event in enumerate(stream):
        if isinstance(event, FleetClockEvent) and (
                event.tag in ARRIVAL_TAGS or event.tag in TERMINAL_TAGS):
            chain.append((index, event))
    dropped = 0
    if len(chain) > CAUSE_CAP:
        dropped = len(chain) - CAUSE_CAP
        chain = chain[:_CAUSE_HEAD] + chain[-(CAUSE_CAP - _CAUSE_HEAD):]
    causes = [
        IncidentCause(
            t_hours=event.t_hours,
            tag=event.tag,
            member=event.member,
            block=event.block,
            ref=event_ref(label, index, event),
        )
        for index, event in chain
    ]
    return causes, dropped


def build_incident(outcome: Any, members: int) -> Incident:
    """Post-mortem one terminal trial verdict into an :class:`Incident`.

    ``outcome.stream`` is the trial's retained logical event stream;
    cause refs index into exactly that sequence, so resolving them
    against a ``{stream_label: outcome.stream}`` mapping always works.
    """
    label = stream_label(outcome)
    stream = outcome.stream or ()
    causes, dropped_causes = _causes_from_stream(label, stream)
    return Incident(
        geometry=outcome.geometry,
        policy=outcome.policy,
        trial=outcome.trial,
        outcome=outcome.outcome,
        mode=classify(outcome, members),
        site=getattr(outcome, "site", ""),
        ttdl_hours=outcome.ttdl_hours,
        end_hours=outcome.end_hours,
        causes=tuple(causes),
        stream_label=label,
        events=len(stream),
        dropped_events=getattr(outcome, "dropped_events", 0),
        dropped_causes=dropped_causes,
    )


def fold_incidents(incidents: Sequence[Incident]) -> str:
    """SHA-256 over incident keys in the given (enumeration) order —
    the campaign's incident digest, byte-identical at any ``--jobs``
    width because classification happens in the main process over
    outcomes delivered in submission order."""
    hasher = hashlib.sha256()
    for incident in incidents:
        hasher.update(repr(incident.key()).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def mode_counts(incidents: Sequence[Incident]) -> Dict[str, int]:
    """Loss-mode histogram (sorted by mode name)."""
    counts: Dict[str, int] = {}
    for incident in incidents:
        counts[incident.mode] = counts.get(incident.mode, 0) + 1
    return dict(sorted(counts.items()))


__all__ = [
    "ARRIVAL_TAGS",
    "CAUSE_CAP",
    "INCIDENT_MODES",
    "TERMINAL_TAGS",
    "Incident",
    "IncidentCause",
    "build_incident",
    "classify",
    "fold_incidents",
    "mode_counts",
    "stream_label",
]
