"""Redundancy codes beyond single parity (§3.3's future exploration)."""

from repro.redundancy.array import (
    ArrayDevice,
    ArrayMember,
    ArrayScrubReport,
    ArraySnapshot,
    GEOMETRIES,
    MirrorDevice,
    RDPDevice,
    StripeParityDevice,
    make_array,
)
from repro.redundancy.rdp import RDPStripe, is_prime

__all__ = [
    "ArrayDevice",
    "ArrayMember",
    "ArrayScrubReport",
    "ArraySnapshot",
    "GEOMETRIES",
    "MirrorDevice",
    "RDPDevice",
    "RDPStripe",
    "StripeParityDevice",
    "is_prime",
    "make_array",
]
