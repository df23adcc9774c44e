"""XOR over whole byte strings.

The inner loop of every parity scheme in the repo — the arrays' stripe
parity and RDP (``repro.redundancy``), ixt3's per-file parity block
(§6.1) — so it runs as one wide integer XOR instead of a Python byte
loop (~2 orders of magnitude on 4 KiB blocks; equivalence is pinned by
a property test against the byte-by-byte form).
"""

from __future__ import annotations

from typing import Sequence


def xor(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    n = len(a)
    if len(b) != n:
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(n, "little")


def xor_all(blocks: Sequence[bytes]) -> bytes:
    """XOR of any number of equal-length byte strings (at least one)."""
    acc = 0
    for block in blocks:
        acc ^= int.from_bytes(block, "little")
    return acc.to_bytes(len(blocks[0]), "little")


__all__ = ["xor", "xor_all"]
