"""XOR over whole byte strings.

The inner loop of every parity scheme in the repo — the arrays' stripe
parity and RDP (``repro.redundancy``), ixt3's per-file parity block
(§6.1) — so it runs as one wide integer XOR instead of a Python byte
loop (~2 orders of magnitude on 4 KiB blocks; equivalence is pinned by
a property test against the byte-by-byte form).

Nearly all of the cost is converting between ``bytes`` and ``int``
(3 µs each way on a 4 KiB block, against 0.2 µs for the XOR itself), so
each function converts every operand once: XOR three blocks with
:func:`xor_all`, never ``xor(xor(a, b), c)``, and update several parity
blocks for one data change with :func:`xor_update`.
``tools/lint_generic_ops.py`` rejects the chained forms.
"""

from __future__ import annotations

from typing import List, Sequence


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


def xor_update(targets: Sequence[bytes], old: bytes,
               new: bytes) -> List[bytes]:
    """``xor(target, xor(old, new))`` for each of *targets*: the parity
    blocks that cover one data block, moved from its *old* contents to
    its *new* ones.  The delta is computed once, as an integer."""
    n = len(old)
    if len(new) != n or any(len(target) != n for target in targets):
        raise ValueError("xor operands must have equal length")
    delta = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
    return [(int.from_bytes(target, "little") ^ delta).to_bytes(n, "little")
            for target in targets]


__all__ = ["xor", "xor_all", "xor_update"]
