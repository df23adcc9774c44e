"""XOR over whole byte strings.

The inner loop of every parity scheme in the repo — the arrays' stripe
parity and RDP (``repro.redundancy``), ixt3's per-file parity block
(§6.1) — so it runs as one wide integer XOR instead of a Python byte
loop (~2 orders of magnitude on 4 KiB blocks; equivalence is pinned by
a property test against the byte-by-byte form).

Nearly all of the cost is converting between ``bytes`` and ``int``: on
a 4 KiB block ``int.from_bytes`` takes 3.8 µs and ``int.to_bytes`` 3.9
µs, against 0.25 µs for the XOR itself and 0.16 µs for an
:func:`as_int` that finds its block in the table (``timeit`` best of 7,
best of three runs, CPython 3.11 on a 2-vCPU x86-64 host).  So each
function converts every operand once — XOR three blocks with
:func:`xor_all`, never ``xor(xor(a, b), c)``, and update several parity
blocks for one data change with :func:`xor_update`;
``tools/lint_generic_ops.py`` rejects the chained forms — and every
conversion goes through :func:`as_int` and :func:`as_block`, which
share one table of integer forms (DESIGN.md, "Integer forms").  An
array hands a cell it stored back as the same ``bytes`` object, so a
parity cell written by one read-modify-write, a payload written to many
blocks or a disk's zero block is decoded once, not once per call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence, Tuple

#: Entries the integer-form table keeps.  Each costs its integer (4.4 KB
#: for a 4 KiB block) plus the block when nothing else holds it.
FORMS_CAPACITY = 448

#: ``id(block) -> (block, int form)`` for exact ``bytes`` blocks, oldest
#: first.  The entry's strong reference keeps the id from being reused
#: while it lives; a ``bytearray`` or ``memoryview`` can change under a
#: key and is never stored.
_forms: OrderedDict[int, Tuple[bytes, int]] = OrderedDict()


def _remember(block: bytes, value: int) -> None:
    if len(_forms) >= FORMS_CAPACITY:
        _forms.popitem(last=False)
    _forms[id(block)] = (block, value)


def as_int(block: bytes) -> int:
    """*block* as a little-endian integer, decoded once per ``bytes``
    object while the table holds it.  Only a live ``bytes`` object the
    table holds can have its id, so a ``bytearray`` or ``memoryview``
    never hits."""
    entry = _forms.get(id(block))
    if entry is not None:
        return entry[1]
    value = int.from_bytes(block, "little")
    if type(block) is bytes:
        _remember(block, value)
    return value


def as_block(value: int, n: int) -> bytes:
    """*value* as *n* little-endian bytes, remembered for :func:`as_int`."""
    block = value.to_bytes(n, "little")
    _remember(block, value)
    return block


def xor(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    n = len(a)
    if len(b) != n:
        raise ValueError("xor operands must have equal length")
    return as_block(as_int(a) ^ as_int(b), n)


def xor_all(blocks: Sequence[bytes]) -> bytes:
    """XOR of any number of equal-length byte strings (at least one)."""
    if not blocks:
        raise ValueError("xor_all needs at least one operand")
    n = len(blocks[0])
    acc = 0
    for block in blocks:
        if len(block) != n:
            raise ValueError("xor operands must have equal length")
        acc ^= as_int(block)
    return as_block(acc, n)


def xor_update(targets: Sequence[bytes], old: bytes,
               new: bytes) -> List[bytes]:
    """``xor(target, xor(old, new))`` for each of *targets*: the parity
    blocks that cover one data block, moved from its *old* contents to
    its *new* ones.  The delta is computed once, as an integer."""
    n = len(old)
    if len(new) != n or any(len(target) != n for target in targets):
        raise ValueError("xor operands must have equal length")
    delta = as_int(old) ^ as_int(new)
    return [as_block(as_int(target) ^ delta, n) for target in targets]


__all__ = ["as_block", "as_int", "xor", "xor_all", "xor_update"]
