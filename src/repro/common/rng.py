"""Named-stream deterministic RNG derivation.

Everywhere the repo needs randomness it needs *reproducible* randomness:
the fingerprint matrix and the crash-state explorer promise
byte-identical output run for run, and the fleet simulator at any
``--jobs`` width, which only holds if every worker derives its random
stream from the run's root seed and a stable name — never from worker
identity, wall clock, or iteration order.

This module is the one place that derivation lives.  It is a stdlib
re-implementation of the useful part of ``numpy.random.SeedSequence``:
a root seed plus a path of names (strings or integers) hashes — via
SHA-256, so streams for different names are statistically independent —
into a child seed, and :func:`stream` turns that into a
``random.Random``.

Two guarantees the rest of the repo relies on:

* ``stream(seed)`` with **no names** is exactly ``random.Random(seed)``.
  The legacy call sites (workload generators, fault noise) promised
  their byte streams in committed BENCH digests; routing them through
  here must not change a single byte.
* ``derive_seed`` depends only on the root and the name path — not on
  how many other streams exist, nor in which process or order they are
  created — so a fleet campaign can spawn one stream per
  (geometry, policy, trial, purpose) and fan trials across a process
  pool in any schedule while every trial sees the same draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Name = Union[str, int]

#: Children are truncated to 64 bits: plenty of key space, and small
#: enough to embed in JSON records and event streams losslessly.
SEED_BITS = 64


def derive_seed(root: int, *names: Name) -> int:
    """Derive a child seed from *root* and a path of stream names.

    The derivation is a SHA-256 over the root and the NUL-separated
    names, truncated to :data:`SEED_BITS` bits.  Deterministic across
    processes, platforms, and Python versions; independent of creation
    order.
    """
    h = hashlib.sha256()
    h.update(repr(int(root)).encode("ascii"))
    for name in names:
        h.update(b"\x00")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[: SEED_BITS // 8], "big")


def stream(root: int, *names: Name) -> random.Random:
    """A ``random.Random`` for the named child stream of *root*.

    With no names this is **exactly** ``random.Random(root)`` — the
    legacy seeding convention — so converted call sites keep their
    historical byte streams.  With names, the generator is seeded from
    :func:`derive_seed` and is independent of every differently-named
    sibling.
    """
    if not names:
        return random.Random(root)
    return random.Random(derive_seed(root, *names))


#: The nine bits of one ``randrange(256)`` try within its 32-bit word.
_TRY_BITS = b"\xff\x01\x00\x00"


def random_bytes(rng: random.Random, n: int) -> bytes:
    """*n* bytes, exactly ``bytes(rng.randrange(256) for _ in range(n))``.

    ``randrange(256)`` draws ``getrandbits(9)`` until the value is below
    256, and each try is the top nine bits of one 32-bit generator word.
    ``getrandbits(32 * k)`` is the same *k* words, first draw least
    significant, so one bulk draw shifted right by 23 and masked holds
    try *i* as the little-endian 32-bit value at byte ``4 * i``.  Read as
    UTF-32 that is one code point (0..511) per try, and encoding to
    Latin-1 with ``"ignore"`` keeps exactly the tries below 256, in
    order, without a Python-level step per byte.

    Each round draws no more words than bytes are still missing, so the
    last word drawn is the one the per-byte loop would have accepted
    last and *rng* is left in the same state: payload call sites can use
    this between ``randrange``/``choice`` draws without moving any later
    draw.  (``Random.randbytes`` is a different stream.)
    """
    out = b""
    while len(out) < n:
        k = n - len(out)
        tries = ((rng.getrandbits(32 * k) >> 23)
                 & int.from_bytes(_TRY_BITS * k, "little"))
        out += (tries.to_bytes(4 * k, "little")
                .decode("utf-32-le").encode("latin-1", "ignore"))
    return out


__all__ = ["derive_seed", "random_bytes", "stream", "SEED_BITS"]
