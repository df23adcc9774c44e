"""Checksums used for detection-level ``D_redundancy``.

ixt3 (§6.1) computes SHA-1 over block contents, stores checksums in the
journal first and checkpoints them to a location *distant* from the data
they cover, so that a misdirected or phantom write cannot silently update
both the data and its checksum.
"""

from __future__ import annotations

import hashlib
import zlib

#: Size in bytes of a stored SHA-1 checksum record.
SHA1_SIZE = 20


def sha1(data: bytes) -> bytes:
    """SHA-1 digest of *data* — ixt3's block checksum (§6.1)."""
    return hashlib.sha1(data).digest()


def crc32(data: bytes) -> int:
    """CRC-32 of *data* — used for compact in-header checks."""
    return zlib.crc32(data) & 0xFFFFFFFF


def sha1_many(blocks) -> list:
    """SHA-1 digests for a sequence of block payloads.

    Bulk form of :func:`sha1` for mkfs-time seeding and scrub sweeps:
    one local lookup of the constructor instead of a global per block.
    """
    _sha1 = hashlib.sha1
    return [_sha1(b).digest() for b in blocks]


def transaction_checksum(blocks) -> bytes:
    """Checksum over an ordered sequence of journal block payloads.

    This is the *transactional checksum* (Tc, §6.1): placed in the commit
    block so that all blocks of a transaction can be issued concurrently;
    on recovery a mismatch proves the commit did not fully reach disk and
    the transaction is not replayed.
    """
    h = hashlib.sha1()
    for payload in blocks:
        h.update(payload)
    return h.digest()
