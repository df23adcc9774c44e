"""ixt3's redundancy machinery: the checksum store and the replica map.

Checksums (§6.1): SHA-1 digests of block contents, packed many to a
block in a dedicated region *distant* from the blocks they cover, so a
misdirected or phantom write cannot silently refresh both a block and
its checksum.  Updates travel through the journal with the transaction
that dirtied the block; digests are cached for read verification.

Metadata replicas (§6.1): every metadata block has a copy in a replica
region in a distant part of the volume.  A persistent map (stored in
the first blocks of the region) tracks home→slot assignments; both
copies are updated in the same transaction, so either both reach disk
or neither does.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.checksum import SHA1_SIZE, sha1
from repro.common.structs import U32x2

ReadBlock = Callable[[int], bytes]
JournalMeta = Callable[[int, bytes], None]
Settle = Callable[[int], None]

#: Blocks at the head of the replica region holding the home→slot map.
REPLICA_MAP_BLOCKS = 2

_ZERO_DIGEST = b"\x00" * SHA1_SIZE


class ChecksumStore:
    """SHA-1 per covered block, packed ``block_size // 20`` to a block."""

    def __init__(self, region_start: int, region_blocks: int, block_size: int,
                 read_block: ReadBlock, journal_meta: JournalMeta,
                 settle: Settle = lambda block: None):
        self.region_start = region_start
        self.region_blocks = region_blocks
        self.block_size = block_size
        self.per_block = block_size // SHA1_SIZE
        self._read_block = read_block
        self._journal_meta = journal_meta
        #: Owner callback: apply *block*'s pending update before a lookup.
        self._settle = settle
        self._cache: Dict[int, bytes] = {}  # cksum block -> payload
        #: Last payload that verified clean per covered block.  A repeat
        #: read of identical bytes short-circuits on equality instead of
        #: re-hashing; any in-flight corruption changes the bytes, so the
        #: comparison fails and the full SHA-1 path runs as before.
        self._verified: Dict[int, bytes] = {}

    def covers(self, block: int) -> bool:
        return block // self.per_block < self.region_blocks

    def location(self, block: int) -> tuple:
        cks_block = self.region_start + block // self.per_block
        offset = (block % self.per_block) * SHA1_SIZE
        return cks_block, offset

    def _load(self, cks_block: int) -> bytes:
        if cks_block not in self._cache:
            self._cache[cks_block] = self._read_block(cks_block)
        return self._cache[cks_block]

    def stored_digest(self, block: int) -> Optional[bytes]:
        """Stored digest for *block*, or None when never checksummed."""
        if not self.covers(block):
            return None
        self._settle(block)
        cks_block, offset = self.location(block)
        payload = self._load(cks_block)
        digest = payload[offset:offset + SHA1_SIZE]
        return None if digest == _ZERO_DIGEST else bytes(digest)

    def verify(self, block: int, data: bytes) -> bool:
        """True when *data* matches the stored digest (or none is stored)."""
        expected = self.stored_digest(block)
        if expected is None:
            return True
        if self._verified.get(block) == data:
            return True
        ok = sha1(data) == expected
        if ok:
            self._verified[block] = bytes(data)
        return ok

    def update(self, block: int, data: bytes) -> None:
        """Record the new digest of *block*, journaling the checksum
        block with the same transaction."""
        if not self.covers(block):
            return
        cks_block, offset = self.location(block)
        payload = bytearray(self._load(cks_block))
        payload[offset:offset + SHA1_SIZE] = sha1(data)
        frozen = bytes(payload)
        self._cache[cks_block] = frozen
        # The stored digest is sha1(data) by construction, so the new
        # payload is the verified image for this block.
        self._verified[block] = bytes(data)
        self._journal_meta(cks_block, frozen)

    def forget(self, block: int) -> None:
        """Clear the digest (block freed)."""
        if not self.covers(block):
            return
        cks_block, offset = self.location(block)
        payload = bytearray(self._load(cks_block))
        payload[offset:offset + SHA1_SIZE] = _ZERO_DIGEST
        frozen = bytes(payload)
        self._cache[cks_block] = frozen
        self._verified.pop(block, None)
        self._journal_meta(cks_block, frozen)

    def drop_cache(self) -> None:
        self._cache.clear()
        self._verified.clear()


#: Replica map entry: (home block, slot index), 8 bytes each.
_MAP_ENTRY = U32x2
_MAP_HDR = U32x2  # count, pad


class ReplicaMap:
    """Persistent home→replica-slot map plus the replica slots."""

    def __init__(self, region_start: int, region_blocks: int, map_blocks: int,
                 block_size: int, read_block: ReadBlock, journal_meta: JournalMeta):
        self.region_start = region_start
        self.region_blocks = region_blocks
        self.map_blocks = map_blocks
        self.block_size = block_size
        self._read_block = read_block
        self._journal_meta = journal_meta
        self.slots: Dict[int, int] = {}  # home -> slot index
        self._loaded = False

    @property
    def slot_capacity(self) -> int:
        return self.region_blocks - self.map_blocks

    def slot_block(self, slot: int) -> int:
        return self.region_start + self.map_blocks + slot

    def replica_block_of(self, home: int) -> Optional[int]:
        self._ensure_loaded()
        slot = self.slots.get(home)
        return None if slot is None else self.slot_block(slot)

    def assign(self, home: int) -> Optional[int]:
        """Slot for *home*, allocating (and persisting) if needed.
        Returns the replica block, or None when the region is full."""
        self._ensure_loaded()
        if home in self.slots:
            return self.slot_block(self.slots[home])
        used = set(self.slots.values())
        for slot in range(self.slot_capacity):
            if slot not in used:
                self.slots[home] = slot
                self._persist()
                return self.slot_block(slot)
        return None

    def release(self, home: int) -> None:
        self._ensure_loaded()
        if home in self.slots:
            del self.slots[home]
            self._persist()

    # -- persistence ----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self.slots = {}
        per = (self.block_size - 8) // 8
        count = 0
        for i in range(self.map_blocks):
            data = self._read_block(self.region_start + i)
            if i == 0:
                (count, _) = _MAP_HDR.unpack_from(data)
            in_this_block = max(0, min(per, count - i * per))
            off = 8
            for _ in range(in_this_block):
                home, slot = _MAP_ENTRY.unpack_from(data, off)
                self.slots[home] = slot
                off += 8
        self._loaded = True

    def _persist(self) -> None:
        entries = sorted(self.slots.items())
        per = (self.block_size - 8) // 8
        for i in range(self.map_blocks):
            chunk = entries[i * per:(i + 1) * per]
            out = bytearray(_MAP_HDR.pack(len(entries) if i == 0 else 0, 0))
            for home, slot in chunk:
                out += _MAP_ENTRY.pack(home, slot)
            out += b"\x00" * (self.block_size - len(out))
            self._journal_meta(self.region_start + i, bytes(out))

    def drop_cache(self) -> None:
        self._loaded = False
