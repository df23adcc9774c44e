"""A JBD-style write-ahead journal for ext3/ixt3.

Ordered-mode journaling as ext3 runs it (§5.1): each transaction writes
ordered data blocks in place, then copies of dirty metadata into the
journal (descriptor block, data copies, optional revoke block), then —
after waiting for the journal writes to reach disk, which costs
rotational delay — the commit block.  Metadata is later *checkpointed*
to its final home location, cleaning the journal.

The paper's transactional checksum (Tc, §6.1) removes the pre-commit
ordering wait: the commit block carries a checksum over the
transaction, so all blocks can be issued concurrently and recovery can
detect a torn commit by checksum mismatch instead of by ordering.

Failure-policy hooks are injected by the owning file system: ext3
passes write functions that *ignore* error codes (its documented bug —
a failed journal write still commits, §5.1), while ixt3 passes checked
writes that abort the journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.checksum import SHA1_SIZE, transaction_checksum
from repro.common.errors import CorruptionDetected, ReadError
from repro.common.structs import U32, U32x2, u32_seq
from repro.common.syslog import SysLog

JMAGIC = 0x4A424454  # "JBDT"

JB_SUPER = 0
JB_DESC = 1
JB_COMMIT = 2
JB_REVOKE = 3

_HDR_STRUCT = Struct("<III")  # magic, btype, seq
_HDR_SIZE = _HDR_STRUCT.size


def _pack_header(btype: int, seq: int) -> bytes:
    return _HDR_STRUCT.pack(JMAGIC, btype, seq)


def _parse_header(data: bytes) -> Optional[Tuple[int, int]]:
    magic, btype, seq = _HDR_STRUCT.unpack_from(data)
    if magic != JMAGIC:
        return None
    return btype, seq


def pack_journal_super(block_size: int, next_seq: int, clean: bool) -> bytes:
    payload = _pack_header(JB_SUPER, 0) + U32x2.pack(next_seq, 1 if clean else 0)
    return payload + b"\x00" * (block_size - len(payload))


def parse_journal_super(data: bytes) -> Optional[Tuple[int, bool]]:
    hdr = _parse_header(data)
    if hdr is None or hdr[0] != JB_SUPER:
        return None
    next_seq, clean = U32x2.unpack_from(data, _HDR_SIZE)
    return next_seq, bool(clean)


def desc_capacity(block_size: int) -> int:
    return (block_size - _HDR_SIZE - 4) // 4


def pack_desc(block_size: int, seq: int, homes: List[int]) -> bytes:
    payload = (_pack_header(JB_DESC, seq) + U32.pack(len(homes))
               + u32_seq(len(homes)).pack(*homes))
    return payload + b"\x00" * (block_size - len(payload))


def parse_desc(data: bytes) -> Optional[Tuple[int, List[int]]]:
    hdr = _parse_header(data)
    if hdr is None or hdr[0] != JB_DESC:
        return None
    (count,) = U32.unpack_from(data, _HDR_SIZE)
    if count > desc_capacity(len(data)):
        return None
    homes = list(u32_seq(count).unpack_from(data, _HDR_SIZE + 4))
    return hdr[1], homes


def pack_commit(block_size: int, seq: int, nblocks: int, checksum: bytes = b"") -> bytes:
    csum = checksum or b"\x00" * SHA1_SIZE
    payload = _pack_header(JB_COMMIT, seq) + U32.pack(nblocks) + csum
    return payload + b"\x00" * (block_size - len(payload))


def parse_commit(data: bytes) -> Optional[Tuple[int, int, bytes]]:
    hdr = _parse_header(data)
    if hdr is None or hdr[0] != JB_COMMIT:
        return None
    (nblocks,) = U32.unpack_from(data, _HDR_SIZE)
    csum = bytes(data[_HDR_SIZE + 4:_HDR_SIZE + 4 + SHA1_SIZE])
    return hdr[1], nblocks, csum


def pack_revoke(block_size: int, seq: int, blocks: List[int]) -> bytes:
    payload = (_pack_header(JB_REVOKE, seq) + U32.pack(len(blocks))
               + u32_seq(len(blocks)).pack(*blocks))
    return payload + b"\x00" * (block_size - len(payload))


def parse_revoke(data: bytes) -> Optional[Tuple[int, List[int]]]:
    hdr = _parse_header(data)
    if hdr is None or hdr[0] != JB_REVOKE:
        return None
    (count,) = U32.unpack_from(data, _HDR_SIZE)
    if count > desc_capacity(len(data)):
        return None
    blocks = list(u32_seq(count).unpack_from(data, _HDR_SIZE + 4))
    return hdr[1], blocks


@dataclass
class Transaction:
    """One running transaction: buffered metadata, ordered data, revokes.

    *derived* maps each block whose owner-derived work (ixt3's checksum
    and replica) ran in this transaction to the kind and replica block it
    ran for; *pending* holds those changed since.  :meth:`Journal.save`
    copies neither, so its owner settles the pending work first.
    """

    seq: int
    meta: Dict[int, bytes] = field(default_factory=dict)
    ordered: Dict[int, bytes] = field(default_factory=dict)
    revoked: Set[int] = field(default_factory=set)
    derived: Dict[int, Tuple[str, Optional[int]]] = field(default_factory=dict)
    pending: Set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not self.meta and not self.ordered and not self.revoked


# Write-policy callbacks supplied by the owning file system.
WriteFn = Callable[[int, bytes], None]
TypeFn = Callable[[int, str], None]
StallFn = Callable[[float], None]
SettleFn = Callable[[Optional[int]], None]


class Journal:
    """The write-ahead log occupying a fixed region of the volume."""

    def __init__(
        self,
        start: int,
        nblocks: int,
        block_size: int,
        syslog: SysLog,
        journal_write: WriteFn,
        home_write: WriteFn,
        ordered_write: WriteFn,
        read_block: Callable[[int], bytes],
        set_type: TypeFn,
        stall: StallFn,
        commit_stall_s: float,
        txn_checksum: bool = False,
        settle: SettleFn = lambda block: None,
    ):
        self.start = start
        self.nblocks = nblocks
        self.block_size = block_size
        self.syslog = syslog
        self._journal_write = journal_write
        self._home_write = home_write
        self._ordered_write = ordered_write
        self._read_block = read_block
        self._set_type = set_type
        self._stall = stall
        self.commit_stall_s = commit_stall_s
        self.txn_checksum = txn_checksum
        #: Owner callback bringing the running transaction up to date:
        #: ``settle(None)`` before a commit, ``settle(block)`` before a
        #: revoke drops *block*.
        self._settle = settle
        self._desc_capacity = desc_capacity(block_size)

        self.seq = 1
        self.head = 1  # next free slot, relative to self.start
        self.aborted = False
        self.current: Optional[Transaction] = None
        #: Committed-but-not-checkpointed metadata (latest wins).
        self.checkpoint_blocks: Dict[int, bytes] = {}
        self.commits = 0
        self.checkpoints = 0

    # -- transaction construction ------------------------------------------

    def begin(self) -> Transaction:
        if self.current is None:
            self.current = Transaction(seq=self.seq)
        return self.current

    def add_meta(self, block: int, data: bytes) -> None:
        self.begin().meta[block] = bytes(data)

    def add_ordered(self, block: int, data: bytes) -> None:
        self.begin().ordered[block] = bytes(data)

    def revoke(self, block: int) -> None:
        self._settle(block)
        txn = self.begin()
        txn.revoked.add(block)
        txn.meta.pop(block, None)

    def cached(self, block: int) -> Optional[bytes]:
        """Latest in-flight contents of *block*: running txn first, then
        committed-but-unwritten checkpoint state."""
        if self.current is not None:
            if block in self.current.meta:
                return self.current.meta[block]
            if block in self.current.ordered:
                return self.current.ordered[block]
        return self.checkpoint_blocks.get(block)

    def fits(self, more_meta: int = 0) -> bool:
        """Whether the running transaction, grown by *more_meta*
        metadata blocks, fits an empty log — whether :meth:`commit`
        could write it without overflowing the journal."""
        txn = self.current
        if txn is None:
            return self._txn_footprint(more_meta, 0) < self.nblocks
        return self._txn_footprint(
            len(txn.meta) + more_meta, len(txn.revoked)) < self.nblocks

    def save(self) -> Optional[Transaction]:
        """A copy of the running transaction, for :meth:`restore`,
        without the owner's derived-work bookkeeping."""
        txn = self.current
        if txn is None:
            return None
        return Transaction(txn.seq, dict(txn.meta), dict(txn.ordered),
                           set(txn.revoked))

    def restore(self, saved: Optional[Transaction]) -> None:
        """Make *saved* (from :meth:`save`) the running transaction again."""
        self.current = saved

    # -- commit ------------------------------------------------------------------

    def commit(self) -> None:
        """Commit the running transaction (ordered mode)."""
        txn = self.current
        if txn is None or txn.is_empty():
            self.current = None
            return
        if self.aborted:
            self.current = None
            return
        self._settle(None)

        # 0. Blocks revoked by this transaction must never be written
        #    back from stale checkpoint images — they may already have
        #    been reallocated (and rewritten) under a new role.  Drop
        #    them before any mid-commit checkpoint can flush them.
        for home in txn.revoked:
            self.checkpoint_blocks.pop(home, None)

        # 1. Ordered data reaches its home location before the metadata
        #    that references it commits.  Issued in elevator order, as
        #    the block layer's scheduler would sort the queue.
        for block in sorted(txn.ordered):
            self._ordered_write(block, txn.ordered[block])

        homes = list(txn.meta.keys())
        needed = self._txn_footprint(len(homes), len(txn.revoked))
        if self.head + needed > self.nblocks:
            # Journal full: checkpoint everything and reset the log.
            self.checkpoint()

        # 2. Descriptor + metadata copies (+ revokes) into the log, a
        #    descriptor or revoke block naming at most *cap* homes.
        cap = self._desc_capacity
        copies_in_order: List[bytes] = []
        for i in range(0, len(homes), cap):
            chunk = homes[i:i + cap]
            self._jwrite("j-desc", pack_desc(self.block_size, txn.seq, chunk))
            for home in chunk:
                payload = txn.meta[home]
                copies_in_order.append(payload)
                self._jwrite("j-data", payload)
        revoked = sorted(txn.revoked)
        for i in range(0, len(revoked), cap):
            self._jwrite("j-revoke", pack_revoke(self.block_size, txn.seq, revoked[i:i + cap]))

        # 3. Ordering: standard ext3 waits for the journal writes to
        #    reach the platter before issuing the commit block — an
        #    extra rotational delay.  With transactional checksums the
        #    commit block is issued concurrently and the wait vanishes.
        checksum = b""
        if self.txn_checksum:
            checksum = transaction_checksum(copies_in_order)
        else:
            self._stall(self.commit_stall_s)

        # 4. Commit block (skipped if the journal aborted mid-commit).
        if self.aborted:
            self.current = None
            return
        self._jwrite("j-commit", pack_commit(self.block_size, txn.seq, len(homes), checksum))

        # 5. Transaction is durable; stage metadata for checkpointing.
        self.checkpoint_blocks.update(txn.meta)
        self.seq += 1
        self.commits += 1
        self.current = None

    def checkpoint(self) -> None:
        """Write committed metadata to its home locations and reset the log."""
        for block in sorted(self.checkpoint_blocks):
            self._home_write(block, self.checkpoint_blocks[block])
        self.checkpoint_blocks.clear()
        self.head = 1
        self._set_type(self.start, "j-super")
        self._journal_write(self.start, pack_journal_super(self.block_size, self.seq, clean=True))
        self.checkpoints += 1

    def abort(self) -> None:
        """Abort the journal: no further commits will be written."""
        self.aborted = True
        self.current = None

    def crash(self) -> None:
        """Power loss: volatile state vanishes; the log stays on disk."""
        self.current = None
        self.checkpoint_blocks.clear()

    # -- recovery -------------------------------------------------------------------

    def recover(self) -> int:
        """Replay committed transactions found in the log (two passes, as
        JBD does: collect revokes, then replay).  Returns the number of
        transactions replayed.

        Faithful to the study: journal *descriptor/commit/super* blocks
        are type-checked (magic numbers), but journaled *data copies*
        carry no type information and are replayed blindly — a corrupted
        j-data block lands wherever its descriptor points (§5.1, §5.2).
        """
        sb_raw = self._read_block(self.start)
        parsed = parse_journal_super(sb_raw)
        if parsed is None:
            raise CorruptionDetected(self.start, "bad journal superblock magic")
        next_seq, clean = parsed
        self.seq = max(self.seq, next_seq)

        # Pass 1: walk the log, collecting committed transactions and revokes.
        txns: List[Tuple[int, List[Tuple[int, bytes]]]] = []
        revokes: List[Tuple[int, int]] = []  # (block, revoking seq)
        pos = 1
        expected_seq = next_seq
        pending: List[Tuple[int, bytes]] = []
        pending_seq: Optional[int] = None
        while pos < self.nblocks:
            raw = self._read_block(self.start + pos)
            hdr = _parse_header(raw)
            if hdr is None:
                break
            btype, seq = hdr
            if btype == JB_DESC:
                parsed_desc = parse_desc(raw)
                if parsed_desc is None:
                    break
                _, homes = parsed_desc
                if pending_seq is None:
                    if seq != expected_seq:
                        break  # stale transaction from before the last checkpoint
                    pending_seq = seq
                elif seq != pending_seq:
                    break
                pos += 1
                for home in homes:
                    if pos >= self.nblocks:
                        break
                    copy = self._read_block(self.start + pos)
                    pending.append((home, copy))
                    pos += 1
                continue
            if btype == JB_REVOKE:
                parsed_rev = parse_revoke(raw)
                if parsed_rev is not None:
                    for block in parsed_rev[1]:
                        revokes.append((block, seq))
                pos += 1
                continue
            if btype == JB_COMMIT:
                parsed_commit = parse_commit(raw)
                if parsed_commit is None or pending_seq is None or seq != pending_seq:
                    break
                _, _, csum = parsed_commit
                if self.txn_checksum and any(b != 0 for b in csum):
                    actual = transaction_checksum(c for _, c in pending)
                    if actual != csum:
                        self.syslog.warning(
                            "journal", "txn-checksum-mismatch",
                            f"transaction {seq} torn; not replaying",
                        )
                        pending = []
                        pending_seq = None
                        break
                txns.append((seq, pending))
                pending = []
                pending_seq = None
                expected_seq = seq + 1
                pos += 1
                continue
            break

        # Pass 2: replay, honouring revokes (a block revoked at seq S is
        # not replayed from any transaction with seq <= S).
        replayed = 0
        for seq, blocks in txns:
            for home, copy in blocks:
                if any(rb == home and rseq >= seq for rb, rseq in revokes):
                    continue
                self._home_write(home, copy)
            replayed += 1
            self.seq = max(self.seq, seq + 1)

        # Reset the log.
        self.head = 1
        self._set_type(self.start, "j-super")
        self._journal_write(self.start, pack_journal_super(self.block_size, self.seq, clean=True))
        if replayed:
            self.syslog.recovery("journal", "recovery",
                                 f"replayed {replayed} transactions",
                                 mechanism="journal-replay")
        return replayed

    # -- internals --------------------------------------------------------------------

    def _txn_footprint(self, nmeta: int, nrevoked: int) -> int:
        """Log blocks a commit writes: descriptors, copies, revoke
        blocks, and the commit block."""
        cap = self._desc_capacity
        ndesc = (nmeta + cap - 1) // cap
        nrevoke = (nrevoked + cap - 1) // cap
        return ndesc + nmeta + nrevoke + 1

    def _jwrite(self, jtype: str, payload: bytes) -> None:
        if self.aborted:
            return  # an abort mid-commit squelches the rest of the txn
        if self.head >= self.nblocks:
            raise ReadError(self.start + self.head, "journal overflow")
        block = self.start + self.head
        self._set_type(block, jtype)
        self._journal_write(block, payload)
        self.head += 1
