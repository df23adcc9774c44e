"""JFS's record-level journal.

Unlike ext3 and ReiserFS, which journal whole block images, JFS logs
*records* — byte-range patches against metadata blocks — to reduce
journal traffic (§5.3).  A transaction is a run of record blocks
sharing a sequence number; the final block carries a commit flag and is
issued only after an ordering wait.

Record blocks carry a magic number and are sanity-checked during
replay; a failed check aborts the replay (§5.3) — in contrast to the
blind j-data replay of ext3/ReiserFS.

Write policy (injected by the FS): record-block writes are *ignored*
on failure like most JFS writes (D_zero), but a journal-superblock
write failure crashes the system (R_stop) — one of the paper's
illogical inconsistencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from struct import Struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import CorruptionDetected, DiskError
from repro.common.structs import U32
from repro.common.syslog import SysLog
from repro.common.xor import xor

JLOG_MAGIC = 0x474F4C4A  # "JLOG"

_SUPER_STRUCT = Struct("<IIII")  # magic, next_seq, clean, pad
_BLOCK_HDR = Struct("<IIHH")  # magic, seq, nrecords, flags
_BLOCK_HDR_SIZE = _BLOCK_HDR.size
_REC_HDR = Struct("<IHH")  # home block, offset, length
_REC_HDR_SIZE = _REC_HDR.size

FLAG_COMMIT = 1


def pack_log_super(block_size: int, next_seq: int, clean: bool) -> bytes:
    payload = _SUPER_STRUCT.pack(JLOG_MAGIC, next_seq, 1 if clean else 0, 0)
    return payload + b"\x00" * (block_size - len(payload))


def parse_log_super(data: bytes) -> Optional[Tuple[int, bool]]:
    magic, next_seq, clean, _ = _SUPER_STRUCT.unpack_from(data)
    if magic != JLOG_MAGIC:
        return None
    return next_seq, bool(clean)


@dataclass(frozen=True)
class LogRecord:
    """One redo record: patch *length* bytes at *offset* of *home*."""

    home: int
    offset: int
    data: bytes

    def packed_size(self) -> int:
        return _REC_HDR_SIZE + len(self.data)


def _pack_record_block(block_size: int, seq: int, records: List[LogRecord],
                       commit: bool) -> bytes:
    out = bytearray(_BLOCK_HDR.pack(JLOG_MAGIC, seq, len(records),
                                FLAG_COMMIT if commit else 0))
    for rec in records:
        out += _REC_HDR.pack(rec.home, rec.offset, len(rec.data))
        out += rec.data
    if len(out) > block_size:
        raise ValueError("record block overflow")
    return bytes(out) + b"\x00" * (block_size - len(out))


def _parse_record_block(data: bytes, block: int) -> Tuple[int, List[LogRecord], bool]:
    magic, seq, nrecords, flags = _BLOCK_HDR.unpack_from(data)
    if magic != JLOG_MAGIC:
        raise CorruptionDetected(block, "journal record block has bad magic")
    records: List[LogRecord] = []
    off = _BLOCK_HDR_SIZE
    for _ in range(nrecords):
        if off + _REC_HDR_SIZE > len(data):
            raise CorruptionDetected(block, "journal record runs off the block")
        home, roff, rlen = _REC_HDR.unpack_from(data, off)
        off += _REC_HDR_SIZE
        if off + rlen > len(data):
            raise CorruptionDetected(block, "journal record payload truncated")
        records.append(LogRecord(home, roff, bytes(data[off:off + rlen])))
        off += rlen
    return seq, records, bool(flags & FLAG_COMMIT)


#: Maps a byte of ``old ^ new`` to 0 (equal) or 1 (differs).
_DIFF_MASK = bytes([0]) + bytes([1]) * 255


def diff_records(home: int, old: Optional[bytes], new: bytes,
                 max_span_gap: int = 16) -> List[LogRecord]:
    """Compute patch records turning *old* into *new* (record-level
    logging): one record per run of differing bytes, runs separated by
    at most *max_span_gap* equal bytes sharing a record.  With no prior
    image, one whole-block record results."""
    if old is None or len(old) != len(new):
        return [LogRecord(home, 0, new)]
    mask = xor(old, new).translate(_DIFF_MASK)
    # ``re`` keeps the compiled scanner; the one caller uses one gap.
    spans = re.finditer(rb"\x01(?:\x00{0,%d}\x01)*" % max_span_gap, mask)
    return [LogRecord(home, m.start(), new[m.start():m.end()]) for m in spans]


WriteFn = Callable[[int, bytes], None]
StallFn = Callable[[float], None]


class RecordJournal:
    """The JFS redo log over a fixed region of the volume.

    Presents the same surface as the block journal (begin / log /
    commit / checkpoint / recover / cached / abort / crash) so the
    shared FS framing drives it."""

    def __init__(
        self,
        super_block: int,
        data_start: int,
        nblocks: int,
        block_size: int,
        syslog: SysLog,
        super_write: WriteFn,       # panics on failure (JFS policy)
        record_write: WriteFn,      # failures ignored (D_zero)
        home_write: WriteFn,
        read_block: Callable[[int], bytes],
        stall: StallFn,
        commit_stall_s: float,
    ):
        self.super_block = super_block
        self.data_start = data_start
        self.nblocks = nblocks
        self.block_size = block_size
        self.syslog = syslog
        self._super_write = super_write
        self._record_write = record_write
        self._home_write = home_write
        self._read_block = read_block
        self._stall = stall
        self.commit_stall_s = commit_stall_s

        self.seq = 1
        self.head = 0  # next free data slot
        self.aborted = False
        self._txn_records: List[LogRecord] = []
        self._txn_view: Dict[int, bytes] = {}
        #: Committed-but-unwritten metadata images.
        self.checkpoint_blocks: Dict[int, bytes] = {}
        self.commits = 0
        self.in_txn = False

    # -- transaction construction ----------------------------------------------

    def begin(self) -> None:
        self.in_txn = True

    def log(self, home: int, new_payload: bytes, old_payload: Optional[bytes]) -> None:
        """Record the change turning *old_payload* into *new_payload*."""
        base = self._txn_view.get(home, old_payload)
        max_data = self.block_size - _BLOCK_HDR_SIZE - _REC_HDR_SIZE
        for rec in diff_records(home, base, new_payload):
            # A record must fit in one journal block; split large spans.
            for off in range(0, len(rec.data), max_data):
                self._txn_records.append(
                    LogRecord(rec.home, rec.offset + off, rec.data[off:off + max_data])
                )
        self._txn_view[home] = bytes(new_payload)

    def cached(self, block: int) -> Optional[bytes]:
        if block in self._txn_view:
            return self._txn_view[block]
        return self.checkpoint_blocks.get(block)

    # -- commit ------------------------------------------------------------------

    def commit(self) -> None:
        if not self._txn_records:
            self._txn_view.clear()
            self.in_txn = False
            return
        if self.aborted:
            self._txn_records.clear()
            self._txn_view.clear()
            self.in_txn = False
            return
        capacity = self.block_size - _BLOCK_HDR_SIZE
        batches: List[List[LogRecord]] = [[]]
        used = 0
        for rec in self._txn_records:
            size = rec.packed_size()
            if used + size > capacity and batches[-1]:
                batches.append([])
                used = 0
            batches[-1].append(rec)
            used += size
        if self.head + len(batches) > self.nblocks:
            self.checkpoint()
        for i, batch in enumerate(batches):
            is_last = i == len(batches) - 1
            if is_last:
                # Ordering: earlier record blocks must be durable before
                # the commit-flagged block is issued.
                self._stall(self.commit_stall_s)
            block = self.data_start + self.head
            self._record_write(block, _pack_record_block(
                self.block_size, self.seq, batch, commit=is_last))
            self.head += 1
        self.checkpoint_blocks.update(self._txn_view)
        self._txn_records.clear()
        self._txn_view.clear()
        self.seq += 1
        self.commits += 1
        self.in_txn = False

    def checkpoint(self) -> None:
        for block in sorted(self.checkpoint_blocks):
            self._home_write(block, self.checkpoint_blocks[block])
        self.checkpoint_blocks.clear()
        self.head = 0
        self._super_write(self.super_block,
                          pack_log_super(self.block_size, self.seq, clean=True))

    def abort(self) -> None:
        self.aborted = True
        self._txn_records.clear()
        self._txn_view.clear()

    def crash(self) -> None:
        self._txn_records.clear()
        self._txn_view.clear()
        self.checkpoint_blocks.clear()
        self.in_txn = False

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> int:
        """Replay committed transactions.  Record blocks are
        sanity-checked; a failed check aborts the replay (§5.3)."""
        raw = self._read_block(self.super_block)
        parsed = parse_log_super(raw)
        if parsed is None:
            raise CorruptionDetected(self.super_block, "bad journal superblock magic")
        next_seq, clean = parsed
        self.seq = max(self.seq, next_seq)
        replayed = 0
        pending: List[LogRecord] = []
        pos = 0
        expected = next_seq
        while pos < self.nblocks:
            block = self.data_start + pos
            data = self._read_block(block)
            magic = U32.unpack_from(data)[0]
            if magic != JLOG_MAGIC:
                break
            seq, records, commit = _parse_record_block(data, block)
            if seq != expected:
                break
            pending.extend(records)
            pos += 1
            if commit:
                self._apply(pending)
                pending = []
                replayed += 1
                expected += 1
                self.seq = max(self.seq, expected)
        self.head = 0
        self._super_write(self.super_block,
                          pack_log_super(self.block_size, self.seq, clean=True))
        if replayed:
            self.syslog.recovery("jfs-log", "recovery",
                                 f"replayed {replayed} transactions",
                                 mechanism="journal-replay")
        return replayed

    def _apply(self, records: List[LogRecord]) -> None:
        images: Dict[int, bytearray] = {}
        for rec in records:
            if rec.home not in images:
                try:
                    images[rec.home] = bytearray(self._read_block(rec.home))
                except DiskError:
                    self.syslog.detection("jfs-log", "read-error",
                                          f"replay target {rec.home} unreadable",
                                          mechanism="error-code", block=rec.home)
                    continue
            img = images[rec.home]
            img[rec.offset:rec.offset + len(rec.data)] = rec.data
        for home, img in images.items():
            self._home_write(home, bytes(img))
