"""Windows NTFS, as characterized by the study (§5.4) — "persistence
is a virtue".  Simplified (the paper's own NTFS analysis is partial).

* **Reads**: error codes checked; failed reads are retried
  aggressively — up to seven attempts — then propagated.
* **Writes**: retried (three attempts for data blocks, two for MFT and
  other metadata).  A data-block write failure is ultimately *recorded
  but not used* (effective ``D_zero``); metadata write failures
  propagate.
* **Sanity**: strong checks on metadata blocks — every MFT record and
  index block carries a magic number, and the volume becomes
  unmountable when any metadata block except the journal is corrupted.
  Block *pointers* are not validated: a corrupted run pointer silently
  reads or overwrites whatever it names (§5.4).
"""

from __future__ import annotations

import stat as _stat
from typing import Dict, List, Optional, Tuple

from repro.common.bitmap import Bitmap
from repro.common.errors import (
    CorruptionDetected,
    DiskError,
    Errno,
    FSError,
)
from repro.common.syslog import Severity
from repro.fs.base import JournaledFS
from repro.fs.ext3.journal import Journal
from repro.fs.ntfs.structures import (
    BootFile,
    FLAG_IN_USE,
    FLAG_IS_DIR,
    MFTRecord,
    NUM_RUNS,
    ROOT_MFT,
    FIRST_USER_MFT,
    pack_index_block,
    unpack_index_block,
)


class NTFS(JournaledFS):
    """NTFS over a :class:`BlockDevice`."""

    name = "ntfs"
    ROOT = ROOT_MFT

    #: Table 4: NTFS on-disk structures.
    BLOCK_TYPES: Dict[str, str] = {
        "MFT": "Info about files/directories",
        "directory": "List of files in directory",
        "volume-bitmap": "Tracks free logical clusters",
        "MFT-bitmap": "Tracks unused MFT records",
        "logfile": "The transaction log file",
        "data": "Holds user data",
        "boot": "Contains info about NTFS volume",
    }

    #: Aggressive retry: up to seven read attempts (§5.4).
    GENERIC_READ_RETRIES = 6
    DATA_WRITE_ATTEMPTS = 3
    META_WRITE_ATTEMPTS = 2

    def __init__(self, device, sync_mode: bool = True, commit_every: int = 64,
                 commit_stall_s: Optional[float] = None):
        super().__init__(device, sync_mode=sync_mode, commit_every=commit_every,
                         commit_stall_s=commit_stall_s)
        self.boot: Optional[BootFile] = None

    # ==================================================================
    # Failure-policy hooks
    # ==================================================================

    def _write_data(self, block: int, data: bytes) -> None:
        try:
            self.buf.bwrite(block, data, retries=self.DATA_WRITE_ATTEMPTS - 1)
        except DiskError:
            # The error code is recorded but never used (§5.4) —
            # effective D_zero for user data.
            pass

    def _meta_bread(self, block: int) -> bytes:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            return cached
        try:
            return self.buf.bread(block)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"read failed after retries: {exc}",
                                  mechanism="error-code", block=block)
            raise FSError(Errno.EIO, f"block {block} unreadable") from exc

    def _sanity_violation(self, exc: CorruptionDetected) -> FSError:
        self.syslog.detection(self.name, "sanity-fail", str(exc),
                              mechanism="sanity", block=exc.block)
        self.syslog.action(self.name, "unmountable", "volume marked dirty/unmountable")
        self._read_only = True
        if self.journal is not None:
            self.journal.abort()
        return FSError(Errno.EUCLEAN, str(exc))

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def mount(self) -> None:
        if self._mounted:
            raise FSError(Errno.EINVAL, "already mounted")
        try:
            raw = self.buf.bread(0)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"boot file unreadable: {exc}",
                                  mechanism="error-code", block=0)
            raise FSError(Errno.EIO, "cannot read boot file") from exc
        boot = BootFile.unpack(raw)
        if not boot.is_valid():
            self.syslog.detection(self.name, "sanity-fail", "boot file magic invalid",
                                  mechanism="sanity", block=0)
            self.syslog.action(self.name, "unmountable", "volume not mountable")
            raise FSError(Errno.EUCLEAN, "bad boot file")
        self.boot = boot
        self.journal = Journal(
            start=boot.logfile_start,
            nblocks=boot.logfile_blocks,
            block_size=self.block_size,
            syslog=self.syslog,
            journal_write=self._write_meta_swallowing,
            home_write=self._write_meta_swallowing,
            ordered_write=self._write_data,
            read_block=self.buf.bread,
            set_type=lambda b, t: None,  # the whole region is 'logfile'
            stall=self._stall,
            commit_stall_s=self.commit_stall_s,
            txn_checksum=False,
        )
        self._relearn_types()
        try:
            with self._span("journal-replay", "txn"):
                self.journal.recover()
        except CorruptionDetected as exc:
            # The journal is the one structure whose corruption does not
            # make the volume unmountable (§5.4): reset the log.
            self.syslog.action(self.name, "log-reset",
                               f"logfile invalid, reinitializing: {exc}",
                               severity=Severity.WARNING)
            self.journal.checkpoint()
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"logfile unreadable: {exc}",
                                  mechanism="error-code")
            raise FSError(Errno.EIO, "cannot replay logfile") from exc
        self._mounted = True
        self._relearn_types()

    def _write_meta_swallowing(self, block: int, data: bytes) -> None:
        """Journal/checkpoint writes: retried, then logged; the commit
        machinery is not unwound mid-flight."""
        try:
            self.buf.bwrite(block, data, retries=self.META_WRITE_ATTEMPTS - 1)
        except DiskError as exc:
            self.syslog.detection(self.name, "write-error",
                                  f"metadata write failed after retries: {exc}",
                                  mechanism="error-code", block=block)

    # ==================================================================
    # MFT records
    # ==================================================================

    def _mft_block(self, mft: int) -> int:
        if not 0 <= mft < self.boot.mft_records:
            raise FSError(Errno.EUCLEAN, f"MFT number {mft} out of range")
        return self.boot.mft_start + mft

    def _node_get(self, mft: int) -> MFTRecord:
        raw = self._meta_bread(self._mft_block(mft))
        try:
            return MFTRecord.unpack(raw, self._mft_block(mft))
        except CorruptionDetected as exc:
            raise self._sanity_violation(exc) from exc

    def _node_put(self, mft: int, record: MFTRecord) -> None:
        self.journal.add_meta(self._mft_block(mft), record.pack(self.block_size))

    # ==================================================================
    # Data path (the block-map primitives of the generic layer): the
    # record's run table is the whole map
    # ==================================================================

    @property
    def _max_file_bytes(self) -> int:
        return NUM_RUNS * self.block_size

    def _file_block_read(self, mft: int, rec: MFTRecord, fb: int, readahead: bool,
                         modifying: bool, bno: int = 0) -> bytes:
        bno = rec.runs[fb] if fb < NUM_RUNS else 0
        return self._meta_bread(bno) if bno else b"\x00" * self.block_size

    def _file_block_map(self, mft: int, rec: MFTRecord, fb: int) -> Tuple[int, bool]:
        fresh = rec.runs[fb] == 0
        if fresh:
            rec.runs[fb] = self._alloc_block("data")
        return rec.runs[fb], fresh

    def _file_block_store(self, mft: int, rec: MFTRecord, fb: int, bno: int,
                          payload: bytes, fresh: bool) -> None:
        self._set_type(bno, "data")
        self.journal.add_ordered(bno, payload)

    def _node_shrink(self, mft: int, rec: MFTRecord, size: int) -> None:
        bs = self.block_size
        for i in range((size + bs - 1) // bs, NUM_RUNS):
            if rec.runs[i]:
                self._free_block(rec.runs[i])
                rec.runs[i] = 0

    def _space_counts(self) -> Tuple[int, int, int, int]:
        boot = self.boot
        data_start = boot.mft_start + boot.mft_records
        free_blocks = self._read_bitmap(
            boot.vol_bitmap_start, boot.total_blocks - data_start).count_free()
        free_mft = self._read_bitmap(
            boot.mft_bitmap_block, boot.mft_records).count_free()
        return boot.total_blocks, free_blocks, boot.mft_records, free_mft

    # ==================================================================
    # The generic layer's node primitives
    # ==================================================================

    @staticmethod
    def _is_dir(rec: MFTRecord) -> bool:
        return rec.is_dir

    def _node_create(self, parent: int, mode: int) -> int:
        return self._alloc_mft(mode)

    def _node_drop(self, mft: int, rec: MFTRecord) -> None:
        self._node_shrink(mft, rec, 0)
        self._free_mft(mft)

    def _read_link(self, mft: int, rec: MFTRecord) -> Optional[str]:
        if rec.runs[0] == 0:
            return None
        return self._meta_bread(rec.runs[0])[:rec.size].decode(errors="replace")

    # -- directories (the block-list primitives of the generic layer) -------

    def _dir_blocks(self, mft: int, rec: MFTRecord):
        # Directory ops on a non-directory must fail with ENOTDIR —
        # parsing file data as index blocks would trip the sanity
        # checks and mark the volume unmountable over a bad path.
        if not rec.is_dir:
            raise FSError(Errno.ENOTDIR, "not a directory")
        # Clamped to the run table: a stale or corrupted record may
        # carry an absurd size; iterating past NUM_RUNS can only ever
        # yield empty runs, so the clamp is both a liveness and a
        # sanity bound.
        bs = self.block_size
        for fb in range(min((rec.size + bs - 1) // bs, NUM_RUNS)):
            if rec.runs[fb]:
                yield rec.runs[fb]

    def _dir_block_load(self, bno: int,
                        modifying: bool = False) -> List[Tuple[int, int, str]]:
        raw = self._meta_bread(bno)
        try:
            return unpack_index_block(raw, bno, self.block_size)
        except CorruptionDetected as exc:
            raise self._sanity_violation(exc) from exc

    def _dir_block_store(self, bno: int, entries) -> None:
        self.journal.add_meta(bno, pack_index_block(entries, self.block_size))

    def _dir_block_fits(self, entries, name: str) -> bool:
        used = 12 + sum(6 + len(n.encode("latin-1", errors="replace")[:255])
                        for _, _, n in entries)
        return used + 6 + len(name.encode()) <= self.block_size

    def _dir_block_map(self, mft: int, rec: MFTRecord, fb: int) -> int:
        if fb >= NUM_RUNS:
            raise FSError(Errno.ENOSPC, "directory full")
        rec.runs[fb] = self._alloc_block("directory")
        return rec.runs[fb]

    def _dir_child_in_range(self, mft: int) -> bool:
        return 0 < mft < self.boot.mft_records

    def _dir_lookup_scan(self, mft: int, rec: Optional[MFTRecord]):
        # The caller's copy goes unused: this code has always re-read
        # the directory's record, and loaded every index block before
        # comparing a name; the fingerprints count those reads.
        return [self._dir_entries(mft, self._node_get(mft))]

    # -- allocation --------------------------------------------------------------

    def _read_bitmap(self, block: int, nbits: int) -> Bitmap:
        raw = self._meta_bread(block)
        return Bitmap(nbits, raw)  # bitmaps carry no structure to check

    def _alloc_block(self, kind: str) -> int:
        boot = self.boot
        data_start = boot.mft_start + boot.mft_records
        bmp = self._read_bitmap(boot.vol_bitmap_start, boot.total_blocks - data_start)
        bit = bmp.find_free()
        if bit is None:
            raise FSError(Errno.ENOSPC, "out of disk space")
        bmp.set(bit)
        self.journal.add_meta(boot.vol_bitmap_start,
                              bmp.to_bytes(pad_to=self.block_size))
        bno = data_start + bit
        self._set_type(bno, kind)
        return bno

    def _free_block(self, bno: int) -> None:
        boot = self.boot
        data_start = boot.mft_start + boot.mft_records
        if not data_start <= bno < boot.total_blocks:
            return
        bmp = self._read_bitmap(boot.vol_bitmap_start, boot.total_blocks - data_start)
        if bmp.test(bno - data_start):
            bmp.clear(bno - data_start)
            self.journal.add_meta(boot.vol_bitmap_start,
                                  bmp.to_bytes(pad_to=self.block_size))
        self.journal.revoke(bno)
        self._forget_type(bno)

    def _alloc_mft(self, mode: int) -> int:
        boot = self.boot
        bmp = self._read_bitmap(boot.mft_bitmap_block, boot.mft_records)
        bit = bmp.find_free(FIRST_USER_MFT)
        if bit is None:
            raise FSError(Errno.ENOSPC, "MFT full")
        bmp.set(bit)
        self.journal.add_meta(boot.mft_bitmap_block,
                              bmp.to_bytes(pad_to=self.block_size))
        flags = FLAG_IN_USE | (FLAG_IS_DIR if _stat.S_ISDIR(mode) else 0)
        rec = MFTRecord(flags=flags, links=1, mode=mode,
                        atime=1.0, mtime=1.0, ctime=1.0)
        self._node_put(bit, rec)
        return bit

    def _free_mft(self, mft: int) -> None:
        boot = self.boot
        bmp = self._read_bitmap(boot.mft_bitmap_block, boot.mft_records)
        if bmp.test(mft):
            bmp.clear(mft)
            self.journal.add_meta(boot.mft_bitmap_block,
                                  bmp.to_bytes(pad_to=self.block_size))
        self._node_put(mft, MFTRecord(flags=0))

    # ==================================================================
    # Gray-box: block-type oracle
    # ==================================================================

    def block_type(self, block: int) -> Optional[str]:
        boot = self.boot
        if boot is None:
            return None
        if block == 0:
            return "boot"
        if boot.logfile_start <= block < boot.logfile_start + boot.logfile_blocks:
            return "logfile"
        if block == boot.vol_bitmap_start:
            return "volume-bitmap"
        if block == boot.mft_bitmap_block:
            return "MFT-bitmap"
        if boot.mft_start <= block < boot.mft_start + boot.mft_records:
            return "MFT"
        return self._type_of(block)

    def _types_key(self) -> tuple:
        return (self.boot,)

    def _walk_types(self, peek) -> Tuple[Dict[int, str], Dict[int, str]]:
        # The whole journal region is 'logfile': no jtypes.
        (boot,) = self._walk_key(peek)
        types: Dict[int, str] = {}
        for block in range(boot.mft_start, boot.mft_start + boot.mft_records):
            try:
                rec = MFTRecord.unpack(peek(block), block)
            except CorruptionDetected:
                continue
            if not rec.in_use:
                continue
            kind = "directory" if rec.is_dir else "data"
            for bno in rec.runs:
                if 0 < bno < self.device.num_blocks:
                    types[bno] = kind
        return types, {}
