"""ixt3 — the IRON version of ext3 (§6).

Extends ext3 with five independently-switchable mechanisms:

* **Mc** — metadata checksumming (``D_redundancy`` detection);
* **Dc** — data checksumming;
* **Mr** — metadata replication to a distant region (``R_redundancy``);
* **Dp** — one parity block per file over its data blocks
  (``R_redundancy`` for user data);
* **Tc** — transactional checksums: the commit block carries a checksum
  over the transaction, removing the pre-commit ordering wait.

ixt3 also *fixes* the ext3 bugs the study found: write errors are
checked (a failed write aborts the journal and remounts read-only,
``R_stop``, so failed transactions are never committed), ``truncate``
and ``rmdir`` propagate errors, and ``unlink`` sanity-checks the link
count instead of crashing.
"""

from __future__ import annotations

import stat as _stat
from functools import lru_cache
from typing import Dict, List, Optional

from repro.common.errors import CorruptionDetected, DiskError, Errno, FSError
from repro.common.xor import xor_all
from repro.fs.base import weakly
from repro.fs.ext3.ext3 import Ext3, _static_types_ext3
from repro.fs.ext3.structures import (
    FEAT_DATA_CSUM,
    FEAT_DATA_PARITY,
    FEAT_META_CSUM,
    FEAT_META_REPLICA,
    FEAT_TXN_CSUM,
    Inode,
)
from repro.fs.ixt3.features import REPLICA_MAP_BLOCKS, ChecksumStore, ReplicaMap

#: Block types whose contents are metadata (replicated and Mc-covered).
META_TYPES = frozenset(
    ["inode", "dir", "bitmap", "i-bitmap", "indirect", "super", "g-desc"]
)
#: Block types covered by data checksumming.
DATA_TYPES = frozenset(["data", "parity"])


@lru_cache(maxsize=16)
def _static_types_ixt3(cfg) -> List[Optional[str]]:
    """ext3's static table plus ixt3's redundancy regions (checksum
    and replica stores live between the journal and the block groups,
    at geometry-determined offsets)."""
    table = list(_static_types_ext3(cfg))
    for b in range(cfg.checksum_start,
                   cfg.checksum_start + cfg.checksum_blocks):
        table[b] = "cksum"
    for b in range(cfg.replica_start,
                   cfg.replica_start + cfg.replica_blocks):
        table[b] = "replica"
    return table


class Ixt3(Ext3):
    """ixt3 over a :class:`BlockDevice`; features come from the
    superblock written at mkfs time."""

    name = "ixt3"

    BLOCK_TYPES: Dict[str, str] = dict(Ext3.BLOCK_TYPES)
    BLOCK_TYPES.update({
        "cksum": "Checksums over metadata and data blocks",
        "replica": "Replicas of metadata blocks",
        "parity": "Per-file parity blocks",
    })

    SILENT_TRUNCATE_BUG = False
    SILENT_RMDIR_BUG = False
    UNLINK_LINKCOUNT_BUG = False

    def __init__(self, device, sync_mode: bool = True, commit_every: int = 64,
                 commit_stall_s: Optional[float] = None):
        super().__init__(device, sync_mode=sync_mode, commit_every=commit_every,
                         commit_stall_s=commit_stall_s)
        self.checksums: Optional[ChecksumStore] = None
        self.replicas: Optional[ReplicaMap] = None
        self._verifying = False
        #: Block kinds ("meta", "data") whose changes are checksummed,
        #: and those that carry any derived work (checksum or replica).
        self._checksummed = self._derived_kinds = frozenset()

    # -- feature flags --------------------------------------------------------

    @property
    def meta_csum(self) -> bool:
        return bool(self.sb and self.sb.features & FEAT_META_CSUM)

    @property
    def data_csum(self) -> bool:
        return bool(self.sb and self.sb.features & FEAT_DATA_CSUM)

    @property
    def meta_replica(self) -> bool:
        return bool(self.sb and self.sb.features & FEAT_META_REPLICA)

    @property
    def data_parity(self) -> bool:
        return bool(self.sb and self.sb.features & FEAT_DATA_PARITY)

    def _txn_checksum_enabled(self) -> bool:
        return bool(self.sb and self.sb.features & FEAT_TXN_CSUM)

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def mount(self) -> None:
        super().mount()
        cfg = self.config
        if cfg.checksum_blocks:
            self.checksums = ChecksumStore(
                region_start=cfg.checksum_start,
                region_blocks=cfg.checksum_blocks,
                block_size=self.block_size,
                read_block=weakly(self._plain_bread),
                journal_meta=self.journal.add_meta,
                settle=weakly(self._settle),
            )
            if self.meta_csum or self.data_csum:
                # Checksums are small and cached for read verification
                # (§6.1): one sequential sweep at mount warms the cache.
                with self._span("checksum-warm", "phase"):
                    for i in range(cfg.checksum_blocks):
                        try:
                            self.checksums._load(cfg.checksum_start + i)
                        except DiskError:
                            break
        if cfg.replica_blocks:
            self.replicas = ReplicaMap(
                region_start=cfg.replica_start,
                region_blocks=cfg.replica_blocks,
                map_blocks=REPLICA_MAP_BLOCKS,
                block_size=self.block_size,
                read_block=weakly(self._plain_bread),
                journal_meta=self.journal.add_meta,
            )
        self._checksummed = frozenset(
            kind for kind, on in (("meta", self.meta_csum), ("data", self.data_csum))
            if on and self.checksums is not None)
        self._derived_kinds = self._checksummed | (
            {"meta"} if self.meta_replica and self.replicas is not None else set())

    def _plain_bread(self, block: int) -> bytes:
        """Unverified read for the redundancy structures themselves."""
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            return cached
        return self.buf.bread(block)

    # ==================================================================
    # Write policy: check error codes; abort + remount-ro on failure
    # (R_stop).  This also fixes the ext3 commit-after-failed-journal-
    # write bug, since the abort squelches the rest of the transaction.
    # ==================================================================

    def _checked_write(self, block: int, data: bytes) -> None:
        try:
            self.buf.bwrite(block, data)
        except DiskError as exc:
            self.syslog.detection(self.name, "write-error",
                                  f"write failed: {exc}",
                                  mechanism="error-code", block=block)
            self._abort_journal()

    def _write_home(self, block: int, data: bytes) -> None:
        self._checked_write(block, data)

    def _write_journal_block(self, block: int, data: bytes) -> None:
        self._checked_write(block, data)

    def _write_ordered(self, block: int, data: bytes) -> None:
        self._checked_write(block, data)

    # ==================================================================
    # Detection: checksum verification on every covered read
    # ==================================================================

    def _block_kind(self, block: int) -> Optional[str]:
        btype = self.block_type(block)
        if btype in META_TYPES:
            return "meta"
        if btype in DATA_TYPES:
            return "data"
        return None

    def _read_with_verify(self, block: int) -> bytes:
        data = self.buf.bread(block)
        if self._verifying or self.checksums is None:
            return data
        kind = self._block_kind(block)
        wanted = (kind == "meta" and self.meta_csum) or (
            kind == "data" and self.data_csum
        )
        if not wanted:
            return data
        self._verifying = True
        try:
            ok = self.checksums.verify(block, data)
        except DiskError:
            # The checksum block itself was unreadable; the read cannot
            # be verified but is not failed.
            self.syslog.warning(self.name, "cksum-unavailable",
                                f"cannot verify block {block}", block=block)
            return data
        finally:
            self._verifying = False
        if ok:
            return data
        self.syslog.detection(self.name, "checksum-mismatch",
                              f"block {block} fails checksum verification",
                              mechanism="redundancy", block=block)
        raise CorruptionDetected(block, "checksum mismatch")

    def _on_block_contents_change(self, block: int, data: bytes, kind: str) -> None:
        # Checksum and replica work runs at a block's first change in the
        # transaction, so slots are assigned and checksum and replica
        # blocks join it where they always did.  A later change of the
        # same kind marks the block pending for _settle.
        if kind not in self._derived_kinds:
            return
        txn = self.journal.begin()
        done = txn.derived.get(block)
        if done is not None:
            if done[0] == kind:
                txn.pending.add(block)
                return
            self._settle(block)
        if kind in self._checksummed:
            self.checksums.update(block, data)
        replica = None
        if kind == "meta" and self.meta_replica and self.replicas is not None:
            try:
                replica = self.replicas.assign(block)
            except DiskError as exc:
                # The replica map itself is unreadable: run degraded (and
                # so, unrecorded, try again at every change).
                self.syslog.warning(self.name, "replica-unavailable",
                                    f"cannot update replica map: {exc}", block=block)
                return
            if replica is None:
                self.syslog.warning(self.name, "replica-full",
                                    "replica region exhausted", block=block)
                return
            # The replica copy goes to the *separate replica log* in a
            # distant region (§6.1), ordered before the commit block so
            # both copies are consistent at every commit point.
            self.journal.add_ordered(replica, data)
        txn.derived[block] = (kind, replica)

    def _settle(self, block: Optional[int] = None) -> None:
        """Redo the pending checksum and replica work from final contents:
        all of it, or *block*'s before it is revoked or read past the log."""
        super()._settle(block)
        txn = self.journal.current
        if txn is None or not txn.pending:
            return
        if block is None:
            blocks = list(txn.pending)
            txn.pending.clear()
        elif block in txn.pending:
            txn.pending.discard(block)
            blocks = [block]
        else:
            return
        for b in blocks:
            kind, replica = txn.derived[b]
            data = txn.meta[b] if kind == "meta" else txn.ordered[b]
            if kind in self._checksummed:
                self.checksums.update(b, data)
            if replica is not None:
                self.journal.add_ordered(replica, data)

    def _sb_gdt_journaled(self, txn) -> bool:
        # A superblock or GDT whose replica could not be placed redoes
        # its work, and its warning, at every change.
        return super()._sb_gdt_journaled(txn) and (
            "meta" not in self._derived_kinds
            or (0 in txn.derived and self.config.gdt_block in txn.derived))

    # ==================================================================
    # Recovery: replicas for metadata, parity for data (R_redundancy)
    # ==================================================================

    def _recover_meta_read(self, block: int, exc: Exception) -> Optional[bytes]:
        if not self.meta_replica or self.replicas is None:
            return None
        self._settle(block)
        try:
            replica = self.replicas.replica_block_of(block)
        except DiskError:
            return None
        if replica is None:
            return None
        try:
            data = self._plain_bread(replica)
        except DiskError as exc2:
            self.syslog.detection(self.name, "read-error",
                                  f"replica read failed: {exc2}",
                                  mechanism="error-code", block=replica)
            return None
        if self.meta_csum and self.checksums is not None:
            self._verifying = True
            try:
                if not self.checksums.verify(block, data):
                    self.syslog.detection(self.name, "checksum-mismatch",
                                          f"replica of block {block} also corrupt",
                                          mechanism="redundancy", block=replica)
                    return None
            except DiskError:
                pass
            finally:
                self._verifying = False
        self.syslog.recovery(self.name, "redundancy-used",
                             f"recovered block {block} from replica {replica}",
                             mechanism="redundancy", block=block)
        # Repair the home copy within the running transaction.
        self.journal.add_meta(block, data)
        return data

    def _recover_data_read(self, ino: int, inode: Inode, file_block: int,
                           block: int, exc: Exception) -> Optional[bytes]:
        if not self.data_parity or inode.parity_block == 0:
            return None
        reconstructed = self._reconstruct_from_parity(inode, skip_block=block)
        if reconstructed is None:
            return None
        self.syslog.recovery(self.name, "redundancy-used",
                             f"reconstructed block {block} from parity",
                             mechanism="redundancy", block=block)
        return reconstructed

    def _reconstruct_from_parity(self, inode: Inode, skip_block: int) -> Optional[bytes]:
        """XOR the parity block with every other data block of the file."""
        bs = self.block_size
        try:
            blocks = [self._plain_bread(inode.parity_block)]
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"parity read failed: {exc}",
                                  mechanism="error-code", block=inode.parity_block)
            return None
        nblocks = (inode.size + bs - 1) // bs
        for fb in range(nblocks):
            try:
                bno, _ = self._bmap(inode, fb, allocate=False)
            except FSError:
                return None
            if bno == 0 or bno == skip_block:
                continue
            try:
                blocks.append(self._plain_bread(bno))
            except DiskError:
                # Parity tolerates exactly one lost block per file.
                return None
        return xor_all(blocks)

    # ==================================================================
    # Parity maintenance (Dp)
    # ==================================================================

    def _alloc_inode(self, hint_group: int, mode: int) -> int:
        ino = super()._alloc_inode(hint_group, mode)
        # Preallocate the parity block at creation time (§6.1) for
        # regular files.
        if self.data_parity and _stat.S_ISREG(mode):
            inode = self._node_get(ino)
            inode.parity_block = self._alloc_block(0, "parity")
            zero = b"\x00" * self.block_size
            self._data_update(inode.parity_block, zero)
            self._node_put(ino, inode)
        return ino

    def _update_parity(self, ino: int, inode: Inode, file_block: int,
                       block: int, new_payload: bytes, fresh: bool = False) -> None:
        if not self.data_parity or inode.parity_block == 0:
            return
        bs = self.block_size
        if fresh:
            old = b"\x00" * bs  # just allocated: prior contents are zero
        else:
            try:
                old = self._plain_bread(block)
            except DiskError:
                old = b"\x00" * bs
        try:
            parity = self._plain_bread(inode.parity_block)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"parity read failed during update: {exc}",
                                  mechanism="error-code", block=inode.parity_block)
            self._abort_journal()
            raise FSError(Errno.EIO, "cannot update parity") from exc
        frozen = xor_all((parity, old, new_payload))
        # Parity goes out with the ordered data writes; the elevator
        # batches all parity updates of a transaction into one pass.
        self._data_update(inode.parity_block, frozen)

    def _meta_bound(self, n: int) -> int:
        # Each metadata block may bring its checksum block and the
        # replica map; each data block its checksum block.
        return 2 * super()._meta_bound(n) + n + REPLICA_MAP_BLOCKS

    def _restore_capacity(self, state) -> None:
        super()._restore_capacity(state)
        # Reloaded on demand from the restored transaction and the disk.
        for store in (self.checksums, self.replicas):
            if store is not None:
                store.drop_cache()

    def _release_parity(self, ino: int, inode: Inode) -> None:
        if inode.parity_block:
            if self.checksums is not None and self.data_csum:
                # Its digest is cleared, not brought up to date.
                self.journal.begin().pending.discard(inode.parity_block)
                self.checksums.forget(inode.parity_block)
            self._free_block(inode.parity_block, "parity")
            inode.parity_block = 0

    def _node_shrink(self, ino: int, inode: Inode, new_size: int,
                     kind: str = "data") -> None:
        super()._node_shrink(ino, inode, new_size, kind)
        # Parity covers the remaining blocks; recompute it.
        if self.data_parity and inode.parity_block and kind == "data":
            try:
                self._data_update(inode.parity_block,
                                  self._file_parity(inode, new_size))
            except DiskError:
                pass

    def _file_parity(self, inode: Inode, size: int) -> bytes:
        """XOR of the file's data blocks up to *size* (DiskError when
        one cannot be read)."""
        blocks = [b"\x00" * self.block_size]
        for fb in range((size + self.block_size - 1) // self.block_size):
            bno, _ = self._bmap(inode, fb, allocate=False)
            if bno:
                blocks.append(self._plain_bread(bno))
        return xor_all(blocks)

    # ==================================================================
    # Eager detection: in-file-system scrubbing (§3.2)
    # ==================================================================

    def scrub(self) -> Dict[str, int]:
        """Walk every covered block, verifying checksums and probing
        for latent sector errors; recover damaged blocks from replicas
        or parity and rewrite the repaired home copy.

        §3.2: scrubbing is "particularly valuable if a means for
        recovery is available" — which is exactly what Mr/Dp provide.
        Returns counters: scanned / latent / corrupt / repaired / lost.
        """
        self._ensure_mounted()
        stats = {"scanned": 0, "latent": 0, "corrupt": 0,
                 "repaired": 0, "lost": 0}
        cfg = self.config
        self.journal.begin()
        for block in range(cfg.groups_start, cfg.total_blocks):
            kind = self._block_kind(block)
            if kind is None:
                continue
            stats["scanned"] += 1
            damaged = False
            try:
                self._read_with_verify(block)
            except CorruptionDetected:
                stats["corrupt"] += 1
                damaged = True
            except DiskError:
                stats["latent"] += 1
                damaged = True
            if not damaged:
                continue
            recovered = self._scrub_recover(block, kind)
            if recovered is None:
                stats["lost"] += 1
                self.syslog.error(self.name, "scrub-loss",
                                  f"block {block} unrecoverable", block=block)
            else:
                stats["repaired"] += 1
        if not self._read_only:
            self.journal.commit()
            self.journal.checkpoint()
        self.syslog.info(self.name, "scrub-complete",
                         f"scanned {stats['scanned']}, repaired {stats['repaired']}, "
                         f"lost {stats['lost']}")
        return stats

    def _scrub_recover(self, block: int, kind: str) -> Optional[bytes]:
        if kind == "meta":
            return self._recover_meta_read(block, None)
        if self.block_type(block) == "parity":
            return self._rebuild_parity_block(block)
        # Data block: find the owning inode and rebuild from parity.
        owner = self._owner_of(block)
        if owner is None:
            return None
        ino, inode, file_block = owner
        data = self._recover_data_read(ino, inode, file_block, block, None)
        if data is not None:
            # Rewrite the repaired home copy with the transaction.
            self._data_update(block, data)
        return data

    def _rebuild_parity_block(self, block: int) -> Optional[bytes]:
        """Recompute a damaged parity block from its file's data."""
        cfg = self.config
        for ino in range(1, cfg.total_inodes + 1):
            try:
                inode = self._node_get(ino)
            except FSError:
                continue
            if not inode.is_allocated or inode.parity_block != block:
                continue
            try:
                frozen = self._file_parity(inode, inode.size)
            except (FSError, DiskError):
                return None  # cannot rebuild with a second failure
            self._data_update(block, frozen)
            return frozen
        return None

    def _owner_of(self, block: int):
        """(ino, inode, file block index) of the file owning *block*."""
        cfg = self.config
        for ino in range(1, cfg.total_inodes + 1):
            try:
                inode = self._node_get(ino)
            except FSError:
                continue
            if not inode.is_allocated:
                continue
            if inode.parity_block == block:
                return None  # parity itself: rebuilt lazily from data
            nblocks = (inode.size + self.block_size - 1) // self.block_size
            for fb in range(nblocks):
                try:
                    bno, _ = self._bmap(inode, fb, allocate=False)
                except FSError:
                    break
                if bno == block:
                    return ino, inode, fb
        return None

    # ==================================================================
    # Gray-box oracle additions
    # ==================================================================

    @staticmethod
    def _static_type_table(cfg):
        return _static_types_ixt3(cfg)

    def redundancy_types(self) -> List[str]:
        return ["replica", "parity"]
