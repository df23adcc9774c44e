"""IBM JFS, as characterized by the study (§5.3) — "the kitchen sink".

JFS is the least consistent system in the study: its detection and
recovery choices vary dramatically with block type.  As code paths:

* **Reads**: error codes are checked; all metadata reads go through the
  *generic* kernel layer, which retries once (``R_retry``) — the split
  between generic and specific code that the paper blames for policy
  diffusion.  After the retry: most reads propagate (``R_propagate``);
  a failed block-allocation-map or inode-allocation-map page read
  *crashes the system* (``R_stop``); a failed primary-superblock read
  falls back to the adjacent secondary copy (``R_redundancy``); a
  failed aggregate-inode read does **not** use the secondary aggregate
  inode table (bug).
* **Writes**: ignored (``D_zero``) — except a journal-superblock write
  failure, which crashes the system (``R_stop``).
* **Sanity**: superblock magic+version; entry/pointer counts in inode,
  directory and internal tree blocks; an equality check on the
  duplicated free-count field of allocation-map pages.  A failed check
  propagates the error and remounts read-only; during journal replay it
  aborts the replay.
* **Documented bugs reproduced here**: a corrupt *primary* superblock
  fails the mount without consulting the intact secondary (while a
  primary read *error* does use it); an internal tree block that fails
  its sanity check yields a **blank page** to the user (``R_guess``);
  and in inode allocation the generic layer detects and retries a
  failed inode-map-control read but JFS ignores the error and proceeds
  with a zeroed buffer, corrupting the file system.
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
    KernelPanic,
)
from repro.common.structs import U32x2
from repro.common.syslog import Severity
from repro.fs.base import JournaledFS
from repro.fs.jfs.config import JFSConfig
from repro.fs.jfs.journal import RecordJournal
from repro.fs.jfs.structures import (
    AggregateInode,
    JFSInode,
    JFSSuper,
    check_inode_block,
    iter_allocated_inodes,
    pack_dir_block,
    pack_map_block,
    pack_tree_block,
    unpack_dir_block,
    unpack_map_block,
    unpack_tree_block,
)

ROOT_INO = 2


class JFS(JournaledFS):
    """IBM JFS over a :class:`BlockDevice`."""

    name = "jfs"
    ROOT = ROOT_INO

    #: Table 4: JFS on-disk structures.
    BLOCK_TYPES: Dict[str, str] = {
        "inode": "Info about files and directories",
        "dir": "List of files in directory",
        "bmap": "Tracks data blocks per group",
        "imap": "Tracks inodes per group",
        "internal": "Allows for large files to exist",
        "data": "Holds user data",
        "super": "Contains info about file system",
        "j-super": "Describes journal",
        "j-data": "Contains records of transactions",
        "aggr-inode": "Contains info about disk partition",
        "bmap-desc": "Describes block allocation map",
        "imap-cntl": "Summary info about imaps",
    }

    #: The generic layer JFS calls retries metadata reads once (§5.3).
    GENERIC_READ_RETRIES = 1

    def __init__(self, device, sync_mode: bool = True, commit_every: int = 64,
                 commit_stall_s: Optional[float] = None):
        super().__init__(device, sync_mode=sync_mode, commit_every=commit_every,
                         commit_stall_s=commit_stall_s)
        self.sb: Optional[JFSSuper] = None
        self.config: Optional[JFSConfig] = None
        self.aggr: Optional[AggregateInode] = None
        self.journal: Optional[RecordJournal] = None

    # ==================================================================
    # Failure-policy write hooks
    # ==================================================================

    def _write_nocheck(self, block: int, data: bytes) -> None:
        # Most JFS write errors are ignored (D_zero, §5.3).
        self.buf.bwrite_nocheck(block, data)

    def _write_logsuper(self, block: int, data: bytes) -> None:
        # ... except the journal superblock: failure crashes (R_stop).
        try:
            self.buf.bwrite(block, data, retries=0)
        except DiskError as exc:
            self.syslog.detection(self.name, "write-error",
                                  f"journal superblock write failed: {exc}",
                                  mechanism="error-code",
                                  severity=Severity.CRITICAL, block=block)
            raise KernelPanic("jfs", "cannot update journal superblock") from exc

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def mount(self) -> None:
        if self._mounted:
            raise FSError(Errno.EINVAL, "already mounted")
        sb = self._read_superblock()
        self.sb = sb
        self.config = JFSConfig(
            block_size=sb.block_size,
            total_blocks=sb.total_blocks,
            journal_blocks=sb.journal_blocks,
            num_inodes=sb.num_inodes,
            num_direct=sb.num_direct,
            tree_fanout=sb.tree_fanout,
        )
        self.aggr = self._read_aggregate_inode()
        self._read_bmap_descriptor()
        self.journal = RecordJournal(
            super_block=self.config.journal_super,
            data_start=self.config.journal_data_start,
            nblocks=self.config.journal_blocks,
            block_size=self.block_size,
            syslog=self.syslog,
            super_write=self._write_logsuper,
            record_write=self._write_nocheck,
            home_write=self._write_nocheck,
            read_block=self.buf.bread,
            stall=self._stall,
            commit_stall_s=self.commit_stall_s,
        )
        self._relearn_types()
        try:
            with self._span("journal-replay", "txn"):
                self.journal.recover()
        except CorruptionDetected as exc:
            # A sanity-check failure during replay aborts the replay
            # (R_stop) and the volume comes up read-only (§5.3).
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=exc.block)
            self.syslog.action(self.name, "remount-ro", "journal replay aborted")
            self.journal.abort()
            self._read_only = True
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"journal unreadable during recovery: {exc}",
                                  mechanism="error-code")
            self.syslog.action(self.name, "remount-ro", "journal replay aborted")
            self.journal.abort()
            self._read_only = True
        self._mounted = True
        self._relearn_types()

    def _read_superblock(self) -> JFSSuper:
        try:
            raw = self.buf.bread(0)
        except DiskError as exc:
            # Read *error* on the primary: fall back to the secondary
            # copy (R_redundancy) to complete the mount (§5.3).
            self.syslog.detection(self.name, "read-error",
                                  f"primary superblock unreadable: {exc}",
                                  mechanism="error-code", block=0)
            try:
                raw = self.buf.bread(1)
            except DiskError as exc2:
                self.syslog.action(self.name, "mount-failed", "both superblocks unreadable")
                raise FSError(Errno.EIO, "cannot read superblock") from exc2
            sb = JFSSuper.unpack(raw)
            if sb.is_valid():
                self.syslog.recovery(self.name, "redundancy-used",
                                     "mounted from secondary superblock",
                                     mechanism="redundancy")
                return sb
            raise FSError(Errno.EUCLEAN, "secondary superblock invalid")
        sb = JFSSuper.unpack(raw)
        if not sb.is_valid():
            # The paper's inconsistency (§5.3): a *corrupt* primary is
            # not recovered from the secondary — the mount just fails.
            self.syslog.detection(self.name, "sanity-fail", "bad superblock magic",
                                  mechanism="sanity", block=0)
            self.syslog.action(self.name, "mount-failed",
                               "primary superblock corrupt; secondary not consulted")
            raise FSError(Errno.EUCLEAN, "bad superblock")
        return sb

    def _read_aggregate_inode(self) -> AggregateInode:
        cfg = self.config
        try:
            raw = self.buf.bread(cfg.aggr_inode_block)
        except DiskError as exc:
            # Bug (§5.3): the secondary aggregate inode table exists but
            # is not consulted when the primary read returns an error.
            self.syslog.detection(self.name, "read-error",
                                  f"aggregate inode unreadable: {exc}",
                                  mechanism="error-code",
                                  block=cfg.aggr_inode_block)
            raise FSError(Errno.EIO, "cannot read aggregate inode") from exc
        aggr = AggregateInode.unpack(raw)
        if not aggr.is_valid():
            self.syslog.detection(self.name, "sanity-fail", "aggregate inode magic bad",
                                  mechanism="sanity", block=cfg.aggr_inode_block)
            raise FSError(Errno.EUCLEAN, "aggregate inode corrupt")
        return aggr

    def _read_bmap_descriptor(self) -> None:
        cfg = self.config
        try:
            self.buf.bread(cfg.bmap_desc_block)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"bmap descriptor unreadable: {exc}",
                                  mechanism="error-code",
                                  block=cfg.bmap_desc_block)
            raise FSError(Errno.EIO, "cannot read bmap descriptor") from exc

    def _mark_clean(self) -> None:
        self.sb.generation += 1
        self._write_nocheck(0, self.sb.pack(self.block_size))

    def crash_after(self, ops) -> None:
        self._ensure_mounted()
        self.sync()
        saved = self.sync_mode
        self.sync_mode = False
        try:
            ops(self)
            self.journal.commit()
        finally:
            self.sync_mode = saved
        self.crash()

    # ==================================================================
    # Data path (the block-map primitives of the generic layer)
    # ==================================================================

    @property
    def _max_file_bytes(self) -> int:
        return self.config.max_file_blocks * self.block_size

    def _file_block_map(self, ino: int, inode: JFSInode, fb: int) -> Tuple[int, bool]:
        before = inode.nblocks
        return self._bmap(ino, inode, fb, allocate=True), inode.nblocks != before

    def _file_block_store(self, ino: int, inode: JFSInode, fb: int, bno: int,
                          payload: bytes, fresh: bool) -> None:
        # JFS does not journal user data; in-place write, errors
        # ignored (D_zero).
        self._set_type(bno, "data")
        self._write_nocheck(bno, payload)

    def _space_counts(self) -> Tuple[int, int, int, int]:
        return (self.sb.total_blocks, self.sb.free_blocks,
                self.sb.num_inodes, self.sb.free_inodes)

    # ==================================================================
    # Inodes
    # ==================================================================

    def _node_get(self, ino: int) -> JFSInode:
        if not 1 <= ino <= self.sb.num_inodes:
            raise FSError(Errno.EUCLEAN, f"inode number {ino} out of range")
        block, off = self.config.inode_location(ino)
        raw = self._meta_bread(block, check="inode")
        return JFSInode.unpack(raw[off:off + self.config.inode_size])

    def _node_put(self, ino: int, inode: JFSInode) -> None:
        block, off = self.config.inode_location(ino)
        raw = bytearray(self._meta_bread(block, check="inode"))
        raw[off:off + self.config.inode_size] = inode.pack(self.config.inode_size)
        # Refresh the header count.
        count = sum(1 for _ in iter_allocated_inodes(
            raw, self.config.inodes_per_block, self.config.inode_size))
        raw[0:8] = U32x2.pack(count, 0)
        self._meta_update(block, bytes(raw))

    def _node_create(self, parent_ino: int, mode: int) -> int:
        return self._alloc_inode(mode)

    def _node_drop(self, ino: int, inode: JFSInode) -> None:
        self._node_shrink(ino, inode, 0)
        self._free_inode(ino)

    def _read_link(self, ino: int, inode: JFSInode) -> str:
        body = self._file_block_read(ino, inode, 0)
        return body[:inode.size].decode(errors="replace")

    # ==================================================================
    # Directories (the block-list primitives of the generic layer)
    # ==================================================================

    def _dir_blocks(self, ino: int, inode: JFSInode):
        # Directory ops on a non-directory must fail with ENOTDIR —
        # parsing file data as dirents would trip the sanity checks and
        # fail-stop the volume over a merely bad path.
        if not _stat.S_ISDIR(inode.mode):
            raise FSError(Errno.ENOTDIR, "not a directory")
        bs = self.block_size
        for fb in range((inode.size + bs - 1) // bs):
            bno = self._bmap(ino, inode, fb, allocate=False)
            if bno:
                yield bno

    def _dir_block_load(self, bno: int,
                        modifying: bool = False) -> List[Tuple[int, int, str]]:
        raw = self._meta_bread(bno, check="dir")
        try:
            return unpack_dir_block(raw, bno, self.block_size)
        except CorruptionDetected as exc:
            # Sanity failure: propagate and remount read-only (§5.3).
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=bno)
            self._remount_ro()
            raise FSError(Errno.EUCLEAN, str(exc)) from exc

    def _dir_block_store(self, bno: int, entries) -> None:
        self._meta_update(bno, pack_dir_block(entries, self.block_size))

    def _dir_block_fits(self, entries, name: str) -> bool:
        used = 8 + sum(6 + len(n.encode("latin-1", errors="replace")[:255])
                       for _, _, n in entries)
        return used + 6 + len(name.encode()) <= self.block_size

    def _dir_block_map(self, ino: int, inode: JFSInode, fb: int) -> int:
        return self._bmap(ino, inode, fb, allocate=True, kind="dir")

    def _dir_child_in_range(self, ino: int) -> bool:
        return 0 < ino <= self.sb.num_inodes

    def _dir_lookup_scan(self, ino: int, inode: Optional[JFSInode]):
        # The caller's copy goes unused: this code has always re-read
        # the directory inode, and the fingerprints count that read.
        return map(self._dir_block_load,
                   self._dir_blocks(ino, self._node_get(ino)))

    # ==================================================================
    # Extent tree (file block mapping)
    # ==================================================================

    def _bmap(self, ino: int, inode: JFSInode, idx: int, allocate: bool,
              kind: str = "data", raw_sanity: bool = False) -> int:
        """Map file block *idx*.  A sanity failure on an internal tree
        block normally propagates as EUCLEAN and remounts read-only;
        ``raw_sanity`` lets the data-read path intercept it to apply the
        blank-page bug instead."""
        try:
            return self._bmap_inner(ino, inode, idx, allocate, kind)
        except CorruptionDetected as exc:
            if raw_sanity:
                raise
            self._remount_ro()
            raise FSError(Errno.EUCLEAN, str(exc)) from exc

    def _bmap_inner(self, ino: int, inode: JFSInode, idx: int, allocate: bool,
                    kind: str = "data") -> int:
        cfg = self.config
        if idx < cfg.num_direct:
            if inode.direct[idx] == 0 and allocate:
                inode.direct[idx] = self._alloc_block(kind)
                inode.nblocks += 1
                self._node_put(ino, inode)
            return inode.direct[idx]
        idx -= cfg.num_direct
        f = cfg.tree_fanout
        if idx >= f * f:
            raise FSError(Errno.EFBIG, "file block beyond extent tree")
        if inode.tree_root == 0:
            if not allocate:
                return 0
            inode.tree_root = self._alloc_block("internal")
            inode.tree_levels = 1
            self._meta_update(inode.tree_root,
                              pack_tree_block(1, [], self.block_size, f))
            self._set_type(inode.tree_root, "internal")
            self._node_put(ino, inode)
        if idx >= f and inode.tree_levels == 1:
            if not allocate:
                return 0
            # Grow the tree: new level-2 root over the old root.
            new_root = self._alloc_block("internal")
            self._meta_update(new_root, pack_tree_block(
                2, [inode.tree_root], self.block_size, f))
            self._set_type(new_root, "internal")
            inode.tree_root = new_root
            inode.tree_levels = 2
            self._node_put(ino, inode)
        return self._tree_walk(ino, inode, inode.tree_root, inode.tree_levels,
                               idx, allocate, kind)

    def _tree_walk(self, ino: int, inode: JFSInode, block: int, level: int,
                   idx: int, allocate: bool, kind: str) -> int:
        f = self.config.tree_fanout
        raw = self._meta_bread(block, check="internal")
        blevel, ptrs = self._parse_tree(raw, block)
        if level == 1:
            if idx < len(ptrs) and ptrs[idx]:
                return ptrs[idx]
            if not allocate:
                return 0
            while len(ptrs) <= idx:
                ptrs.append(0)
            new_block = self._alloc_block(kind) if level == 1 else 0
            ptrs[idx] = new_block
            self._meta_update(block, pack_tree_block(1, ptrs, self.block_size, f))
            inode.nblocks += 1
            self._node_put(ino, inode)
            return new_block
        slot, sub = divmod(idx, f)
        if slot >= len(ptrs) or ptrs[slot] == 0:
            if not allocate:
                return 0
            child = self._alloc_block("internal")
            self._meta_update(child, pack_tree_block(
                level - 1, [], self.block_size, f))
            self._set_type(child, "internal")
            while len(ptrs) <= slot:
                ptrs.append(0)
            ptrs[slot] = child
            self._meta_update(block, pack_tree_block(level, ptrs, self.block_size, f))
        return self._tree_walk(ino, inode, ptrs[slot], level - 1, sub, allocate, kind)

    def _parse_tree(self, raw: bytes, block: int) -> Tuple[int, List[int]]:
        try:
            return unpack_tree_block(raw, block, self.config.tree_fanout)
        except CorruptionDetected as exc:
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=block)
            raise

    def _file_block_read(self, ino: int, inode: JFSInode, fb: int,
                         readahead: bool = False, modifying: bool = False,
                         bno: int = 0) -> bytes:
        # A block the caller has just mapped is mapped again here: the
        # write path has always walked the tree twice, and the
        # fingerprints count those reads.
        bs = self.block_size
        try:
            bno = self._bmap(ino, inode, fb, allocate=False, raw_sanity=True)
        except CorruptionDetected:
            # The paper's bug (§5.3): a failed sanity check on an
            # internal tree block returns a *blank page* to the user
            # (R_guess) instead of an error.
            return b"\x00" * bs
        if bno == 0:
            return b"\x00" * bs
        cached = self.journal.cached(bno) if self.journal else None
        if cached is not None:
            return cached
        try:
            return self.buf.bread(bno)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"data read failed: {exc}",
                                  mechanism="error-code", block=bno)
            raise FSError(Errno.EIO, f"data block {bno} unreadable") from exc

    def _node_shrink(self, ino: int, inode: JFSInode, new_size: int) -> None:
        bs = self.block_size
        keep = (new_size + bs - 1) // bs
        cfg = self.config
        for i in range(keep, cfg.num_direct):
            if inode.direct[i]:
                self._free_block(inode.direct[i])
                inode.direct[i] = 0
                inode.nblocks = max(inode.nblocks - 1, 0)
        if inode.tree_root and keep <= cfg.num_direct:
            try:
                self._free_tree(inode.tree_root, inode.tree_levels)
            except FSError:
                self.syslog.warning(self.name, "ignored-error",
                                    "tree read failure during shrink; blocks leaked")
            inode.tree_root = 0
            inode.tree_levels = 0
        self._node_put(ino, inode)

    def _free_tree(self, block: int, level: int) -> None:
        raw = self._meta_bread(block, check="internal")
        try:
            _, ptrs = unpack_tree_block(raw, block, self.config.tree_fanout)
        except CorruptionDetected:
            ptrs = []
        for ptr in ptrs:
            if not ptr:
                continue
            if level > 1:
                self._free_tree(ptr, level - 1)
            else:
                self._free_block(ptr)
        self._free_block(block)

    # ==================================================================
    # Read / update policy
    # ==================================================================

    def _meta_bread(self, block: int, check: Optional[str] = None) -> bytes:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            raw = cached
        else:
            try:
                # All metadata reads go through the generic layer, which
                # retries once (§5.3).
                raw = self.buf.bread(block)
            except DiskError as exc:
                btype = self.block_type(block)
                self.syslog.detection(self.name, "read-error",
                                      f"metadata read failed: {exc}",
                                      mechanism="error-code", block=block)
                if btype in ("bmap", "imap"):
                    # Allocation-map read failure crashes the system (§5.3).
                    raise KernelPanic("jfs", f"cannot read allocation map block {block}") from exc
                raise FSError(Errno.EIO, f"metadata block {block} unreadable") from exc
        if check == "inode":
            try:
                check_inode_block(raw, block, self.config.inodes_per_block)
            except CorruptionDetected as exc:
                self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=block)
                self._remount_ro()
                raise FSError(Errno.EUCLEAN, str(exc)) from exc
        return raw

    def _meta_update(self, block: int, new_payload: bytes) -> None:
        old: Optional[bytes] = None
        cached = self.journal.cached(block)
        if cached is not None:
            old = cached
        else:
            try:
                old = self.buf.bread(block, retries=0)
            except DiskError:
                old = None
        self.journal.log(block, new_payload, old)

    def _remount_ro(self) -> None:
        if self._read_only:
            return
        self._read_only = True
        if self.journal is not None:
            self.journal.abort()
        self.syslog.action(self.name, "remount-ro", "remounting file system read-only")

    # ==================================================================
    # Allocation
    # ==================================================================

    def _map_bits_per_block(self) -> int:
        return (self.block_size - 16) * 8

    def _read_map(self, block: int, nbits: int) -> Bitmap:
        raw = self._meta_bread(block)
        try:
            return unpack_map_block(raw, block, nbits)
        except CorruptionDetected as exc:
            # JFS's equality check caught map corruption (§5.3).
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=block)
            self._remount_ro()
            raise FSError(Errno.EUCLEAN, str(exc)) from exc

    def _alloc_block(self, kind: str) -> int:
        cfg = self.config
        bits = self._map_bits_per_block()
        for page in range(cfg.bmap_blocks):
            map_block = cfg.bmap_start + page
            bmp = self._read_map(map_block, bits)
            start = max(cfg.data_start - page * bits, 0)
            bit = bmp.find_free(start)
            if bit is None:
                continue
            absolute = page * bits + bit
            if absolute >= cfg.total_blocks:
                continue
            bmp.set(bit)
            self._meta_update(map_block, pack_map_block(bmp, self.block_size))
            self.sb.free_blocks -= 1
            self._flush_super()
            self._set_type(absolute, kind)
            return absolute
        raise FSError(Errno.ENOSPC, "out of disk space")

    def _free_block(self, block: int) -> None:
        cfg = self.config
        if not cfg.data_start <= block < cfg.total_blocks:
            return
        bits = self._map_bits_per_block()
        page, bit = divmod(block, bits)
        map_block = cfg.bmap_start + page
        bmp = self._read_map(map_block, bits)
        if bmp.test(bit):
            bmp.clear(bit)
            self._meta_update(map_block, pack_map_block(bmp, self.block_size))
            self.sb.free_blocks += 1
            self._flush_super()
        self._forget_type(block)

    def _alloc_inode(self, mode: int) -> int:
        cfg = self.config
        # The paper's bug (§5.3): the generic layer detects and retries a
        # failed inode-map-control read, but JFS ignores the error and
        # proceeds with a zeroed buffer, corrupting the file system.
        try:
            self.buf.bread(cfg.imap_control_block)
        except DiskError:
            pass  # error deliberately ignored (the bug)
        bits = self._map_bits_per_block()
        for page in range(cfg.imap_blocks):
            map_block = cfg.imap_start + page
            bmp = self._read_map(map_block, bits)
            bit = bmp.find_free()
            if bit is None:
                continue
            idx = page * bits + bit
            if idx >= cfg.num_inodes:
                continue
            bmp.set(bit)
            self._meta_update(map_block, pack_map_block(bmp, self.block_size))
            self.sb.free_inodes -= 1
            self._flush_super()
            self._update_imap_control()
            ino = idx + 1
            inode = JFSInode(mode=mode, links=1, atime=1.0, mtime=1.0, ctime=1.0)
            self._node_put(ino, inode)
            return ino
        raise FSError(Errno.ENOSPC, "out of inodes")

    def _free_inode(self, ino: int) -> None:
        cfg = self.config
        bits = self._map_bits_per_block()
        page, bit = divmod(ino - 1, bits)
        map_block = cfg.imap_start + page
        bmp = self._read_map(map_block, bits)
        if bmp.test(bit):
            bmp.clear(bit)
            self._meta_update(map_block, pack_map_block(bmp, self.block_size))
            self.sb.free_inodes += 1
            self._flush_super()
        self._node_put(ino, JFSInode())
        self._update_imap_control()

    def _update_imap_control(self) -> None:
        from repro.fs.jfs.structures import pack_imap_control
        self._meta_update(self.config.imap_control_block, pack_imap_control(
            self.sb.num_inodes, self.sb.free_inodes, 0, self.block_size))

    def _flush_super(self) -> None:
        # Only the primary superblock is kept current; the secondary
        # was written at mkfs time.
        self._meta_update(0, self.sb.pack(self.block_size))

    # ==================================================================
    # Gray-box: block-type oracle
    # ==================================================================

    def block_type(self, block: int) -> Optional[str]:
        cfg = self.config
        if cfg is None:
            return None
        if block in (0, 1):
            return "super"
        if block == cfg.journal_super:
            return "j-super"
        if cfg.journal_data_start <= block < cfg.journal_data_start + cfg.journal_blocks:
            return "j-data"
        if block in (cfg.aggr_inode_block, cfg.aggr_inode_secondary):
            return "aggr-inode"
        if block == cfg.bmap_desc_block:
            return "bmap-desc"
        if cfg.bmap_start <= block < cfg.bmap_start + cfg.bmap_blocks:
            return "bmap"
        if block == cfg.imap_control_block:
            return "imap-cntl"
        if cfg.imap_start <= block < cfg.imap_start + cfg.imap_blocks:
            return "imap"
        if cfg.inode_table_start <= block < cfg.inode_table_start + cfg.inode_table_blocks:
            return "inode"
        return self._type_of(block)

    def redundancy_types(self) -> List[str]:
        return ["super"]

    def _types_key(self) -> tuple:
        return (self.config,)

    def _walk_types(self, peek) -> Tuple[Dict[int, str], Dict[int, str]]:
        # Journal-region roles are fixed by layout: no jtypes.
        (cfg,) = self._walk_key(peek)
        types: Dict[int, str] = {}
        for block in range(cfg.inode_table_start, cfg.data_start):
            payload = peek(block)
            for f in iter_allocated_inodes(
                    payload, cfg.inodes_per_block, cfg.inode_size):
                kind = "dir" if _stat.S_ISDIR(f[0]) else "data"
                for bno in f[8:16]:
                    if bno:
                        types[bno] = kind
                if f[16]:
                    self._label_tree(f[16], f[17], kind, cfg.tree_fanout,
                                     types, peek)
        return types, {}

    def _label_tree(self, block: int, level: int, kind: str, fanout: int,
                    types: Dict[int, str], peek) -> None:
        if not 0 < block < self.device.num_blocks or level <= 0:
            return
        types[block] = "internal"
        try:
            _, ptrs = unpack_tree_block(peek(block), block, fanout)
        except CorruptionDetected:
            return
        for ptr in ptrs:
            if not 0 < ptr < self.device.num_blocks:
                continue
            if level > 1:
                self._label_tree(ptr, level - 1, kind, fanout, types, peek)
            else:
                types[ptr] = kind
