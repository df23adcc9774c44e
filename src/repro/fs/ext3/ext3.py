"""Linux ext3, as characterized by the study (§5.1).

A block-group file system with a JBD-style ordered-mode journal.  The
failure policy lives in the code paths, exactly where a kernel would
put it, so fingerprinting can reverse-engineer it from observables:

* **Reads**: error codes are checked (``D_errorcode``); failures are
  propagated (``R_propagate``) and, on metadata reads in modifying
  paths, the journal is aborted and the file system remounts read-only
  (``R_stop``).  Multi-block (readahead) data reads retry the
  originally requested block once (the paper's sparing ``R_retry``).
* **Writes**: return codes are **not checked** (``D_zero``) — the
  paper's headline ext3 bug.  A failed journal write still commits; a
  failed checkpoint write silently loses metadata.
* **Sanity**: the superblock and journal descriptor/commit blocks are
  type-checked via magic numbers; ``open`` rejects an inode whose size
  field is overly large.  Directories, bitmaps and indirect blocks are
  used blindly.
* **Documented bugs reproduced here**: ``truncate`` and ``rmdir`` fail
  silently on internal read errors; ``unlink`` does not sanity-check
  the link count before decrementing (a corrupted value crashes the
  kernel); superblock replicas are written at mkfs time and never
  updated or consulted afterwards.
"""

from __future__ import annotations

import stat as _stat
from copy import copy
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.common.bitmap import Bitmap
from repro.common.errors import (
    CorruptionDetected,
    DiskError,
    Errno,
    FSError,
    KernelPanic,
)
from repro.common.syslog import Severity
from repro.fs.ext3.config import NUM_DIRECT, ROOT_INO, Ext3Config
from repro.fs.ext3.journal import Journal, parse_commit, parse_desc, parse_revoke
from repro.fs.ext3.structures import (
    DirEntry,
    FT_DIR,
    FT_REG,
    FT_SYMLINK,
    GroupDescriptor,
    Inode,
    STATE_CLEAN,
    STATE_DIRTY,
    Superblock,
    inode_slot,
    iter_allocated_inodes,
    pack_dir_block,
    pack_dirent,
    pack_gdt,
    pack_pointer_block,
    patch_inode_block,
    unpack_dir_block,
    unpack_gdt,
    unpack_pointer_block,
)
from repro.fs.base import JournaledFS

#: Sentinel in the static type table for journal blocks whose role is
#: dynamic (``j-desc``/``j-data``/``j-commit``/``j-revoke`` depend on
#: what was last written there); lookups fall through to ``_jtype_of``.
_JTYPE_DYNAMIC = "__journal-dynamic__"


@lru_cache(maxsize=16)
def _static_types_ext3(cfg: Ext3Config) -> List[Optional[str]]:
    """Per-config block→type table for everything the geometry alone
    determines (Table 4's fixed structures).  ``None`` entries are
    dynamic (file/dir/indirect data — resolved through ``_type_of``);
    :data:`_JTYPE_DYNAMIC` marks journal-interior blocks.  The oracle
    is consulted on every injected-fault probe, so the common case must
    be one list index, not a chain of geometry comparisons."""
    table: List[Optional[str]] = [None] * cfg.total_blocks
    table[cfg.super_block] = "super"
    table[cfg.gdt_block] = "g-desc"
    js = cfg.journal_start
    table[js] = "j-super"
    for b in range(js + 1, js + cfg.journal_blocks):
        table[b] = _JTYPE_DYNAMIC
    for g in range(cfg.num_groups):
        base = cfg.group_base(g)
        table[base] = "super"  # mkfs-time backup copy
        table[base + 1] = "bitmap"
        table[base + 2] = "i-bitmap"
        for b in range(base + 3, base + 3 + cfg.inode_table_blocks):
            table[b] = "inode"
    return table


class Ext3(JournaledFS):
    """The ext3 file system over a :class:`BlockDevice`."""

    name = "ext3"
    ROOT = ROOT_INO

    #: Table 4: ext3 on-disk structures.
    BLOCK_TYPES: Dict[str, str] = {
        "inode": "Info about files and directories",
        "dir": "List of files in directory",
        "bitmap": "Tracks data blocks per group",
        "i-bitmap": "Tracks inodes per group",
        "indirect": "Allows for large files to exist",
        "data": "Holds user data",
        "super": "Contains info about file system",
        "g-desc": "Holds info about each block group",
        "j-super": "Describes journal",
        "j-revoke": "Tracks blocks that will not be replayed",
        "j-desc": "Describes contents of transaction",
        "j-commit": "Marks the end of a transaction",
        "j-data": "Contains blocks that are journaled",
    }

    #: Extra read attempts in the generic layer (ext3: none).
    GENERIC_READ_RETRIES = 0
    #: Documented ext3 bugs (§5.1); ixt3 turns these off.
    SILENT_TRUNCATE_BUG = True
    SILENT_RMDIR_BUG = True
    UNLINK_LINKCOUNT_BUG = True

    def __init__(
        self,
        device,
        sync_mode: bool = True,
        commit_every: int = 64,
        commit_stall_s: Optional[float] = None,
    ):
        super().__init__(device, sync_mode=sync_mode, commit_every=commit_every,
                         commit_stall_s=commit_stall_s)
        self.sb: Optional[Superblock] = None
        self.config: Optional[Ext3Config] = None
        self.gdt: List[GroupDescriptor] = []
        self.journal: Optional[Journal] = None

    # ==================================================================
    # Failure-policy hooks.  ext3's write policy is D_zero: issue the
    # write and discard the return code.  ixt3 overrides these.
    # ==================================================================

    def _write_home(self, block: int, data: bytes) -> None:
        self.buf.bwrite_nocheck(block, data)

    def _write_journal_block(self, block: int, data: bytes) -> None:
        # ext3 bug (§5.1): a failed journal write is ignored and the rest
        # of the transaction, including the commit block, is still written.
        self.buf.bwrite_nocheck(block, data)

    def _write_ordered(self, block: int, data: bytes) -> None:
        self.buf.bwrite_nocheck(block, data)

    def _read_with_verify(self, block: int) -> bytes:
        """Device read; ixt3 layers checksum verification here."""
        return self.buf.bread(block)

    def _recover_meta_read(self, block: int, exc: Exception) -> Optional[bytes]:
        """Redundancy hook: ext3 has none (superblock copies exist but
        are never consulted — the paper's finding)."""
        return None

    def _recover_data_read(self, ino: int, inode: Inode, file_block: int,
                           block: int, exc: Exception) -> Optional[bytes]:
        """Data-redundancy hook: ext3 has none; ixt3 reconstructs from
        parity."""
        return None

    def _on_block_contents_change(self, block: int, data: bytes, kind: str) -> None:
        """ixt3 checksum hook: called whenever a block's logical contents
        change.  *kind* is 'meta' or 'data'."""

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def mount(self) -> None:
        if self._mounted:
            raise FSError(Errno.EINVAL, "already mounted")
        try:
            raw = self.buf.bread(self.config.super_block if self.config else 0)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"superblock unreadable: {exc}",
                                  mechanism="error-code", block=0)
            raise FSError(Errno.EIO, "cannot read superblock") from exc
        sb = Superblock.unpack(raw)
        if not sb.is_valid():
            # D_sanity: the superblock carries a magic number and is
            # type-checked at mount.
            self.syslog.detection(self.name, "sanity-fail", "bad superblock magic",
                                  mechanism="sanity", block=0)
            raise FSError(Errno.EUCLEAN, "bad superblock")
        self.sb = sb
        self.config = self._config_from_sb(sb)

        try:
            gdt_raw = self.buf.bread(self.config.gdt_block)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  "group descriptors unreadable",
                                  mechanism="error-code", block=1)
            raise FSError(Errno.EIO, "cannot read group descriptors") from exc
        # No sanity checking on group descriptors (paper: little type
        # checking for many important blocks) — parsed blindly.
        self.gdt = unpack_gdt(gdt_raw, sb.num_groups)

        self.journal = self._make_journal()
        self._relearn_types()
        try:
            with self._span("journal-replay", "txn"):
                replayed = self.journal.recover()
            if replayed:
                # Replay may have rewritten the superblock and group
                # descriptors; refresh the in-memory copies before the
                # mount-time state write clobbers them.
                sb2 = Superblock.unpack(self.buf.bread(0))
                if sb2.is_valid():
                    self.sb = sb2
                self.gdt = unpack_gdt(self.buf.bread(self.config.gdt_block),
                                      self.sb.num_groups)
        except CorruptionDetected as exc:
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=exc.block)
            raise FSError(Errno.EUCLEAN, "journal superblock invalid") from exc
        except DiskError as exc:
            self.syslog.error(
                self.name, "read-error", f"journal unreadable during recovery: {exc}",
                block=getattr(exc, "block", None),
            )
            self._abort_journal()

        self._mounted = True
        self._read_only = self._read_only or self.journal.aborted
        self.sb.state = STATE_DIRTY
        self.sb.mount_count += 1
        if not self._read_only:
            self._write_home(0, self.sb.pack(self.block_size))
        self._relearn_types()

    def _mark_clean(self) -> None:
        self.sb.state = STATE_CLEAN
        self._write_home(0, self.sb.pack(self.block_size))

    # ==================================================================
    # The specific half of the syscall surface: primitives and policy
    # hooks for the generic layer in JournaledFS
    # ==================================================================

    def _space_counts(self) -> Tuple[int, int, int, int]:
        return (self.sb.blocks_count, self.sb.free_blocks,
                self.sb.inodes_count, self.sb.free_inodes)

    def _node_create(self, parent_ino: int, mode: int) -> int:
        return self._alloc_inode(self.config.group_of_inode(parent_ino), mode)

    def _node_drop(self, ino: int, inode: Inode) -> None:
        self._node_shrink(ino, inode, 0,
                          kind="dir" if _stat.S_ISDIR(inode.mode) else "data")
        self._release_parity(ino, inode)
        self._free_inode(ino)

    def _open_check(self, ino: int, inode: Inode) -> None:
        # D_sanity (§5.1): open detects an overly-large file-size field.
        if inode.size > self._max_file_bytes:
            self.syslog.detection(self.name, "sanity-fail",
                                  f"inode {ino} size {inode.size} exceeds maximum",
                                  mechanism="sanity")
            raise FSError(Errno.EUCLEAN, "corrupted inode size")

    @property
    def _max_file_bytes(self) -> int:
        return self.config.max_file_blocks * self.block_size

    def _file_block_read(self, ino: int, inode: Inode, fb: int, readahead: bool,
                         modifying: bool, bno: int = 0) -> bytes:
        if not bno:
            bno, _ = self._bmap(inode, fb, allocate=False)
            if bno == 0:
                return b"\x00" * self.block_size
        return self._data_bread(ino, inode, fb, bno, readahead, modifying)

    def _file_block_map(self, ino: int, inode: Inode, fb: int) -> Tuple[int, bool]:
        return self._bmap(inode, fb, allocate=True)

    def _file_block_store(self, ino: int, inode: Inode, fb: int, bno: int,
                          payload: bytes, fresh: bool) -> None:
        # Parity reads the block's *old* contents, so it must run
        # before the new payload enters the journal's write cache.
        self._update_parity(ino, inode, fb, bno, payload, fresh=fresh)
        self._data_update(bno, payload)

    def _update_parity(self, ino: int, inode: Inode, file_block: int,
                       block: int, new_payload: bytes, fresh: bool = False) -> None:
        """ixt3 Dp hook; plain ext3 keeps no parity.  *fresh* marks a
        just-allocated block whose prior contents are zero."""

    def _capacity_state(self, inode: Inode, pos: int, end: int):
        # Bounds without I/O.  The n file blocks hang off at most n + 9
        # indirect blocks (n/p + 3 on the level above the data, n/p² + 3
        # above that, and the triple-indirect root), so a write
        # allocates at most 2n + 9 blocks.
        bs = self.config.block_size
        n = (end - 1) // bs - pos // bs + 1
        if (2 * n + 9 <= self.sb.free_blocks
                and self.journal.fits(self._meta_bound(n))):
            return None
        # The snapshot holds final contents; the work it owes is done.
        self._settle()
        return (self.journal.save(), copy(self.sb),
                [copy(desc) for desc in self.gdt], self._types_state())

    def _meta_bound(self, n: int) -> int:
        """Metadata blocks a write of *n* file blocks may journal: its
        indirect blocks, every group's block bitmap, the group
        descriptors, the superblock and the inode's block."""
        return n + 9 + self.config.num_groups + 3

    def _restore_capacity(self, state) -> None:
        saved, self.sb, self.gdt, types = state
        self._restore_types(types)
        self.journal.restore(saved)

    def _truncate_shrink_failed(self) -> bool:
        # ext3 bug (§5.1): internal read errors while releasing blocks
        # are swallowed; truncate fails silently.
        if self.SILENT_TRUNCATE_BUG:
            self.syslog.action(self.name, "silent-failure",
                               "truncate abandoned after read error",
                               severity=Severity.WARNING)
        return self.SILENT_TRUNCATE_BUG

    def _unlink_node(self, ino: int, inode: Inode) -> None:
        if inode.links == 0:
            if self.UNLINK_LINKCOUNT_BUG:
                # ext3 bug (§5.1): no sanity check of the link count
                # before modifying it; a corrupted value crashes.
                raise KernelPanic("ext3", f"inode {ino}: link count already zero")
            self.syslog.detection(self.name, "sanity-fail",
                                  f"inode {ino} link count already zero",
                                  mechanism="sanity")
            raise FSError(Errno.EUCLEAN, "corrupt link count")
        inode.links -= 1
        if inode.links == 0:
            self._node_drop(ino, inode)
        else:
            self._node_put(ino, inode)

    def _read_link(self, ino: int, inode: Inode) -> Optional[str]:
        bno, _ = self._bmap(inode, 0, allocate=False)
        if bno == 0:
            return None
        data = self._data_bread(ino, inode, 0, bno, readahead=False)
        return data[:inode.size].decode(errors="replace")

    def _rmdir_scan_failed(self) -> bool:
        # ext3 bug (§5.1): read errors during the emptiness scan are
        # swallowed and rmdir returns silently without doing anything.
        if self.SILENT_RMDIR_BUG:
            self.syslog.action(self.name, "silent-failure",
                               "rmdir abandoned after read error",
                               severity=Severity.WARNING)
        return self.SILENT_RMDIR_BUG

    def _renamed_ftype(self, ftype: int, inode: Inode) -> int:
        if _stat.S_ISDIR(inode.mode):
            return FT_DIR
        return FT_SYMLINK if _stat.S_ISLNK(inode.mode) else FT_REG

    # ==================================================================
    # Directories (the block-list primitives of the generic layer)
    # ==================================================================

    def _dir_blocks(self, ino: int, inode: Inode):
        # Directory ops on a non-directory must fail with ENOTDIR, not
        # parse file data as dirents (content-dependent garbage).
        if not _stat.S_ISDIR(inode.mode):
            raise FSError(Errno.ENOTDIR, "not a directory")
        bs = self.block_size
        for fb in range((inode.size + bs - 1) // bs):
            bno, _ = self._bmap(inode, fb, allocate=False)
            if bno:
                yield bno

    def _dir_block_load(self, bno: int, modifying: bool = False) -> List[DirEntry]:
        # Directory blocks carry no type information and are parsed
        # blindly (§5.1): corruption yields garbage names, not errors.
        return unpack_dir_block(self._meta_bread(bno, modifying))

    def _dir_block_store(self, bno: int, entries) -> None:
        self._meta_update(bno, pack_dir_block(entries, self.block_size))

    def _dir_block_fits(self, entries, name: str) -> bool:
        used = sum(len(pack_dirent(*e)) for e in entries)
        return used + len(pack_dirent(0, 0, name)) <= self.block_size

    def _dir_block_map(self, ino: int, inode: Inode, fb: int) -> int:
        return self._bmap(inode, fb, allocate=True, block_kind="dir")[0]

    def _dir_child_in_range(self, ino: int) -> bool:
        return 0 < ino <= self.sb.inodes_count

    def _dir_lookup_scan(self, ino: int, inode: Optional[Inode]):
        # Block by block, over the caller's copy of the inode if any.
        if inode is None:
            inode = self._node_get(ino)
        return map(self._dir_block_load, self._dir_blocks(ino, inode))

    # ==================================================================
    # Inodes
    # ==================================================================

    def _node_get(self, ino: int) -> Inode:
        if not 1 <= ino <= self.sb.inodes_count:
            raise FSError(Errno.EUCLEAN, f"inode number {ino} out of range")
        block, off = self.config.inode_location(ino)
        raw = self._meta_bread(block)
        return inode_slot(raw, off)

    def _node_put(self, ino: int, inode: Inode) -> None:
        block, off = self.config.inode_location(ino)
        raw = self._meta_bread(block, modifying=True)
        self._meta_update(block, patch_inode_block(raw, off, inode))

    # ==================================================================
    # Allocation
    # ==================================================================

    def _alloc_inode(self, hint_group: int, mode: int) -> int:
        cfg = self.config
        for g in self._group_order(hint_group):
            bmp_block = cfg.inode_bitmap_block(g)
            raw = self._meta_bread(bmp_block, modifying=True)
            bmp = Bitmap(cfg.inodes_per_group, raw)
            bit = bmp.find_free()
            if bit is None:
                continue
            bmp.set(bit)
            self._meta_update(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.gdt[g].free_inodes -= 1
            self.sb.free_inodes -= 1
            self._flush_sb_gdt()
            ino = g * cfg.inodes_per_group + bit + 1
            inode = Inode(mode=mode, links=1, ctime=1.0, mtime=1.0, atime=1.0)
            self._node_put(ino, inode)
            return ino
        raise FSError(Errno.ENOSPC, "out of inodes")

    def _free_inode(self, ino: int) -> None:
        cfg = self.config
        g = cfg.group_of_inode(ino)
        bit = (ino - 1) % cfg.inodes_per_group
        bmp_block = cfg.inode_bitmap_block(g)
        raw = self._meta_bread(bmp_block, modifying=True)
        bmp = Bitmap(cfg.inodes_per_group, raw)
        if bmp.test(bit):
            bmp.clear(bit)
            self._meta_update(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.gdt[g].free_inodes += 1
            self.sb.free_inodes += 1
        self._node_put(ino, Inode())
        self._flush_sb_gdt()

    def _alloc_block(self, hint_group: int, kind: str) -> int:
        cfg = self.config
        for g in self._group_order(hint_group):
            bmp_block = cfg.block_bitmap_block(g)
            raw = self._meta_bread(bmp_block, modifying=True)
            bmp = Bitmap(cfg.data_blocks_per_group, raw)
            bit = bmp.find_free()
            if bit is None:
                continue
            bmp.set(bit)
            self._meta_update(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.gdt[g].free_blocks -= 1
            self.sb.free_blocks -= 1
            self._flush_sb_gdt()
            bno = cfg.data_start(g) + bit
            self._set_type(bno, kind)
            return bno
        raise FSError(Errno.ENOSPC, "out of disk space")

    def _free_block(self, bno: int, kind: str) -> None:
        cfg = self.config
        g = cfg.group_of_block(bno)
        if g is None:
            return  # corrupt pointer outside any group: freed blindly, no check
        bit = bno - cfg.data_start(g)
        if not 0 <= bit < cfg.data_blocks_per_group:
            return
        bmp_block = cfg.block_bitmap_block(g)
        raw = self._meta_bread(bmp_block, modifying=True)
        bmp = Bitmap(cfg.data_blocks_per_group, raw)
        if bmp.test(bit):
            bmp.clear(bit)
            self._meta_update(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.gdt[g].free_blocks += 1
            self.sb.free_blocks += 1
            self._flush_sb_gdt()
        if kind in ("dir", "indirect"):
            self.journal.revoke(bno)
        self._forget_type(bno)

    def _group_order(self, hint: int):
        n = self.config.num_groups
        hint %= n
        return list(range(hint, n)) + list(range(0, hint))

    def _flush_sb_gdt(self) -> None:
        # The in-memory superblock and group descriptors are the truth: a
        # transaction journals them at its first change, where they
        # always entered it, and _settle repacks them before it is written.
        if not self._sb_gdt_journaled(self.journal.begin()):
            self._pack_sb_gdt()

    def _sb_gdt_journaled(self, txn) -> bool:
        """Whether *txn* holds the superblock and GDT for _settle to repack."""
        return self.config.gdt_block in txn.meta

    def _pack_sb_gdt(self) -> None:
        self._meta_update(0, self.sb.pack(self.block_size))
        self._meta_update(self.config.gdt_block, pack_gdt(self.gdt, self.block_size))

    def _settle(self, block: Optional[int] = None) -> None:
        """Journal owner callback: before a commit or abort (no *block*),
        repack the superblock and GDT; ixt3 also runs pending work."""
        txn = self.journal.current
        if block is None and txn is not None and self._sb_gdt_journaled(txn):
            self._pack_sb_gdt()

    # ==================================================================
    # Block mapping (direct / indirect / double / triple)
    # ==================================================================

    def _bmap(self, inode: Inode, idx: int, allocate: bool,
              block_kind: str = "data") -> Tuple[int, bool]:
        """Map file block *idx* to a device block.  Returns (block,
        inode_dirty); block 0 means a hole."""
        p = self.sb.ptrs_per_block
        if idx < NUM_DIRECT:
            bno = inode.direct[idx]
            if bno == 0 and allocate:
                bno = self._alloc_block(0, block_kind)
                inode.direct[idx] = bno
                inode.nblocks += 1
                return bno, True
            return bno, False
        idx -= NUM_DIRECT
        for level, span in ((1, p), (2, p * p), (3, p * p * p)):
            if idx < span:
                attr = ("indirect", "dindirect", "tindirect")[level - 1]
                root = getattr(inode, attr)
                dirty = False
                if root == 0:
                    if not allocate:
                        return 0, False
                    root = self._alloc_indirect_block()
                    setattr(inode, attr, root)
                    dirty = True
                bno, leaf_alloc = self._walk_indirect(root, level, idx, allocate, block_kind)
                if leaf_alloc:
                    inode.nblocks += 1
                return bno, dirty or leaf_alloc
            idx -= span
        raise FSError(Errno.EFBIG, "file block index beyond triple indirect")

    def _alloc_indirect_block(self) -> int:
        bno = self._alloc_block(0, "indirect")
        p = self.sb.ptrs_per_block
        self._meta_update(bno, pack_pointer_block([0] * p, self.block_size, p))
        return bno

    def _walk_indirect(self, root: int, levels: int, idx: int, allocate: bool,
                       block_kind: str) -> Tuple[int, bool]:
        p = self.sb.ptrs_per_block
        block = root
        # Indirect blocks carry no type information; corrupted pointers
        # are followed blindly (§5.1).
        for level in range(levels, 0, -1):
            span = p ** (level - 1)
            slot, idx = divmod(idx, span)
            raw = self._meta_bread(block, modifying=allocate)
            ptrs = unpack_pointer_block(raw, p)
            nxt = ptrs[slot]
            if nxt == 0:
                if not allocate:
                    return 0, False
                if level == 1:
                    nxt = self._alloc_block(0, block_kind)
                else:
                    nxt = self._alloc_indirect_block()
                ptrs[slot] = nxt
                self._meta_update(block, pack_pointer_block(ptrs, self.block_size, p))
                if level == 1:
                    return nxt, True
            block = nxt
        return block, False

    def _node_shrink(self, ino: int, inode: Inode, new_size: int,
                     kind: str = "data") -> None:
        """Free all blocks wholly beyond *new_size*."""
        bs = self.block_size
        keep = (new_size + bs - 1) // bs
        p = self.sb.ptrs_per_block
        for i in range(keep, NUM_DIRECT):
            if inode.direct[i]:
                self._free_block(inode.direct[i], kind)
                inode.direct[i] = 0
                inode.nblocks = max(inode.nblocks - 1, 0)
        for level, attr in ((1, "indirect"), (2, "dindirect"), (3, "tindirect")):
            root = getattr(inode, attr)
            base = NUM_DIRECT + sum(p ** j for j in range(1, level))
            if root == 0:
                continue
            if keep <= base:
                freed = self._free_indirect_tree(root, level, kind)
                inode.nblocks = max(inode.nblocks - freed, 0)
                setattr(inode, attr, 0)
            else:
                freed = self._free_indirect_partial(root, level, keep - base, kind)
                inode.nblocks = max(inode.nblocks - freed, 0)
        self._node_put(ino, inode)

    def _free_indirect_tree(self, root: int, levels: int, kind: str) -> int:
        p = self.sb.ptrs_per_block
        freed = 0
        if levels >= 1:
            raw = self._meta_bread(root)
            for ptr in unpack_pointer_block(raw, p):
                if ptr == 0:
                    continue
                if levels == 1:
                    self._free_block(ptr, kind)
                    freed += 1
                else:
                    freed += self._free_indirect_tree(ptr, levels - 1, kind)
        self._free_block(root, "indirect")
        return freed

    def _free_indirect_partial(self, root: int, levels: int, keep: int, kind: str) -> int:
        """Free leaf blocks at index >= keep under this tree."""
        p = self.sb.ptrs_per_block
        raw = self._meta_bread(root, modifying=True)
        ptrs = unpack_pointer_block(raw, p)
        span = p ** (levels - 1)
        freed = 0
        dirty = False
        for slot in range(p):
            lo = slot * span
            if ptrs[slot] == 0:
                continue
            if lo >= keep:
                if levels == 1:
                    self._free_block(ptrs[slot], kind)
                    freed += 1
                else:
                    freed += self._free_indirect_tree(ptrs[slot], levels - 1, kind)
                ptrs[slot] = 0
                dirty = True
            elif levels > 1 and lo + span > keep:
                freed += self._free_indirect_partial(ptrs[slot], levels - 1, keep - lo, kind)
        if dirty:
            self._meta_update(root, pack_pointer_block(ptrs, self.block_size, p))
        return freed

    def _release_parity(self, ino: int, inode: Inode) -> None:
        """ixt3 Dp hook."""

    # ==================================================================
    # Read policy
    # ==================================================================

    def _meta_bread(self, block: int, modifying: bool = False) -> bytes:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            return cached
        try:
            return self._read_with_verify(block)
        except (DiskError, CorruptionDetected) as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"metadata read failed: {exc}",
                                  mechanism="error-code", block=block)
            recovered = self._recover_meta_read(block, exc)
            if recovered is not None:
                return recovered
            if modifying:
                self._abort_journal()
            raise FSError(Errno.EIO, f"metadata block {block} unreadable") from exc

    def _data_bread(self, ino: int, inode: Inode, file_block: int, block: int,
                    readahead: bool, modifying: bool = False) -> bytes:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            return cached
        try:
            return self._read_with_verify(block)
        except (DiskError, CorruptionDetected) as exc:
            if readahead and isinstance(exc, DiskError):
                # ext3's sparing retry (§5.1): on a failed readahead
                # request, retry only the originally requested block.
                try:
                    return self._read_with_verify(block)
                except (DiskError, CorruptionDetected):
                    pass
            self.syslog.detection(self.name, "read-error",
                                  f"data read failed: {exc}",
                                  mechanism="error-code", block=block)
            recovered = self._recover_data_read(ino, inode, file_block, block, exc)
            if recovered is not None:
                return recovered
            if modifying:
                self._abort_journal()
            raise FSError(Errno.EIO, f"data block {block} unreadable") from exc

    def _meta_update(self, block: int, payload: bytes) -> None:
        """Journal a metadata block's new contents (and let ixt3
        checksum them)."""
        self.journal.add_meta(block, payload)
        self._on_block_contents_change(block, payload, "meta")

    def _data_update(self, block: int, payload: bytes) -> None:
        """Queue a data block's new contents (and let ixt3 checksum them)."""
        self.journal.add_ordered(block, payload)
        self._on_block_contents_change(block, payload, "data")

    def _abort_journal(self) -> None:
        if self._read_only:
            return
        if self.journal is not None:
            self._settle()
            self.journal.abort()
        self._read_only = True
        self.syslog.action(self.name, "journal-abort", "aborting journal")
        self.syslog.action(self.name, "remount-ro", "remounting file system read-only")

    # ==================================================================
    # Gray-box: block-type oracle (Table 4 types)
    # ==================================================================

    #: Lazily-built static label table for the current config (see
    #: :func:`_static_type_table`).  Class-level defaults double as the
    #: "not built yet" state so ``__init__`` needs no extra wiring.
    _type_table: Optional[List[Optional[str]]] = None
    _type_table_cfg: Optional[Ext3Config] = None

    @staticmethod
    def _static_type_table(cfg: Ext3Config) -> List[Optional[str]]:
        return _static_types_ext3(cfg)

    def block_type(self, block: int) -> Optional[str]:
        cfg = self.config
        if cfg is None:
            return None
        if self._type_table_cfg is not cfg:
            self._type_table = self._static_type_table(cfg)
            self._type_table_cfg = cfg
        table = self._type_table
        label = table[block] if 0 <= block < len(table) else None
        if label is None:
            return self._type_of(block)
        if label is _JTYPE_DYNAMIC:
            return self._jtype_of(block)
        return label

    def journal_region(self) -> Optional[Tuple[int, int]]:
        """Half-open block range of the on-disk journal.  Consumers that
        reason about *recovered* state (the crash engine's content-keyed
        memos) use this to elide replay residue: after recovery, journal
        contents influence nothing a namespace walk or offline check
        reads."""
        cfg = self.config
        if cfg is None:
            return None
        return (cfg.journal_start, cfg.journal_start + cfg.journal_blocks)

    # ==================================================================
    # Internals
    # ==================================================================

    def _config_from_sb(self, sb: Superblock) -> Ext3Config:
        return Ext3Config(
            block_size=sb.block_size,
            blocks_per_group=sb.blocks_per_group,
            inodes_per_group=sb.inodes_per_group,
            num_groups=sb.num_groups,
            journal_blocks=sb.journal_blocks,
            ptrs_per_block=sb.ptrs_per_block,
            checksum_blocks=sb.checksum_blocks,
            replica_blocks=sb.replica_blocks,
        )

    def _make_journal(self) -> Journal:
        cfg = self.config
        return Journal(
            start=cfg.journal_start,
            nblocks=cfg.journal_blocks,
            block_size=self.block_size,
            syslog=self.syslog,
            journal_write=self._write_journal_block,
            home_write=self._write_home,
            ordered_write=self._write_ordered,
            read_block=self.buf.bread,
            set_type=self._set_jtype,
            stall=self._stall,
            commit_stall_s=self.commit_stall_s,
            txn_checksum=self._txn_checksum_enabled(),
            settle=self._settle,
        )

    def _txn_checksum_enabled(self) -> bool:
        return False

    def _types_key(self) -> tuple:
        return (self.config, self.sb.ptrs_per_block)

    def _walk_types(self, peek) -> Tuple[Dict[int, str], Dict[int, str]]:
        cfg, p = self._walk_key(peek)
        jstart = cfg.journal_start
        types: Dict[int, str] = {}
        jtypes = {jstart: "j-super"}
        # Journal region roles from stored headers.
        pos = 1
        while pos < cfg.journal_blocks:
            raw_blk = peek(jstart + pos)
            d = parse_desc(raw_blk)
            if d is not None:
                jtypes[jstart + pos] = "j-desc"
                pos += 1
                for _ in d[1]:
                    if pos >= cfg.journal_blocks:
                        break
                    jtypes[jstart + pos] = "j-data"
                    pos += 1
                continue
            if parse_commit(raw_blk) is not None:
                jtypes[jstart + pos] = "j-commit"
            elif parse_revoke(raw_blk) is not None:
                jtypes[jstart + pos] = "j-revoke"
            pos += 1
        # File/dir/indirect blocks from the inode tables, scanned one
        # table block at a time over zero-copy views.  Free slots are
        # skipped on a two-field probe; allocated ones are consumed as
        # raw field tuples (Inode.unpack order) without building Inode
        # objects — this walk visits every slot on every mount.
        isdir = _stat.S_ISDIR
        for g in range(cfg.num_groups):
            table_start = cfg.inode_table_start(g)
            for block_off in range(cfg.inode_table_blocks):
                payload = peek(table_start + block_off)
                for _slot, f in iter_allocated_inodes(payload, cfg.inodes_per_block):
                    kind = "dir" if isdir(f[0]) else "data"
                    for bno in f[9:9 + NUM_DIRECT]:
                        if bno:
                            types[bno] = kind
                    for level in (1, 2, 3):
                        root = f[8 + NUM_DIRECT + level]
                        if root:
                            self._label_indirect_tree(root, level, kind, p,
                                                      types, peek)
                    if f[13 + NUM_DIRECT]:
                        types[f[13 + NUM_DIRECT]] = "parity"
        return types, jtypes

    def _label_indirect_tree(self, root: int, levels: int, kind: str, p: int,
                             types: Dict[int, str], peek) -> None:
        if not 0 < root < self.device.num_blocks:
            return
        types[root] = "indirect"
        for ptr in unpack_pointer_block(peek(root), p):
            if not 0 < ptr < self.device.num_blocks:
                continue
            if levels == 1:
                types[ptr] = kind
            else:
                self._label_indirect_tree(ptr, levels - 1, kind, p, types, peek)
