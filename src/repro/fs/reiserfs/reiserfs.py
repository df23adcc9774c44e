"""ReiserFS version 3, as characterized by the study (§5.2).

Virtually all metadata and data live in a balanced tree.  The failure
policy, expressed as code paths:

* **Reads**: error codes are checked everywhere (``D_errorcode``); most
  failures propagate (``R_propagate``); data-block reads, and tree
  reads reaching file body items during ``unlink``/``truncate``/
  ``write``, are retried once (``R_retry``).  Writes are never retried.
* **Writes**: error codes are checked and virtually any write failure
  causes a ``panic`` (``R_stop``) — the Hippocratic "first, do no
  harm" policy.  Exception (the paper's bug, by a different developer):
  an *ordered data block* write failure is silently ignored and the
  transaction commits anyway.
* **Sanity** (``D_sanity``): every tree node's block header (level,
  item count, free space) is verified; the superblock and journal
  metadata carry magic numbers.  Bitmap and unformatted data blocks
  have no type information and are never checked.
* **Documented bugs reproduced here**: an indirect-item read failure
  during ``truncate``/``unlink`` is detected but *ignored*, leaking
  space; sanity failures on internal tree nodes ``panic`` instead of
  returning an error; journal *data* blocks are replayed with no sanity
  check, so a corrupted journal block can be written anywhere — even
  over the superblock.
"""

from __future__ import annotations

import stat as _stat
from copy import copy
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
from repro.fs.base import JournaledFS, weakly
from repro.fs.ext3.journal import Journal, parse_commit, parse_desc
from repro.fs.reiserfs.btree import (
    BTree,
    IT_DIRECT,
    IT_DIRENTRY,
    IT_INDIRECT,
    IT_STAT,
    Item,
    Node,
    NodeRecord,
    node_record,
)
from repro.fs.reiserfs.config import ReiserConfig
from repro.fs.reiserfs.structures import (
    ReiserSuper,
    ROOT_KEY_PAIR,
    StatBody,
    name_hash,
    pack_dirent_body,
    pack_indirect_body,
    unpack_dirent_body,
    unpack_indirect_body,
)
from repro.vfs.stat import DEFAULT_LINK_MODE, FT_DIR, StatResult

Pair = Tuple[int, int]


class ReiserFS(JournaledFS):
    """ReiserFS over a :class:`BlockDevice`."""

    name = "reiserfs"
    ROOT = ROOT_KEY_PAIR

    #: Table 4: ReiserFS on-disk structures.
    BLOCK_TYPES: Dict[str, str] = {
        "leaf node": "Contains items of various kinds",
        "stat item": "Info about files and directories",
        "dir item": "List of files in directory",
        "direct item": "Holds small files or tail of file",
        "indirect": "Allows for large files to exist",
        "bitmap": "Tracks data blocks",
        "data": "Holds user data",
        "super": "Contains info about tree and file system",
        "j-header": "Describes journal",
        "j-desc": "Describes contents of transaction",
        "j-commit": "Marks end of transaction",
        "j-data": "Contains blocks that are journaled",
        "root": "Used for tree traversal",
        "internal": "Used for tree traversal",
    }

    def __init__(self, device, sync_mode: bool = True, commit_every: int = 64,
                 commit_stall_s: Optional[float] = None):
        super().__init__(device, sync_mode=sync_mode, commit_every=commit_every,
                         commit_stall_s=commit_stall_s)
        self.sb: Optional[ReiserSuper] = None
        self.config: Optional[ReiserConfig] = None
        self.tree: Optional[BTree] = None

    # ==================================================================
    # Failure-policy hooks: check write errors and panic (R_stop).
    # ==================================================================

    def _panic_write(self, block: int, data: bytes) -> None:
        try:
            self.buf.bwrite(block, data)
        except DiskError as exc:
            self.syslog.detection(self.name, "write-error",
                                  f"write failed, panicking: {exc}",
                                  mechanism="error-code",
                                  severity=Severity.CRITICAL, block=block)
            raise KernelPanic("reiserfs", f"I/O failure writing block {block}") from exc

    def _write_ordered_buggy(self, block: int, data: bytes) -> None:
        # The paper's bug (§5.2): an ordered data write failure is
        # ignored; the transaction is journaled and committed anyway,
        # leaving metadata pointing at stale or invalid data contents.
        self.buf.bwrite_nocheck(block, data)

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
                                  f"superblock unreadable: {exc}",
                                  mechanism="error-code", block=0)
            raise FSError(Errno.EIO, "cannot read superblock") from exc
        sb = ReiserSuper.unpack(raw)
        config = sb.checked_config()
        if config is None:
            self.syslog.detection(self.name, "sanity-fail", "bad superblock magic",
                                  mechanism="sanity", block=0)
            self.syslog.action(self.name, "unmountable", "refusing to mount corrupt volume")
            raise FSError(Errno.EUCLEAN, "bad superblock")
        self.sb = sb
        self.config = config
        self.journal = Journal(
            start=sb.journal_start,
            nblocks=sb.journal_blocks,
            block_size=self.block_size,
            syslog=self.syslog,
            journal_write=weakly(self._panic_write),
            home_write=weakly(self._panic_write),
            ordered_write=weakly(self._write_ordered_buggy),
            read_block=self.buf.bread,
            set_type=weakly(self._set_jtype),
            stall=weakly(self._stall),
            commit_stall_s=self.commit_stall_s,
            txn_checksum=False,
        )
        self.tree = BTree(
            read_node=weakly(self._node_read),
            write_node=weakly(self._node_write),
            alloc=weakly(self._alloc_tree_block),
            free=weakly(self._free_block),
            max_leaf_items=self.config.max_leaf_items,
            max_fanout=self.config.max_fanout,
            block_size=self.block_size,
        )
        self.tree.root_block = sb.root_block
        self.tree.height = sb.height
        self._relearn_types()
        try:
            # No sanity or type check protects journal *data* blocks: a
            # corrupted copy is replayed to wherever its descriptor
            # points (§5.2).
            with self._span("journal-replay", "txn"):
                self.journal.recover()
        except CorruptionDetected as exc:
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=exc.block)
            raise FSError(Errno.EUCLEAN, "journal header invalid") from exc
        except DiskError as exc:
            self.syslog.action(self.name, "mount-failed",
                               f"journal unreadable during recovery: {exc}")
            raise FSError(Errno.EIO, "cannot replay journal") from exc
        # Recovery may have replayed a (possibly corrupt) block over the
        # superblock or tree root; re-read the superblock blindly.
        sb2 = ReiserSuper.unpack(self.buf.bread(0))
        if sb2.is_valid():
            self.sb = sb2
            self.tree.root_block = sb2.root_block
            self.tree.height = sb2.height
        self._mounted = True
        self._relearn_types()

    # ==================================================================
    # Data path.  An object's body is read and stored whole, not block
    # by block, so these replace the generic layer's block-map loops.
    # ==================================================================

    def _node_get_for_update(self, pair: Pair) -> StatBody:
        return self._node_get(pair, retries=1)

    def _file_read(self, pair: Pair, st: StatBody, pos: int, end: int) -> bytes:
        return self._read_object_data(pair, st)[pos:end]

    @property
    def _max_file_bytes(self) -> int:
        # There is no block map to run out of; a body is held whole in
        # memory and stored whole, so the pool it must fit in bounds it.
        return (self.config.total_blocks - self.config.data_start) * self.block_size

    def _file_write(self, pair: Pair, st: StatBody, pos: int, data: bytes) -> None:
        old = self._read_object_data(pair, st, retries=1) if st.size else b""
        new = bytearray(max(len(old), pos + len(data)))
        new[:len(old)] = old
        new[pos:pos + len(data)] = data
        self._store_object_data(pair, st, bytes(new))

    def _file_truncate(self, pair: Pair, st: StatBody, size: int) -> None:
        if size == st.size:
            return
        if size > st.size:
            content = self._read_object_data(pair, st, retries=1)
            self._all_or_nothing(
                self._capacity_state(st, st.size, size),
                lambda: self._store_object_data(
                    pair, st, content + b"\x00" * (size - st.size)))
            return
        try:
            content = self._read_object_data(pair, st, retries=1)
        except FSError:
            # The paper's leak bug (§5.2): the indirect read failure
            # was detected (and logged) but is ignored here; the
            # stat item shrinks while the data blocks are never
            # freed — space leaks.
            self.syslog.action(self.name, "ignored-error",
                               "indirect read failure ignored during truncate",
                               severity=Severity.WARNING)
            st.size = size
            try:
                self._node_put(pair, st)
            except FSError:
                pass
            return
        self._store_object_data(pair, st, content[:size])

    def _capacity_state(self, st: StatBody, pos: int, end: int):
        # A body is stored whole: at most every block of the new body is
        # allocated, and each of its indirect items, plus the stat item,
        # is inserted by splitting at most one node per level of a tree
        # that may grow by one level per insert.
        blocks = -(-max(st.size, end) // self.config.block_size)
        inserts = -(-blocks // self.config.indirect_ptrs_per_item) + 1
        splits = inserts * (self.tree.height + inserts)
        if (blocks + splits <= self.sb.free_blocks
                and self.journal.fits(2 * splits + self.config.bitmap_blocks + 1)):
            return None
        return (self.journal.save(), copy(self.sb), self.tree.root_block,
                self.tree.height, self._types_state())

    def _restore_capacity(self, state) -> None:
        saved, self.sb, self.tree.root_block, self.tree.height, types = state
        self._restore_types(types)
        self.journal.restore(saved)

    def _symlink_create(self, parent: Pair, raw: bytes) -> Pair:
        pair = self._node_create(parent, DEFAULT_LINK_MODE)
        self._store_object_data(pair, self._node_get(pair), raw)
        return pair

    def _dir_create(self, parent: Pair, mode: int) -> Pair:
        pair = self._node_create(parent, mode, links=2)
        self._dir_add(pair, ".", pair, FT_DIR)
        self._dir_add(pair, "..", parent, FT_DIR)
        return pair

    def _space_counts(self) -> Tuple[int, int, int, int]:
        return (self.sb.total_blocks, self.sb.free_blocks,
                65535, 65535 - self.sb.nobjects)

    # ==================================================================
    # Objects (the generic layer's node primitives)
    # ==================================================================

    def _node_clear(self, pair: Pair, st: StatBody) -> None:
        self._store_object_data(pair, st, b"")

    def _read_link(self, pair: Pair, st: StatBody) -> str:
        return self._read_object_data(pair, st).decode(errors="replace")

    def _node_create(self, parent: Pair, mode: int, links: int = 1) -> Pair:
        pair = (1, self.sb.next_objid)
        self.sb.next_objid += 1
        self.sb.nobjects += 1
        st = StatBody(mode=mode, links=links, atime=1.0, mtime=1.0, ctime=1.0)
        self.tree.insert(Item((pair[0], pair[1], 0, IT_STAT), st.pack()))
        self._flush_super()
        return pair

    def _node_drop(self, pair: Pair, st: StatBody) -> None:
        """Remove every item of the object, freeing unformatted blocks.
        Carries the paper's leak bug for indirect-read failures."""
        try:
            items = self._body_items(pair, retries=1)
            for item in items:
                if item.kind == IT_INDIRECT:
                    for ptr in unpack_indirect_body(item.body):
                        if ptr:
                            self._free_block(ptr)
                self.tree.delete(item.key)
            # Directory entries of a directory object.
            for item in self._entry_items(pair):
                self.tree.delete(item.key)
            self.tree.delete((pair[0], pair[1], 0, IT_STAT))
        except FSError:
            # The paper's leak bug (§5.2): the read failure was detected
            # (and logged) but is ignored; whatever was not yet freed
            # leaks, and the super/bitmap land in an inconsistent state.
            self.syslog.action(self.name, "ignored-error",
                               "indirect read failure ignored during delete",
                               severity=Severity.WARNING)
        self.sb.nobjects = max(self.sb.nobjects - 1, 1)
        self._flush_super()

    # -- stat items -------------------------------------------------------------

    def _node_get(self, pair: Pair, retries: int = 0) -> StatBody:
        item = self.tree.lookup((pair[0], pair[1], 0, IT_STAT), retries)
        if item is None:
            raise FSError(Errno.ENOENT, f"object {pair} has no stat item")
        return StatBody.unpack(item.body)

    def _node_put(self, pair: Pair, st: StatBody) -> None:
        self.tree.replace(Item((pair[0], pair[1], 0, IT_STAT), st.pack()))

    def _stat_of(self, pair: Pair) -> StatResult:
        st = self._node_peek(pair)
        return StatResult(ino=pair[1], mode=st.mode, nlink=st.links, uid=st.uid,
                          gid=st.gid, size=st.size, atime=st.atime,
                          mtime=st.mtime, ctime=st.ctime)

    # -- file bodies --------------------------------------------------------------

    def _body_items(self, pair: Pair, retries: int = 0) -> List[Item]:
        lo = (pair[0], pair[1], 1, 0)
        hi = (pair[0], pair[1], 0xFFFFFFFF, 0xFF)
        items = self.tree.range_scan(lo, hi, retries)
        return sorted(
            (i for i in items if i.kind in (IT_DIRECT, IT_INDIRECT)),
            key=lambda i: i.key[2],
        )

    def _read_object_data(self, pair: Pair, st: StatBody, retries: int = 0) -> bytes:
        if st.size == 0:
            return b""
        chunks: List[bytes] = []
        for item in self._body_items(pair, retries):
            if item.kind == IT_DIRECT:
                chunks.append(item.body)
            else:
                for ptr in unpack_indirect_body(item.body):
                    if ptr == 0:
                        chunks.append(b"\x00" * self.block_size)
                        continue
                    chunks.append(self._data_bread(ptr))
        return b"".join(chunks)[:st.size]

    def _store_object_data(self, pair: Pair, st: StatBody, content: bytes) -> None:
        """Replace the object's body items with *content* (tail-sized
        bodies become a direct item; larger ones, indirect items over
        unformatted blocks)."""
        cfg = self.config
        old_items = self._body_items(pair, retries=1)
        old_ptrs: List[int] = []
        for item in old_items:
            if item.kind == IT_INDIRECT:
                old_ptrs.extend(p for p in unpack_indirect_body(item.body) if p)
        bs = self.block_size
        nblocks = (len(content) + bs - 1) // bs
        if len(content) <= cfg.tail_threshold:
            new_ptrs: List[int] = []
        else:
            new_ptrs = list(old_ptrs[:nblocks])
            while len(new_ptrs) < nblocks:
                new_ptrs.append(self._alloc_block("data"))
        # Free surplus blocks.
        for ptr in old_ptrs[len(new_ptrs):]:
            self._free_block(ptr)
        # Remove old body items; insert the new shape.
        for item in old_items:
            self.tree.delete(item.key)
        if len(content) <= cfg.tail_threshold:
            if content:
                self.tree.insert(Item((pair[0], pair[1], 1, IT_DIRECT), content))
        else:
            k = cfg.indirect_ptrs_per_item
            for i in range(0, nblocks, k):
                ptrs = new_ptrs[i:i + k]
                key = (pair[0], pair[1], 1 + i * bs, IT_INDIRECT)
                self.tree.insert(Item(key, pack_indirect_body(ptrs)))
            for i, ptr in enumerate(new_ptrs):
                chunk = content[i * bs:(i + 1) * bs]
                payload = chunk + b"\x00" * (bs - len(chunk))
                self._set_type(ptr, "data")
                self.journal.add_ordered(ptr, payload)
        st.size = len(content)
        st.mtime += 1.0
        self._node_put(pair, st)
        self._flush_super()

    # -- directories ----------------------------------------------------------------

    def _entry_items(self, pair: Pair) -> List[Item]:
        lo = (pair[0], pair[1], 0, IT_DIRENTRY)
        hi = (pair[0], pair[1], 0xFFFFFFFF, IT_DIRENTRY)
        items = self.tree.range_scan(lo, hi)
        return sorted(
            (i for i in items if i.kind == IT_DIRENTRY), key=lambda i: i.key[2]
        )

    def _require_dir(self, pair: Pair) -> None:
        # Directory ops on a non-directory must fail with ENOTDIR, the
        # same outcome every other file system here reports.  Every
        # directory primitive looks the stat item up here, so a copy
        # the caller already holds goes unused.
        if not _stat.S_ISDIR(self._node_peek(pair).mode):
            raise FSError(Errno.ENOTDIR, "not a directory")

    def _dir_entries(self, pair: Pair,
                     st: Optional[StatBody] = None) -> List[Tuple[Pair, int, str]]:
        self._require_dir(pair)
        out = []
        for item in self._entry_items(pair):
            child, ftype, name = unpack_dirent_body(item.body)
            out.append((child, ftype, name))
        return out

    def _dir_chain(self, pair: Pair, name: str):
        """The hash chain *name* probes in directory *pair*: ``(key,
        (child, ftype, name))`` per entry, ending at ``(free key, None)``."""
        self._require_dir(pair)
        h = name_hash(name)
        for probe in range(16):
            key = (pair[0], pair[1], h + probe, IT_DIRENTRY)
            item = self.tree.lookup(key)
            yield key, item and unpack_dirent_body(item.body)
            if item is None:
                return

    def _dir_find(self, pair: Pair, name: str,
                  st: Optional[StatBody] = None) -> Optional[Tuple[Pair, int]]:
        for _, entry in self._dir_chain(pair, name):
            if entry is None or entry[2] == name:
                return entry and entry[:2]
        return None

    def _dir_add(self, pair: Pair, name: str, child: Pair, ftype: int) -> None:
        for key, entry in self._dir_chain(pair, name):
            if entry is None:
                self.tree.insert(Item(key, pack_dirent_body(child, ftype, name)))
                return
            if entry[2] == name:
                raise FSError(Errno.EEXIST, name)
        raise FSError(Errno.ENOSPC, "directory hash chain exhausted")

    def _dir_remove(self, pair: Pair, name: str) -> None:
        for key, entry in self._dir_chain(pair, name):
            if entry is not None and entry[2] == name:
                self.tree.delete(key)
                return
        raise FSError(Errno.ENOENT, name)

    def _dir_set_dotdot(self, pair: Pair, new_parent: Pair) -> None:
        self._dir_remove(pair, "..")
        self._dir_add(pair, "..", new_parent, FT_DIR)

    # ==================================================================
    # Node and data I/O with ReiserFS's failure policy
    # ==================================================================

    def _node_read(self, block: int, retries: int = 0) -> NodeRecord:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            raw = cached
        else:
            try:
                raw = self.buf.bread(block, retries=retries)
            except DiskError as exc:
                self.syslog.detection(self.name, "read-error",
                                      f"tree block read failed: {exc}",
                                      mechanism="error-code", block=block)
                raise FSError(Errno.EIO, f"tree block {block} unreadable") from exc
        try:
            return node_record(raw, block)
        except CorruptionDetected as exc:
            self.syslog.detection(self.name, "sanity-fail", str(exc),
                                  mechanism="sanity", block=block)
            label = self.block_type(block)
            if label in ("internal", "root"):
                # The paper's bug (§5.2): a sanity failure on an
                # internal node panics instead of returning an error.
                raise KernelPanic("reiserfs", f"corrupt internal tree node {block}") from exc
            raise FSError(Errno.EUCLEAN, f"corrupt tree node {block}") from exc

    def _node_write(self, block: int, node: Node) -> None:
        self._set_type(block, self._label_for(block, node))
        self.journal.add_meta(block, node.pack(self.block_size))

    def _label_for(self, block: int, node: Node) -> str:
        if not node.is_leaf:
            return "internal"
        if node.items:
            kinds = {item.kind for item in node.items}
            # Most-specific-kind-present labelling: the paper's tool
            # classifies a leaf by the most distinctive structure it
            # holds, so every Figure-2 row is targetable.
            for kind, label in ((IT_INDIRECT, "indirect"),
                                (IT_DIRENTRY, "dir item"),
                                (IT_STAT, "stat item"),
                                (IT_DIRECT, "direct item")):
                if kind in kinds:
                    return label
        return "leaf node"

    def _data_bread(self, block: int) -> bytes:
        cached = self.journal.cached(block) if self.journal else None
        if cached is not None:
            return cached
        try:
            return self.buf.bread(block)
        except DiskError:
            # Data block reads are retried once (§5.2).
            try:
                return self.buf.bread(block)
            except DiskError as exc:
                self.syslog.detection(self.name, "read-error",
                                      f"data read failed: {exc}",
                                      mechanism="error-code", block=block)
                raise FSError(Errno.EIO, f"data block {block} unreadable") from exc

    # -- allocation -----------------------------------------------------------------------

    def _bitmap_block_of(self, block: int) -> Tuple[int, int]:
        bits = self.block_size * 8
        return self.config.bitmap_start + block // bits, block % bits

    def _read_bitmap(self, bmp_block: int) -> Bitmap:
        cached = self.journal.cached(bmp_block) if self.journal else None
        if cached is not None:
            return Bitmap(self.block_size * 8, cached)
        try:
            raw = self.buf.bread(bmp_block)
        except DiskError as exc:
            self.syslog.detection(self.name, "read-error",
                                  f"bitmap read failed: {exc}",
                                  mechanism="error-code", block=bmp_block)
            raise FSError(Errno.EIO, "bitmap unreadable") from exc
        # No type information: a corrupt bitmap is used blindly (§5.2).
        return Bitmap(self.block_size * 8, raw)

    def _alloc_block(self, kind: str) -> int:
        cfg = self.config
        bits = self.block_size * 8
        for bmp_idx in range(cfg.bitmap_blocks):
            bmp_block = cfg.bitmap_start + bmp_idx
            bmp = self._read_bitmap(bmp_block)
            start = cfg.data_start - bmp_idx * bits
            bit = bmp.find_free(max(start, 0))
            if bit is None:
                continue
            absolute = bmp_idx * bits + bit
            if absolute >= cfg.total_blocks:
                continue
            bmp.set(bit)
            self.journal.add_meta(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.sb.free_blocks -= 1
            self._flush_super()
            self._set_type(absolute, kind)
            return absolute
        raise FSError(Errno.ENOSPC, "out of disk space")

    def _alloc_tree_block(self, kind: str) -> int:
        label = "internal" if kind == "internal" else "leaf node"
        return self._alloc_block(label)

    def _free_block(self, block: int) -> None:
        if not 0 < block < self.config.total_blocks:
            return
        bmp_block, bit = self._bitmap_block_of(block)
        bmp = self._read_bitmap(bmp_block)
        if bmp.test(bit):
            bmp.clear(bit)
            self.journal.add_meta(bmp_block, bmp.to_bytes(pad_to=self.block_size))
            self.sb.free_blocks += 1
            self._flush_super()
        self.journal.revoke(block)
        self._forget_type(block)

    def _flush_super(self) -> None:
        self.sb.root_block = self.tree.root_block
        self.sb.height = self.tree.height
        self.journal.add_meta(0, self.sb.pack(self.block_size))

    def _end_op(self, modifying: bool) -> None:
        # Tree splits later in the operation may have moved the root
        # after the last superblock flush; reconcile before committing.
        if (modifying and self.journal is not None and not self.journal.aborted
                and self.sb is not None and self.tree is not None
                and (self.sb.root_block != self.tree.root_block
                     or self.sb.height != self.tree.height)):
            self._flush_super()
        super()._end_op(modifying)

    # ==================================================================
    # Gray-box: block-type oracle
    # ==================================================================

    def block_type(self, block: int) -> Optional[str]:
        cfg = self.config
        if cfg is None:
            return None
        if block == 0:
            return "super"
        if cfg.journal_start <= block < cfg.journal_start + cfg.journal_blocks:
            if block == cfg.journal_start:
                return "j-header"
            return self._jtype_of(block)
        if cfg.bitmap_start <= block < cfg.bitmap_start + cfg.bitmap_blocks:
            return "bitmap"
        label = self._type_of(block)
        if label in ("internal", "root"):
            return "root" if self.tree and block == self.tree.root_block else "internal"
        if self.tree and block == self.tree.root_block:
            return "root"
        return label

    def _set_jtype(self, block: int, jtype: str) -> None:
        super()._set_jtype(block, "j-header" if jtype == "j-super" else jtype)

    def _types_key(self) -> tuple:
        return (self.config, self.tree.root_block)

    def _walk_types(self, peek) -> Tuple[Dict[int, str], Dict[int, str]]:
        cfg, root = self._walk_key(peek)
        types: Dict[int, str] = {}
        jtypes: Dict[int, str] = {}
        pos = 1
        while pos < cfg.journal_blocks:
            raw = peek(cfg.journal_start + pos)
            d = parse_desc(raw)
            if d is not None:
                jtypes[cfg.journal_start + pos] = "j-desc"
                pos += 1
                for _ in d[1]:
                    if pos >= cfg.journal_blocks:
                        break
                    jtypes[cfg.journal_start + pos] = "j-data"
                    pos += 1
                continue
            if parse_commit(raw) is not None:
                jtypes[cfg.journal_start + pos] = "j-commit"
            pos += 1
        self._walk_label(root, 0, types, peek)
        return types, jtypes

    def _walk_label(self, block: int, depth: int, types: Dict[int, str],
                    peek) -> None:
        if depth > 8 or not 0 < block < self.device.num_blocks:
            return
        try:
            node = node_record(peek(block), block)
        except CorruptionDetected:
            return
        if node.is_leaf:
            types[block] = self._label_for(block, node)
            for item in node.items:
                if item.kind == IT_INDIRECT:
                    for ptr in unpack_indirect_body(item.body):
                        if 0 < ptr < self.device.num_blocks:
                            types[ptr] = "data"
            return
        types[block] = "internal"
        for child in node.children:
            self._walk_label(child, depth + 1, types, peek)
