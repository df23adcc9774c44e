"""The generic half of every simulated file system (Figure 1).

Holds what every FS in the study has in common — mount state, the
syslog, operation framing around the journal, crash simulation,
gray-box access to the raw disk, and the whole syscall surface: the
symlink-following path walk, the namespace calls (``creat`` ...
``readlink``), the data path (``read``, ``write``, ``truncate``,
``symlink``, ``mkdir``), the block-list directory operations and the
``unmount`` / ``statfs`` templates are written once here, over the
primitive protocol documented on
:class:`JournaledFS`.  Each file system keeps its on-disk format,
allocation, block mapping, journaling and *failure policy* in its own
code, which is precisely where the paper locates the interesting
behaviour.
"""

from __future__ import annotations

import contextlib
import stat as _stat
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import Errno, FSError, KernelPanic, ReadOnlyError
from repro.common.syslog import SysLog
from repro.obs.events import EventLog, JournalCommitEvent
from repro.vfs.api import FileSystem
from repro.vfs.fdtable import (
    FDTable,
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_TRUNC,
    O_WRONLY,
)
from repro.vfs.generic import BufferLayer
from repro.vfs.paths import MAX_SYMLINK_DEPTH, dirname_basename, is_ancestor, split_path
from repro.vfs.stat import (
    DEFAULT_DIR_MODE,
    DEFAULT_FILE_MODE,
    DEFAULT_LINK_MODE,
    FT_DIR,
    FT_REG,
    FT_SYMLINK,
    StatResult,
    StatVFS,
)


def weakly(method: Callable) -> Callable:
    """*method*, a bound method, bound to a weak reference of its
    instance.  The helpers a mount builds (journal, tree, checksum and
    replica stores) take their file system's callbacks this way, so a
    mounted file system is no reference cycle: one dropped without an
    unmount is freed at once, with the disk it holds, instead of at
    the cycle collector's next full pass."""
    func, ref = method.__func__, weakref.ref(method.__self__)
    return lambda *args: func(ref(), *args)


def dirent_size(name: str) -> int:
    """Bytes one ``(child, ftype, name)`` entry takes in an ext3, JFS
    or NTFS directory block: a 6-byte header and the name as latin-1
    (one byte a character, unencodable ones replaced), cut to 255."""
    return 6 + min(len(name), 255)


class JournaledFS(FileSystem):
    """Base class: a mounted, journaling file system over a device.

    **The specific half.**  A file system names its objects by an opaque
    *handle* (inode number, MFT number, ReiserFS key pair) and exposes
    each as a mutable *node* carrying ``mode``, ``links``, ``uid``,
    ``gid``, ``size``, ``atime``, ``mtime`` and ``ctime``.  The generic
    code below is written over these primitives and nothing else:

    ======================================  ==================================
    ``ROOT``                                handle of ``/``
    ``_node_get(h)`` / ``_node_put(h, n)``  read / journal one node
    ``_node_peek(h)``                       read one node, not to change
    ``_is_dir(n)``                          directory test (mode bits here)
    ``_node_create(parent, mode)``          new empty object, one link
    ``_node_clear(h, n)``                   free a file's body; size 0
    ``_node_drop(h, n)``                    free the object and its blocks
    ``_read_link(h, n)``                    symlink target; None = no body
    ``_space_counts()``                     total, free blocks; total, free nodes
    ======================================  ==================================

    ``_node_peek`` issues ``_node_get``'s reads but may return the
    decoder's shared, immutable record (DESIGN.md, "Decode memo"); only
    a path that changes the node takes its own from ``_node_get``.

    A directory is a *block list*: an ordered run of blocks, each
    holding ``(child, ftype, name)`` triples.  :meth:`_dir_entries`,
    :meth:`_dir_find`, :meth:`_dir_add`, :meth:`_dir_remove`,
    :meth:`_dir_set_dotdot`, :meth:`_dir_create` and :meth:`_stat_of`
    are written once over:

    ======================================  ==================================
    ``_dir_blocks(h, n)``                   its blocks in order; ENOTDIR
    ``_dir_block_load(bno, modifying)``     one block's triples, sanity-checked
    ``_dir_block_store(bno, entries)``      journal one block's new contents
    ``_dir_block_header``                   bytes a block spends before entries
    ``_dir_block_map(h, n, fb)``            allocate block ``fb``; its number
    ``_dir_child_in_range(child)``          may ``_dir_find`` return this id?
    ``_dir_lookup_scan(h, n)``              entry lists ``_dir_find`` searches
    ======================================  ==================================

    ``_dir_blocks`` maps lazily: a scan that stops early never maps or
    reads the blocks behind it.  ``_dir_find`` is handed the
    directory's node when its caller holds one, and ``_dir_lookup_scan``
    decides what becomes of it: ext3 walks that copy block by block;
    JFS walks a node it reads again; NTFS reads the record again and
    loads the *whole* directory before the first comparison.  ReiserFS
    has no block list — its entries are hashed items of the tree — so
    it overrides the seven operations and implements none of these.

    The data path is written over a *block map*: file block ``fb`` of a
    node lives in device block ``bno``.

    ======================================  ==================================
    ``_max_file_bytes``                     what the map can address
    ``_file_block_read(h, n, fb, ...)``     one file block; zeros for a hole
    ``_file_block_map(h, n, fb)``           ``(bno, fresh)``, allocating
    ``_file_block_store(h, n, fb, ...)``    write one whole mapped block
    ``_node_shrink(h, n, size)``            free blocks wholly beyond *size*
    ======================================  ==================================

    ``_file_block_read`` also takes ``readahead`` (the request spans
    several blocks), ``modifying`` (the read serves a write) and
    ``bno=0``, set when the caller has just mapped the block; as with
    ``_dir_find``, a file system that has always walked its map again
    ignores it.  ``_file_block_store`` takes ``bno, payload, fresh``,
    *fresh* marking a block the map allocated a moment ago.  ReiserFS
    has no block map: it stores an object's body whole, so it overrides
    the three loops built on these primitives — :meth:`_file_read`,
    :meth:`_file_write`, :meth:`_file_truncate` — together with
    :meth:`_node_clear` and :meth:`_symlink_create`, and implements only
    ``_max_file_bytes`` of the five (the pool a body must fit in).

    The gray-box type oracle (§4.2) is relearnt at mount by the one
    :meth:`_relearn_types` here, which walks on first use and memoises
    on the golden image what two more primitives compute:

    ======================================  ==================================
    ``_walk_types(peek)``                   ``(types, jtypes)`` label maps
    ``_types_key()``                        what else the walk looks at
    ======================================  ==================================

    *types* labels the blocks the on-disk structures point at, *jtypes*
    the journal blocks whose role the layout does not fix (else empty).
    The memo is sound under one rule: the walk reads the platter only
    through the ``peek`` it is handed, and anything else it consults —
    the geometry decoded from the superblock, a tree root — is in the
    key, a hashable tuple (the class and ``device.num_blocks`` are
    added for every file system).  The walk takes that key from
    ``self._walk_key(peek)``, never from ``self``: it may run long
    after the mount that captured it.  A file system reads and updates
    the maps only through the type-map methods here (``_type_of``,
    ``_jtype_of``, ``_set_type``, ``_forget_type``, ``_set_jtype``,
    ``_types_state``, ``_restore_types``).

    **Policy hooks** mark the places where the study found file systems
    to *behave* differently; the defaults are the common behaviour:
    :meth:`_open_check`, :meth:`_unlink_node`, :meth:`_rmdir_scan_failed`,
    :meth:`_renamed_ftype`, :meth:`_node_get_for_update`,
    :meth:`_truncate_shrink_failed` and :meth:`_mark_clean`.  What a
    file system does with a data block once it is mapped — journal it,
    write it in place, fold it into parity first — is its
    ``_file_block_store``.

    A write that runs out of free blocks or of journal room fails with
    ``ENOSPC`` and leaves the in-memory state — free counts, bitmaps,
    the running transaction — as it found it, so the file and the free
    count are unchanged.  Two hooks provide that, and the defaults keep
    no snapshot:

    ======================================  ==================================
    ``_capacity_state(n, pos, end)``        snapshot, or None: surely fits
    ``_restore_capacity(state)``            put the snapshot back
    ======================================  ==================================

    A file system must not redefine a generic op (``tools/
    lint_generic_ops.py`` enforces it): every class-level definition of
    a syscall is wrapped in its own trace span, so an override chaining
    to the one here would be traced twice.
    """

    name = "journaled"
    GENERIC_READ_RETRIES = 0
    #: Handle of the root directory.
    ROOT: object = None

    def __init__(
        self,
        device,
        sync_mode: bool = True,
        commit_every: int = 64,
        commit_stall_s: Optional[float] = None,
    ):
        super().__init__()
        self.device = device
        self.block_size: int = device.block_size
        # Join the device stack's typed-event stream when it has one, so
        # injector I/O, buffer-layer retries, journal commits, and this
        # FS's policy events interleave in one ordered record.
        shared = getattr(device, "events", None)
        self.events: EventLog = shared if shared is not None else EventLog()
        self.syslog = SysLog(self.events)
        self.buf = BufferLayer(
            device, self.syslog, self.name, read_retries=self.GENERIC_READ_RETRIES
        )
        self.sync_mode = sync_mode
        self.commit_every = commit_every
        if commit_stall_s is None:
            geometry = getattr(self._raw_disk() or object(), "geometry", None)
            commit_stall_s = geometry.rotation_s * 0.75 if geometry else 0.006
        self.commit_stall_s = commit_stall_s
        self.fdtable = FDTable()
        self.journal = None
        self._mounted = False
        self._read_only = False
        self._ops_since_commit = 0
        #: Open floating journal-transaction span (0 = none / untraced).
        self._txn_span = 0
        #: Dynamic block-type labels, and journal-region roles where the
        #: layout does not fix them (see :meth:`_relearn_types`).
        self._types: Dict[int, str] = {}
        self._jtypes: Dict[int, str] = {}
        #: A relearn not yet walked: ``(frozen view, _types_key(), type
        #: overlay, jtype overlay)``, or None when the maps are current.
        self._types_pending: Optional[tuple] = None

    # -- state -------------------------------------------------------------

    @property
    def mounted(self) -> bool:
        return self._mounted

    @property
    def read_only(self) -> bool:
        return self._read_only

    def _ensure_mounted(self) -> None:
        if not self._mounted:
            raise FSError(Errno.EINVAL, f"{self.name}: not mounted")

    # -- tracing -----------------------------------------------------------

    def _tracer(self):
        """The span tracer bound to this FS's event stream (or None)."""
        return getattr(self.events, "tracer", None)

    def _span(self, name: str, category: str = "phase", detail: str = ""):
        """Context manager for an FS-internal span (mount phases,
        journal replay, checksum sweeps).  A no-op context when tracing
        is off, so call sites never branch."""
        tracer = self._tracer()
        if tracer is None:
            return contextlib.nullcontext(0)
        return tracer.span(name, category, detail, source=self.name)

    # -- operation framing ------------------------------------------------------

    def _run_modifying(self, body: Callable[[], object], modifying: bool = True):
        self._begin_op(modifying)
        try:
            result = body()
        except KernelPanic:
            self._mounted = False
            raise
        except Exception:
            # Journaling kernels commit whatever the half-finished
            # operation already logged; there is no rollback.
            self._end_op(modifying)
            raise
        self._end_op(modifying)
        return result

    def _run_reading(self, body: Callable[[], object]):
        self._begin_op(modifying=False)
        try:
            return body()
        finally:
            self._end_op(modifying=False)

    def _begin_op(self, modifying: bool) -> None:
        self._ensure_mounted()
        if modifying:
            if self._read_only or (self.journal and self.journal.aborted):
                raise ReadOnlyError()
            if self.journal is not None:
                self.journal.begin()
                tracer = self._tracer()
                if tracer is not None and not self._txn_span:
                    # Floating: the transaction outlives the op that
                    # opened it (async mode batches many ops per txn),
                    # so it must not capture the op-span nesting stack.
                    self._txn_span = tracer.start(
                        f"{self.name}-txn", "txn",
                        source=self.name, floating=True,
                    )

    def _end_op(self, modifying: bool) -> None:
        if not modifying or self.journal is None or self.journal.aborted:
            return
        self._ops_since_commit += 1
        if self.sync_mode:
            self.journal.commit()
            self.journal.checkpoint()
            self._note_commit(self._ops_since_commit)
            self._ops_since_commit = 0
        elif (self._ops_since_commit >= self.commit_every
              or self._journal_pressure()):
            self.journal.commit()
            self._note_commit(self._ops_since_commit)
            self._ops_since_commit = 0

    def _note_commit(self, ops: int) -> None:
        """Emit the typed commit-barrier event (not a syslog line)."""
        self.events.emit(JournalCommitEvent(self.name, ops))
        if self._txn_span:
            tracer = self._tracer()
            if tracer is not None:
                tracer.end(self._txn_span)
            self._txn_span = 0

    def _journal_pressure(self) -> bool:
        """Commit early when the running transaction approaches the
        journal's capacity (JBD does the same)."""
        current = getattr(self.journal, "current", None)
        if current is None:
            return False
        nblocks = getattr(self.journal, "nblocks", 0)
        return len(current.meta) >= max(nblocks // 2, 8)

    # -- generic layer: path walk ------------------------------------------------

    def _lookup(self, path: str, follow: bool = True, _depth: int = 0):
        """Walk *path* to a handle, following symlinks in every
        non-final component (and in the final one when *follow*)."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise FSError(Errno.ELOOP, path)
        resolved = self.resolve(path)
        parts = split_path(resolved)
        handle = self.ROOT
        for i, name in enumerate(parts):
            node = self._node_peek(handle)
            if not self._is_dir(node):
                raise FSError(Errno.ENOTDIR, "/" + "/".join(parts[:i]))
            found = self._dir_find(handle, name, node)
            if found is None:
                raise FSError(Errno.ENOENT, resolved)
            child = found[0]
            cnode = self._node_peek(child)
            if _stat.S_ISLNK(cnode.mode) and (follow or i < len(parts) - 1):
                target = self._read_link(child, cnode)
                if target is None:
                    raise FSError(Errno.ENOENT, "dangling symlink")
                if not target.startswith("/"):
                    target = "/" + "/".join(parts[:i]) + "/" + target
                remainder = "/".join(parts[i + 1:])
                full = target + ("/" + remainder if remainder else "")
                return self._lookup(full, follow=follow, _depth=_depth + 1)
            handle = child
        return handle

    def _node_peek(self, handle):
        return self._node_get(handle)

    @staticmethod
    def _is_dir(node) -> bool:
        return _stat.S_ISDIR(node.mode)

    def _add_links(self, handle, delta: int) -> None:
        node = self._node_get(handle)
        node.links = max(node.links + delta, 0)
        self._node_put(handle, node)

    def _drop_link(self, handle, node) -> None:
        """Take one link off an object whose entry is already gone."""
        if node.links <= 1:
            self._node_drop(handle, node)
        else:
            node.links -= 1
            self._node_put(handle, node)

    # -- generic layer: block-list directories ---------------------------------------

    def _dir_entries(self, handle, node) -> List[Tuple[object, int, str]]:
        out = []
        for bno in self._dir_blocks(handle, node):
            out.extend(self._dir_block_load(bno))
        return out

    def _dir_find(self, handle, name: str, node=None) -> Optional[Tuple[object, int]]:
        for entries in self._dir_lookup_scan(handle, node):
            # Indexed, not unpacked: ext3's entries are a tuple subclass,
            # which the interpreter unpacks the slow way, once per entry.
            for entry in entries:
                if entry[2] == name and self._dir_child_in_range(entry[0]):
                    return entry[0], entry[1]
        return None

    def _dir_block_fits(self, entries, name: str) -> bool:
        used = self._dir_block_header + sum(dirent_size(n) for _, _, n in entries)
        return used + dirent_size(name) <= self.block_size

    def _dir_add(self, handle, name: str, child, ftype: int) -> None:
        node = self._node_get(handle)
        for bno in self._dir_blocks(handle, node):
            entries = self._dir_block_load(bno, modifying=True)
            if self._dir_block_fits(entries, name):
                entries.append((child, ftype, name))
                self._dir_block_store(bno, entries)
                return
        # Grow the directory by one block.
        bs = self.block_size
        fb = (node.size + bs - 1) // bs
        bno = self._dir_block_map(handle, node, fb)
        self._dir_block_store(bno, [(child, ftype, name)])
        node.size = (fb + 1) * bs
        self._node_put(handle, node)

    def _dir_remove(self, handle, name: str) -> None:
        node = self._node_get(handle)
        for bno in self._dir_blocks(handle, node):
            entries = self._dir_block_load(bno, modifying=True)
            kept = [e for e in entries if e[2] != name]
            if len(kept) != len(entries):
                self._dir_block_store(bno, kept)
                return
        raise FSError(Errno.ENOENT, name)

    def _dir_set_dotdot(self, handle, parent) -> None:
        node = self._node_get(handle)
        for bno in self._dir_blocks(handle, node):
            entries = self._dir_block_load(bno, modifying=True)
            if any(e[2] == ".." for e in entries):
                self._dir_block_store(bno, [
                    (parent, FT_DIR, "..") if e[2] == ".." else e for e in entries])
                return

    def _dir_create(self, parent, mode: int):
        """A new directory holding ``.`` and ``..``, two links."""
        child = self._node_create(parent, mode)
        node = self._node_get(child)
        node.links = 2
        bno = self._dir_block_map(child, node, 0)
        self._dir_block_store(bno, [(child, FT_DIR, "."), (parent, FT_DIR, "..")])
        node.size = self.block_size
        self._node_put(child, node)
        return child

    def _stat_of(self, handle) -> StatResult:
        node = self._node_peek(handle)
        mode = node.mode
        if self._is_dir(node):
            # Where "is a directory" lives outside the mode (NTFS: a
            # record flag), stat still reports S_IFDIR.
            mode |= _stat.S_IFDIR
        return StatResult(
            ino=handle, mode=mode, nlink=node.links, uid=node.uid,
            gid=node.gid, size=node.size, atime=node.atime,
            mtime=node.mtime, ctime=node.ctime,
        )

    # -- generic layer: policy hooks ------------------------------------------------

    def _open_check(self, handle, node) -> None:
        """Sanity checks ``open`` applies to the node (ext3: size field)."""

    def _unlink_node(self, handle, node) -> None:
        """What ``unlink`` does to the object once its entry is removed
        (ext3 handles the link count its own, buggy, way)."""
        self._drop_link(handle, node)

    def _rmdir_scan_failed(self) -> bool:
        """The emptiness scan of ``rmdir`` hit an I/O error: return True
        to swallow it and report success (ext3's silent-failure bug)."""
        return False

    def _renamed_ftype(self, ftype: int, node) -> int:
        """File type recorded in the entry ``rename`` creates (ext3
        derives it from the inode instead of keeping the old entry's)."""
        return ftype

    def _node_get_for_update(self, handle):
        """The node read that opens ``write`` and ``truncate`` (ReiserFS
        retries it once, §5.2)."""
        return self._node_get(handle)

    def _truncate_shrink_failed(self) -> bool:
        """Releasing blocks in ``truncate`` hit an I/O error: return
        True to swallow it and report success (ext3's silent-failure
        bug)."""
        return False

    def _mark_clean(self) -> None:
        """What a clean ``unmount`` records once the journal is
        checkpointed (ext3: the superblock state; JFS: a generation)."""

    # -- generic layer: syscalls -----------------------------------------------------

    def creat(self, path: str, mode: int = 0o644) -> int:
        return self._run_modifying(lambda: self._do_creat(path, mode))

    def _do_creat(self, path: str, mode: int) -> int:
        parent_path, name = dirname_basename(self.resolve(path))
        parent = self._lookup(parent_path, follow=True)
        pnode = self._node_get(parent)
        if not self._is_dir(pnode):
            raise FSError(Errno.ENOTDIR, parent_path)
        found = self._dir_find(parent, name, pnode)
        if found is not None:
            child = found[0]
            node = self._node_get(child)
            if self._is_dir(node):
                raise FSError(Errno.EISDIR, path)
            self._node_clear(child, node)
        else:
            child = self._node_create(
                parent, (DEFAULT_FILE_MODE & ~0o777) | (mode & 0o777))
            self._dir_add(parent, name, child, FT_REG)
        return self.fdtable.allocate(child, O_WRONLY)

    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> int:
        def body():
            resolved = self.resolve(path)
            try:
                handle = self._lookup(resolved, follow=True)
            except FSError as exc:
                if exc.errno is Errno.ENOENT and flags & O_CREAT:
                    return self._do_creat(resolved, mode)
                raise
            node = (self._node_get if flags & O_TRUNC else self._node_peek)(handle)
            if self._is_dir(node) and (flags & O_ACCMODE):
                raise FSError(Errno.EISDIR, path)
            self._open_check(handle, node)
            if flags & O_TRUNC and not self._is_dir(node):
                self._node_clear(handle, node)
            return self.fdtable.allocate(handle, flags)
        return self._run_modifying(body, bool(flags & (O_CREAT | O_TRUNC)))

    def close(self, fd: int) -> None:
        self._ensure_mounted()
        self.fdtable.close(fd)

    def read(self, fd: int, size: int, offset: Optional[int] = None) -> bytes:
        return self._run_reading(lambda: self._do_read(fd, size, offset))

    def _do_read(self, fd: int, size: int, offset: Optional[int]) -> bytes:
        of = self.fdtable.get(fd)
        if not of.readable:
            raise FSError(Errno.EBADF, "fd not open for reading")
        if size < 0 or (offset is not None and offset < 0):
            raise FSError(Errno.EINVAL, "negative size or offset")
        node = self._node_peek(of.handle)
        pos = of.offset if offset is None else offset
        end = min(pos + size, node.size)
        if end <= pos:
            return b""
        data = self._file_read(of.handle, node, pos, end)
        if offset is None:
            of.offset = end
        return data

    def _file_read(self, handle, node, pos: int, end: int) -> bytes:
        """Bytes ``pos..end`` of a file (``end`` within its size)."""
        bs = self.block_size
        first, last = pos // bs, (end - 1) // bs
        readahead = last > first
        chunks = []
        for fb in range(first, last + 1):
            chunk = self._file_block_read(handle, node, fb, readahead,
                                          modifying=False)
            lo = pos - fb * bs if fb == first else 0
            hi = end - fb * bs if fb == last else bs
            chunks.append(chunk[lo:hi])
        return b"".join(chunks)

    def write(self, fd: int, data: bytes, offset: Optional[int] = None) -> int:
        return self._run_modifying(lambda: self._do_write(fd, data, offset))

    def _do_write(self, fd: int, data: bytes, offset: Optional[int]) -> int:
        of = self.fdtable.get(fd)
        if not of.writable:
            raise FSError(Errno.EBADF, "fd not open for writing")
        if offset is not None and offset < 0:
            raise FSError(Errno.EINVAL, "negative offset")
        if not data:
            return 0
        node = self._node_get_for_update(of.handle)
        appending = of.flags & O_APPEND
        pos = node.size if appending else (
            of.offset if offset is None else offset)
        if pos + len(data) > self._max_file_bytes:
            raise FSError(Errno.EFBIG, "file would exceed maximum size")
        self._all_or_nothing(
            self._capacity_state(node, pos, pos + len(data)),
            lambda: self._file_write(of.handle, node, pos, data))
        if offset is None or appending:
            of.offset = pos + len(data)
        return len(data)

    def _capacity_state(self, node, pos: int, end: int):
        """What to restore should storing bytes ``pos..end`` of *node*
        run out of free blocks or journal room; None when the store
        certainly fits (and by default: no snapshot is kept)."""
        return None

    def _restore_capacity(self, state) -> None:
        """Put back the in-memory state :meth:`_capacity_state` saved."""

    def _all_or_nothing(self, state, body: Callable[[], None]) -> None:
        """Run *body*, a store :meth:`_capacity_state` returned *state*
        for.  With a snapshot, a store that runs out of blocks, or whose
        transaction would no longer fit the journal, raises ``ENOSPC``
        with the snapshot restored."""
        if state is None:
            body()
            return
        try:
            body()
            if not self.journal.fits():
                raise FSError(Errno.ENOSPC, "transaction larger than the journal")
        except FSError as exc:
            if exc.errno is Errno.ENOSPC:
                self._restore_capacity(state)
            raise

    def _file_write(self, handle, node, pos: int, data: bytes) -> None:
        """Store *data* at *pos*, growing the file when it ends later."""
        end = pos + len(data)
        bs = self.block_size
        first, last = pos // bs, (end - 1) // bs
        written = 0
        for fb in range(first, last + 1):
            lo = pos - fb * bs if fb == first else 0
            hi = end - fb * bs if fb == last else bs
            payload = data[written:written + (hi - lo)]
            bno, fresh = self._file_block_map(handle, node, fb)
            if hi - lo < bs:
                # Read-modify-write of a partial block.
                base = bytearray(
                    self._file_block_read(handle, node, fb, readahead=False,
                                          modifying=True, bno=bno)
                    if fb * bs < node.size else bytes(bs))
                base[lo:hi] = payload
                payload = bytes(base)
            self._file_block_store(handle, node, fb, bno, payload, fresh)
            written += hi - lo
        if end > node.size:
            node.size = end
        node.mtime += 1.0
        self._node_put(handle, node)

    def truncate(self, path: str, size: int) -> None:
        self._run_modifying(lambda: self._do_truncate(path, size))

    def _do_truncate(self, path: str, size: int) -> None:
        if size < 0:
            raise FSError(Errno.EINVAL, "negative size")
        handle = self._lookup(path, follow=True)
        node = self._node_get_for_update(handle)
        if self._is_dir(node):
            raise FSError(Errno.EISDIR, path)
        if size > self._max_file_bytes:
            raise FSError(Errno.EFBIG, "file would exceed maximum size")
        self._file_truncate(handle, node, size)

    def _file_truncate(self, handle, node, size: int) -> None:
        if size < node.size:
            try:
                self._node_shrink(handle, node, size)
            except FSError:
                if self._truncate_shrink_failed():
                    return
                raise
        node.size = size
        node.mtime += 1.0
        self._node_put(handle, node)

    def _node_clear(self, handle, node) -> None:
        self._node_shrink(handle, node, 0)
        node.size = 0
        self._node_put(handle, node)

    def symlink(self, target: str, linkpath: str) -> None:
        self._run_modifying(lambda: self._do_symlink(target, linkpath))

    def _do_symlink(self, target: str, linkpath: str) -> None:
        raw = target.encode()
        if len(raw) > self.block_size:
            raise FSError(Errno.ENAMETOOLONG, "symlink target too long")
        parent_path, name = dirname_basename(self.resolve(linkpath))
        parent = self._lookup(parent_path, follow=True)
        if self._dir_find(parent, name) is not None:
            raise FSError(Errno.EEXIST, linkpath)
        child = self._symlink_create(parent, raw)
        self._dir_add(parent, name, child, FT_SYMLINK)

    def _symlink_create(self, parent, raw: bytes):
        """A new symlink object whose one-block body is *raw*."""
        child = self._node_create(parent, DEFAULT_LINK_MODE)
        node = self._node_get(child)
        bno, fresh = self._file_block_map(child, node, 0)
        self._file_block_store(child, node, 0, bno,
                               raw.ljust(self.block_size, b"\x00"), fresh)
        node.size = len(raw)
        self._node_put(child, node)
        return child

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._run_modifying(lambda: self._do_mkdir(path, mode))

    def _do_mkdir(self, path: str, mode: int) -> None:
        parent_path, name = dirname_basename(self.resolve(path))
        parent = self._lookup(parent_path, follow=True)
        pnode = self._node_get(parent)
        if not self._is_dir(pnode):
            raise FSError(Errno.ENOTDIR, parent_path)
        if self._dir_find(parent, name, pnode) is not None:
            raise FSError(Errno.EEXIST, path)
        child = self._dir_create(
            parent, (DEFAULT_DIR_MODE & ~0o777) | (mode & 0o777))
        self._dir_add(parent, name, child, FT_DIR)
        self._add_links(parent, +1)

    def link(self, existing: str, new: str) -> None:
        def body():
            src = self._lookup(existing, follow=False)
            node = self._node_get(src)
            if self._is_dir(node):
                raise FSError(Errno.EPERM, "hard links to directories are not allowed")
            parent_path, name = dirname_basename(self.resolve(new))
            parent = self._lookup(parent_path, follow=True)
            if self._dir_find(parent, name) is not None:
                raise FSError(Errno.EEXIST, new)
            self._dir_add(parent, name, src, FT_REG)
            node.links += 1
            self._node_put(src, node)
        self._run_modifying(body)

    def unlink(self, path: str) -> None:
        def body():
            parent_path, name = dirname_basename(self.resolve(path))
            parent = self._lookup(parent_path, follow=True)
            found = self._dir_find(parent, name)
            if found is None:
                raise FSError(Errno.ENOENT, path)
            child = found[0]
            node = self._node_get(child)
            if self._is_dir(node):
                raise FSError(Errno.EISDIR, path)
            self._dir_remove(parent, name)
            self._unlink_node(child, node)
        self._run_modifying(body)

    def rmdir(self, path: str) -> None:
        def body():
            resolved = self.resolve(path)
            if resolved == "/":
                raise FSError(Errno.EINVAL, "cannot remove root")
            parent_path, name = dirname_basename(resolved)
            parent = self._lookup(parent_path, follow=True)
            found = self._dir_find(parent, name)
            if found is None:
                raise FSError(Errno.ENOENT, path)
            child = found[0]
            node = self._node_get(child)
            if not self._is_dir(node):
                raise FSError(Errno.ENOTDIR, path)
            try:
                entries = self._dir_entries(child, node)
            except FSError:
                if self._rmdir_scan_failed():
                    return
                raise
            if any(n not in (".", "..") for _, _, n in entries):
                raise FSError(Errno.ENOTEMPTY, path)
            self._dir_remove(parent, name)
            self._node_drop(child, node)
            self._add_links(parent, -1)
        self._run_modifying(body)

    def rename(self, old: str, new: str) -> None:
        def body():
            old_r, new_r = self.resolve(old), self.resolve(new)
            if is_ancestor(old_r, new_r) and old_r != new_r:
                raise FSError(Errno.EINVAL, "cannot move a directory into itself")
            old_pp, old_name = dirname_basename(old_r)
            new_pp, new_name = dirname_basename(new_r)
            old_parent = self._lookup(old_pp, follow=True)
            found = self._dir_find(old_parent, old_name)
            if found is None:
                raise FSError(Errno.ENOENT, old)
            if old_r == new_r:
                return  # renaming an existing name onto itself: no-op
            moving, ftype = found
            mnode = self._node_get(moving)
            moving_is_dir = self._is_dir(mnode)
            new_parent = self._lookup(new_pp, follow=True)
            target = self._dir_find(new_parent, new_name)
            if target is not None:
                victim = target[0]
                vnode = self._node_get(victim)
                if self._is_dir(vnode):
                    if not moving_is_dir:
                        raise FSError(Errno.EISDIR, new)
                    kids = self._dir_entries(victim, vnode)
                    if any(n not in (".", "..") for _, _, n in kids):
                        raise FSError(Errno.ENOTEMPTY, new)
                    self._dir_remove(new_parent, new_name)
                    self._node_drop(victim, vnode)
                    self._add_links(new_parent, -1)
                else:
                    if moving_is_dir:
                        raise FSError(Errno.ENOTDIR, new)
                    self._dir_remove(new_parent, new_name)
                    self._drop_link(victim, vnode)
            self._dir_remove(old_parent, old_name)
            self._dir_add(new_parent, new_name, moving,
                          self._renamed_ftype(ftype, mnode))
            if moving_is_dir and old_parent != new_parent:
                self._dir_set_dotdot(moving, new_parent)
                self._add_links(old_parent, -1)
                self._add_links(new_parent, +1)
        self._run_modifying(body)

    def getdirentries(self, path: str) -> List[str]:
        def body():
            handle = self._lookup(path, follow=True)
            node = self._node_peek(handle)
            if not self._is_dir(node):
                raise FSError(Errno.ENOTDIR, path)
            return [name for _, _, name in self._dir_entries(handle, node)]
        return self._run_reading(body)

    def readlink(self, path: str) -> str:
        def body():
            handle = self._lookup(path, follow=False)
            node = self._node_peek(handle)
            if not _stat.S_ISLNK(node.mode):
                raise FSError(Errno.EINVAL, "not a symlink")
            return self._read_link(handle, node) or ""
        return self._run_reading(body)

    def stat(self, path: str) -> StatResult:
        return self._run_reading(
            lambda: self._stat_of(self._lookup(path, follow=True)))

    def lstat(self, path: str) -> StatResult:
        return self._run_reading(
            lambda: self._stat_of(self._lookup(path, follow=False)))

    def _update_node(self, path: str, change: Callable[[object], None]) -> None:
        def body():
            handle = self._lookup(path, follow=True)
            node = self._node_get(handle)
            change(node)
            self._node_put(handle, node)
        self._run_modifying(body)

    def chmod(self, path: str, mode: int) -> None:
        def change(node):
            node.mode = (node.mode & ~0o7777) | (mode & 0o7777)
        self._update_node(path, change)

    def chown(self, path: str, uid: int, gid: int) -> None:
        def change(node):
            node.uid, node.gid = uid, gid
        self._update_node(path, change)

    def utimes(self, path: str, atime: float, mtime: float) -> None:
        def change(node):
            node.atime, node.mtime = atime, mtime
        self._update_node(path, change)

    def statfs(self) -> StatVFS:
        self._ensure_mounted()
        return StatVFS(self.block_size, *self._space_counts())

    # -- unmount / sync / crash ----------------------------------------------------

    def unmount(self) -> None:
        self._ensure_mounted()
        if not self._read_only:
            self.journal.commit()
            self.journal.checkpoint()
            self._mark_clean()
        self.fdtable.close_all()
        self._mounted = False
        self._drop_types()

    def sync(self) -> None:
        self._ensure_mounted()
        if self._read_only:
            return
        self.journal.commit()
        self.journal.checkpoint()
        self._note_commit(self._ops_since_commit)
        self._ops_since_commit = 0
        flush = getattr(self.device, "flush", None)
        if flush is not None:
            flush()

    def fsync(self, fd: int) -> None:
        self._ensure_mounted()
        self.fdtable.get(fd)
        if self._read_only:
            raise ReadOnlyError()
        self.journal.commit()
        if self.sync_mode:
            self.journal.checkpoint()
        self._note_commit(self._ops_since_commit)

    def commit_transaction(self) -> None:
        """Commit the running transaction to the log *without*
        checkpointing it to home locations.

        This is the crash-engine's epoch barrier: the transaction is
        durable in the write-ahead log (recovery will replay it) while
        its home-location writes remain pending, which is exactly the
        window crash-state exploration enumerates.
        """
        self._ensure_mounted()
        if self._read_only:
            raise ReadOnlyError()
        self.journal.commit()
        self._note_commit(self._ops_since_commit)
        self._ops_since_commit = 0

    def crash(self) -> None:
        """Power loss: volatile state vanishes; the on-disk log remains."""
        if self.journal is not None:
            self.journal.crash()
        self.fdtable.close_all()
        self._mounted = False
        self._read_only = False
        if self._txn_span:
            tracer = self._tracer()
            if tracer is not None:
                tracer.end(self._txn_span, "error")
            self._txn_span = 0

    def crash_after(self, ops) -> None:
        """Run *ops* committed-but-not-checkpointed, then crash."""
        self._ensure_mounted()
        self.sync()
        saved = self.sync_mode
        self.sync_mode = False
        try:
            ops(self)
            self.journal.commit()
            self._note_commit(self._ops_since_commit)
        finally:
            self.sync_mode = saved
        self.crash()

    # -- gray-box disk access ------------------------------------------------------

    def _stall(self, seconds: float) -> None:
        stall = getattr(self.device, "stall", None)
        if stall is not None:
            stall(seconds)

    def _raw_disk(self):
        dev = self.device
        while dev is not None and not hasattr(dev, "peek"):
            dev = getattr(dev, "lower", None)
        return dev

    # -- gray-box block-type oracle ------------------------------------------------
    #
    # The type-map methods: the only code that touches ``_types`` and
    # ``_jtypes`` (``tools/lint_generic_ops.py``), so the overlay sees
    # every mutation.

    def _relearn_types(self) -> None:
        """Relearn the dynamic block-type map as the device holds it
        now (gray-box knowledge for the fingerprinting harness and
        ixt3's verified reads; generates no device traffic), but walk
        only at the first :meth:`_type_of`, :meth:`_jtype_of` or
        :meth:`_types_state`.  Recorded meanwhile: a frozen view of the
        device, the :meth:`_types_key` inputs and an empty overlay that
        takes every mutation (DESIGN.md, "Block-type maps on first
        use").  A device with no frozen view is walked at once.
        """
        raw = self._raw_disk()
        freeze = getattr(raw, "frozen_view", None)
        if freeze is not None:
            self._types_pending = (freeze(), self._types_key(), {}, {})
            return
        # One with no gray-box access at all is read through the front door.
        read = (getattr(raw, "peek_view", None) or getattr(raw, "peek", None)
                or self.device.read_block)
        self._types_pending = None
        self._types, self._jtypes = self._walk_types(
            _WalkPeek(read, self._types_key()))

    def _load_types(self) -> None:
        """Run the pending walk, then apply its overlay."""
        view, key, types_over, jtypes_over = self._types_pending
        self._types_pending = None
        types, jtypes = self._walk_memoised(view, key)
        for block, kind in types_over.items():
            if kind is None:
                types.pop(block, None)
            else:
                types[block] = kind
        jtypes.update(jtypes_over)
        self._types, self._jtypes = types, jtypes

    def _walk_memoised(self, view, key: tuple
                       ) -> Tuple[Dict[int, str], Dict[int, str]]:
        """``_walk_types`` over the frozen *view* with the captured *key*.

        The walk is a pure function of the blocks it peeks plus the
        key, so its result is memoized on the view's base
        :class:`~repro.disk.disk.SlabImage`, next to the ordered blocks
        it peeked *and* the contents of whichever of them were
        privatized (the delta fingerprint).  A later walk reuses an
        entry when the frozen dirty-dependency contents match the
        entry's fingerprint exactly — the clean case (hundreds of
        restores of one golden image per fingerprint matrix) and crash
        states that recover to identical journal/inode-table contents.
        Soundness: the walk only ever reads dependency blocks,
        dependency-block reads determine which further blocks become
        dependencies, and clean dependencies carry immutable base-image
        contents — so equal fingerprints imply the walk would observe
        identical bytes throughout.  A view with no base image just
        runs the walk.
        """
        entries = None
        if view.meta is not None:
            memo_key = (type(self).__name__, self.device.num_blocks) + key
            entries = view.meta.setdefault(memo_key, [])
            for i in range(len(entries) - 1, -1, -1):
                deps, fp, types, jtypes = entries[i]
                if view.fingerprint_matches(deps, fp):
                    # Most recently used last: a crash exploration
                    # inserts one never-reused entry per state, which
                    # must not push out the few images states recover to.
                    entries.append(entries.pop(i))
                    return dict(types), dict(jtypes)
        peek = _WalkPeek(view.peek_view, key)
        types, jtypes = self._walk_types(peek)
        if entries is not None:
            deps = tuple(peek.deps)
            entries.append((deps, view.dirty_contents(deps),
                            dict(types), dict(jtypes)))
            if len(entries) > 16:
                del entries[0]
        return types, jtypes

    def _drop_types(self) -> None:
        """Unmount: forget the map and any pending walk."""
        self._types_pending = None
        self._types, self._jtypes = {}, {}

    def _walk_key(self, peek) -> tuple:
        """The :meth:`_types_key` a walk uses: the one captured with its
        view (replay may have moved the superblock or tree root since),
        or the current one for a walk handed a live device's peek."""
        return peek.key if isinstance(peek, _WalkPeek) else self._types_key()

    def _type_of(self, block: int) -> Optional[str]:
        """The dynamic label of *block*, or None."""
        if self._types_pending is not None:
            self._load_types()
        return self._types.get(block)

    def _jtype_of(self, block: int) -> str:
        """The role of journal block *block* (``j-data`` by default)."""
        if self._types_pending is not None:
            self._load_types()
        return self._jtypes.get(block, "j-data")

    def _set_type(self, block: int, kind: str) -> None:
        pending = self._types_pending
        (self._types if pending is None else pending[2])[block] = kind

    def _forget_type(self, block: int) -> None:
        pending = self._types_pending
        if pending is None:
            self._types.pop(block, None)
        else:
            pending[2][block] = None

    def _set_jtype(self, block: int, jtype: str) -> None:
        """The journal's ``set_type`` callback."""
        pending = self._types_pending
        (self._jtypes if pending is None else pending[3])[block] = jtype

    def _types_state(self) -> Dict[int, str]:
        """A copy of the dynamic map, for :meth:`_capacity_state`."""
        if self._types_pending is not None:
            self._load_types()
        return dict(self._types)

    def _restore_types(self, saved: Dict[int, str]) -> None:
        """Put back a :meth:`_types_state` copy (ENOSPC rollback)."""
        self._types_pending = None
        self._types = saved


class _WalkPeek:
    """The ``peek`` a block-type walk is handed: reads one block of the
    view being walked, records it as a dependency, and carries the
    :meth:`JournaledFS._types_key` captured with the view."""

    __slots__ = ("read", "key", "deps")

    def __init__(self, read: Callable, key: tuple):
        self.read = read
        self.key = key
        self.deps: List[int] = []

    def __call__(self, block: int):
        self.deps.append(block)
        return self.read(block)
