"""The VFS interface every simulated file system implements.

Mirrors the system-call surface the fingerprinting workloads exercise
(Table 3): the *singlets* each stress one call; the *generics* (path
traversal, recovery, log writes) span many.  The interface also exposes
the gray-box hooks fingerprinting needs: a block-type oracle and the
list of on-disk block types (Table 4).
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, List, Optional

from repro.common.errors import Errno, FSError
from repro.vfs.fdtable import O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.vfs.paths import normalize
from repro.vfs.stat import F_OK, StatResult, StatVFS

#: The syscall surface auto-wrapped in trace spans (category ``op``).
#: Every concrete override of these methods gets span instrumentation
#: via :meth:`FileSystem.__init_subclass__` — file systems never
#: hand-instrument their entry points.
_TRACED_OPS = frozenset({
    "mount", "unmount", "sync",
    "creat", "open", "close", "read", "write", "truncate",
    "link", "unlink", "symlink", "readlink",
    "mkdir", "rmdir", "rename", "getdirentries",
    "stat", "lstat", "statfs", "chmod", "chown", "utimes", "fsync",
})


def _trace_op(name: str, fn):
    """Wrap one syscall implementation in an op span.

    The fast path — no tracer bound to the FS's event stream — is two
    attribute probes and a call, so untraced runs (the default) keep
    their behaviour and event digests exactly.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer = getattr(getattr(self, "events", None), "tracer", None)
        if tracer is None:
            return fn(self, *args, **kwargs)
        detail = ""
        if args and isinstance(args[0], (str, int)):
            detail = str(args[0])
        span_id = tracer.start(name, "op", detail=detail,
                               source=getattr(self, "name", "fs"))
        try:
            result = fn(self, *args, **kwargs)
        except BaseException:
            tracer.end(span_id, "error")
            raise
        tracer.end(span_id)
        return result

    wrapper._repro_traced = True
    return wrapper


class FileSystem(abc.ABC):
    """Abstract file system: namespace + file I/O + lifecycle + gray-box.

    Paths are ``/``-separated; relative paths resolve against the
    per-mount ``cwd`` maintained by :meth:`chdir` (and clamped by
    :meth:`chroot`), so the path-traversal workload behaves as on a real
    system.
    """

    #: Human name ("ext3", "reiserfs", "jfs", "ntfs", "ixt3").
    name: str = "abstract"
    #: Table-4 inventory: block type -> purpose.
    BLOCK_TYPES: Dict[str, str] = {}

    def __init_subclass__(cls, **kwargs):
        """Auto-instrument the syscall surface with trace spans.

        Each method of :data:`_TRACED_OPS` *defined by this subclass*
        is wrapped once (inherited already-wrapped methods are left
        alone), so every file system — including ones defined in tests
        — emits op spans when tracing is enabled on its event stream,
        with zero per-FS code.
        """
        super().__init_subclass__(**kwargs)
        for name in _TRACED_OPS:
            fn = cls.__dict__.get(name)
            if (
                fn is None
                or not callable(fn)
                or getattr(fn, "_repro_traced", False)
                or getattr(fn, "__isabstractmethod__", False)
            ):
                continue
            setattr(cls, name, _trace_op(name, fn))

    # -- lifecycle -----------------------------------------------------------

    @abc.abstractmethod
    def mount(self) -> None:
        """Attach to the device: read the superblock, recover the journal."""

    @abc.abstractmethod
    def unmount(self) -> None:
        """Flush and detach."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Force dirty state to disk (commit the running transaction)."""

    @property
    @abc.abstractmethod
    def mounted(self) -> bool: ...

    @property
    @abc.abstractmethod
    def read_only(self) -> bool:
        """True after the FS degraded itself to read-only (R_stop)."""

    # -- namespace operations --------------------------------------------------

    @abc.abstractmethod
    def creat(self, path: str, mode: int = 0o644) -> int: ...

    @abc.abstractmethod
    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int: ...

    @abc.abstractmethod
    def close(self, fd: int) -> None: ...

    @abc.abstractmethod
    def read(self, fd: int, size: int, offset: Optional[int] = None) -> bytes: ...

    @abc.abstractmethod
    def write(self, fd: int, data: bytes, offset: Optional[int] = None) -> int: ...

    @abc.abstractmethod
    def truncate(self, path: str, size: int) -> None: ...

    @abc.abstractmethod
    def link(self, existing: str, new: str) -> None: ...

    @abc.abstractmethod
    def unlink(self, path: str) -> None: ...

    @abc.abstractmethod
    def symlink(self, target: str, linkpath: str) -> None: ...

    @abc.abstractmethod
    def readlink(self, path: str) -> str: ...

    @abc.abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None: ...

    @abc.abstractmethod
    def rmdir(self, path: str) -> None: ...

    @abc.abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    @abc.abstractmethod
    def getdirentries(self, path: str) -> List[str]: ...

    @abc.abstractmethod
    def stat(self, path: str) -> StatResult: ...

    @abc.abstractmethod
    def lstat(self, path: str) -> StatResult: ...

    @abc.abstractmethod
    def statfs(self) -> StatVFS: ...

    @abc.abstractmethod
    def chmod(self, path: str, mode: int) -> None: ...

    @abc.abstractmethod
    def chown(self, path: str, uid: int, gid: int) -> None: ...

    @abc.abstractmethod
    def utimes(self, path: str, atime: float, mtime: float) -> None: ...

    @abc.abstractmethod
    def fsync(self, fd: int) -> None: ...

    # -- cwd / root (implemented here; lookup is in JournaledFS) -----------------

    def __init__(self) -> None:
        self.cwd = "/"
        self.root = "/"

    def chdir(self, path: str) -> None:
        """Change the working directory (validates the target is a dir)."""
        target = self.resolve(path)
        st = self.stat(target)
        if not st.is_dir:
            raise FSError(Errno.ENOTDIR, path)
        self.cwd = target

    def chroot(self, path: str) -> None:
        """Confine subsequent lookups beneath *path*."""
        target = self.resolve(path)
        st = self.stat(target)
        if not st.is_dir:
            raise FSError(Errno.ENOTDIR, path)
        self.root = target
        self.cwd = target

    def resolve(self, path: str) -> str:
        """Resolve *path*: absolute paths are interpreted beneath the
        (chroot) root; relative paths against the cwd; ``..`` cannot
        escape the root."""
        if path.startswith("/"):
            root = self.root.rstrip("/")
            if self.root != "/" and (path == self.root or path.startswith(root + "/")):
                # Already a resolved real path (internal re-resolution).
                resolved = normalize(path)
            else:
                resolved = normalize(root + "/" + path.lstrip("/"))
        else:
            resolved = normalize(path, self.cwd)
        if self.root != "/" and not (
            resolved == self.root or resolved.startswith(self.root.rstrip("/") + "/")
        ):
            resolved = self.root
        return resolved

    def access(self, path: str, mode: int = F_OK) -> bool:
        """POSIX ``access``: existence plus permission-bit check."""
        try:
            st = self.stat(path)
        except FSError:
            return False
        if mode == F_OK:
            return True
        # Owner-class permission check (single-user simulation).
        perm = (st.perm_bits >> 6) & 0o7
        return (perm & mode) == mode

    # -- crash simulation (used by the recovery workload) -------------------------

    def crash(self) -> None:
        """Simulate power loss: drop volatile state without flushing."""
        raise NotImplementedError(f"{self.name} does not support crash simulation")

    def crash_after(self, ops) -> None:
        """Run *ops* so their effects are durable in the write-ahead log
        but not yet checkpointed to home locations, then crash.  Used to
        prepare images for the FS-recovery workload."""
        raise NotImplementedError(f"{self.name} does not support crash simulation")

    # -- gray-box hooks for fingerprinting ---------------------------------------

    @abc.abstractmethod
    def block_type(self, block: int) -> Optional[str]:
        """Current role of *block* (the type oracle for fault injection)."""

    def redundancy_types(self) -> List[str]:
        """Block types that hold redundant copies; reads of these during
        recovery are inferred as R_redundancy.  Empty for most systems —
        the paper's headline finding."""
        return []

    # -- convenience helpers used by workloads and examples -----------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create/overwrite *path* with *data* (helper, not a syscall)."""
        fd = self.open(path, O_WRONLY | O_CREAT)
        try:
            self.truncate_fd_zero(fd, path)
            self.write(fd, data, offset=0)
        finally:
            try:
                self.close(fd)
            except FSError:
                pass  # never mask the original failure (e.g. a panic)

    def truncate_fd_zero(self, fd: int, path: str) -> None:
        """Hook for write_file; default goes through truncate(path, 0)."""
        self.truncate(path, 0)

    def read_file(self, path: str) -> bytes:
        fd = self.open(path, O_RDONLY)
        try:
            st = self.stat(path)
            return self.read(fd, st.size, offset=0)
        finally:
            try:
                self.close(fd)
            except FSError:
                pass

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except FSError:
            return False


__all__ = [
    "FileSystem",
    "O_CREAT",
    "O_RDONLY",
    "O_RDWR",
    "O_WRONLY",
]
