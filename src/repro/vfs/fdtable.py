"""Open-file bookkeeping shared by all simulated file systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.errors import Errno, FSError

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_ACCMODE = 3
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000


@dataclass
class OpenFile:
    """State of one open descriptor.  ``handle`` is whatever the file
    system names its objects by (inode number, MFT number, key pair)."""

    handle: object
    flags: int
    offset: int = 0

    @property
    def readable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_WRONLY, O_RDWR)


@dataclass
class FDTable:
    """Allocates small integer descriptors, POSIX-style (lowest free)."""

    _open: Dict[int, OpenFile] = field(default_factory=dict)
    _next_hint: int = 3  # 0-2 notionally reserved for std streams

    def allocate(self, handle, flags: int) -> int:
        fd = self._next_hint
        while fd in self._open:
            fd += 1
        self._open[fd] = OpenFile(handle=handle, flags=flags)
        return fd

    def get(self, fd: int) -> OpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise FSError(Errno.EBADF, f"fd {fd} is not open") from None

    def close(self, fd: int) -> OpenFile:
        if fd not in self._open:
            raise FSError(Errno.EBADF, f"fd {fd} is not open")
        return self._open.pop(fd)

    def close_all(self) -> None:
        self._open.clear()

    def __len__(self) -> int:
        return len(self._open)
