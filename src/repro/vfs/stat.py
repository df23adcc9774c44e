"""Stat structures returned through the VFS API."""

from __future__ import annotations

import stat as _stat
from dataclasses import dataclass

S_IFDIR = _stat.S_IFDIR
S_IFREG = _stat.S_IFREG
S_IFLNK = _stat.S_IFLNK

#: Default permission bits for newly created objects.
DEFAULT_FILE_MODE = S_IFREG | 0o644
DEFAULT_DIR_MODE = S_IFDIR | 0o755
DEFAULT_LINK_MODE = S_IFLNK | 0o777

#: Directory-entry file types (the ext2 ``d_type`` values every format
#: in this repo stores in its entries).
FT_REG, FT_DIR, FT_SYMLINK = 1, 2, 7

R_OK = 4
W_OK = 2
X_OK = 1
F_OK = 0


@dataclass(frozen=True)
class StatResult:
    """Result of ``stat``/``lstat`` — the fields workloads compare."""

    ino: int
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    atime: float
    mtime: float
    ctime: float

    @property
    def is_dir(self) -> bool:
        return _stat.S_ISDIR(self.mode)

    @property
    def is_file(self) -> bool:
        return _stat.S_ISREG(self.mode)

    @property
    def is_symlink(self) -> bool:
        return _stat.S_ISLNK(self.mode)

    @property
    def perm_bits(self) -> int:
        return _stat.S_IMODE(self.mode)


@dataclass(frozen=True)
class StatVFS:
    """Result of ``statfs`` — capacity accounting for the volume."""

    block_size: int
    total_blocks: int
    free_blocks: int
    total_inodes: int
    free_inodes: int

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks
