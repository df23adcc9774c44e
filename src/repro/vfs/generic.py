"""The *generic* file-system layer (Figure 1's upper half).

Real kernels split file-system code into a generic component shared by
all file systems and a specific component per file system.  The paper
identifies this split as a driver of *failure-policy diffusion*: the
generic layer has its own failure handling (e.g. the generic code JFS
calls retries failed metadata reads exactly once) that may disagree
with the specific layer's policy.

We reproduce the split: every simulated file system reads buffers
through a :class:`BufferLayer` configured with *its* kernel's generic
retry policy, while the FS-specific code above layers its own checks —
so inconsistent combinations arise exactly the way the paper describes.
The other shared piece, the path walk and the namespace syscalls, is
:class:`repro.fs.base.JournaledFS`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import DiskError
from repro.common.syslog import Severity, SysLog
from repro.disk.disk import BlockDevice


class BufferLayer:
    """Block reads/writes with a configurable generic retry policy.

    ``read_retries`` / ``write_retries`` are *extra* attempts after the
    first failure (NTFS reads use up to 6 extra attempts — "up to seven
    times"; the Linux generic layer used by JFS retries once; ext3 and
    ReiserFS never retry through this layer).
    """

    def __init__(
        self,
        device: BlockDevice,
        syslog: SysLog,
        source: str,
        read_retries: int = 0,
        write_retries: int = 0,
    ):
        self.device = device
        self.syslog = syslog
        self.source = source
        self.read_retries = read_retries
        self.write_retries = write_retries

    @property
    def block_size(self) -> int:
        return self.device.block_size

    def bread(self, block: int, retries: Optional[int] = None) -> bytes:
        """Read one block, retrying per the generic policy.  Raises
        :class:`ReadError` after all attempts fail."""
        attempts = 1 + (self.read_retries if retries is None else retries)
        # The last attempt runs outside any handler: an error kept past
        # one would hold, by its traceback, the frame holding it (a cycle).
        for attempt in range(1, attempts):
            try:
                return self.device.read_block(block)
            except DiskError:
                self.syslog.recovery(
                    self.source, "read-retry",
                    f"retrying read of block {block} (attempt {attempt + 1})",
                    mechanism="retry", severity=Severity.WARNING,
                    block=block,
                )
        return self.device.read_block(block)

    def bwrite(self, block: int, data: bytes, retries: Optional[int] = None) -> None:
        """Write one block, retrying per the generic policy."""
        attempts = 1 + (self.write_retries if retries is None else retries)
        for attempt in range(1, attempts):
            try:
                self.device.write_block(block, data)
                return
            except DiskError:
                self.syslog.recovery(
                    self.source, "write-retry",
                    f"retrying write of block {block} (attempt {attempt + 1})",
                    mechanism="retry", severity=Severity.WARNING,
                    block=block,
                )
        self.device.write_block(block, data)

    def bwrite_nocheck(self, block: int, data: bytes) -> None:
        """Issue a write and *discard the return code* — detection level
        D_zero.  This is how ext3, JFS and (for user data) NTFS handle
        write errors in the study; the error vanishes here, exactly as it
        does in those kernels."""
        try:
            self.device.write_block(block, data)
        except DiskError:
            pass
