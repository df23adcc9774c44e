"""Shared substrate: errors, units, bitmaps, checksums, and the syslog."""

from repro.common.bitmap import Bitmap
from repro.common.checksum import crc32, sha1, transaction_checksum
from repro.common.errors import (
    CorruptionDetected,
    DiskError,
    Errno,
    FSError,
    KernelPanic,
    OutOfRangeError,
    ReadError,
    ReadOnlyError,
    StorageError,
    WriteError,
)
from repro.common.syslog import Severity, SysLog
from repro.common.units import DEFAULT_BLOCK_SIZE, GB, KB, MB

__all__ = [
    "Bitmap",
    "CorruptionDetected",
    "DEFAULT_BLOCK_SIZE",
    "DiskError",
    "Errno",
    "FSError",
    "GB",
    "KB",
    "KernelPanic",
    "MB",
    "OutOfRangeError",
    "ReadError",
    "ReadOnlyError",
    "Severity",
    "StorageError",
    "SysLog",
    "WriteError",
    "crc32",
    "sha1",
    "transaction_checksum",
]
