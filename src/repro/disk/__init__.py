"""The disk substrate: simulated drive, timing model, fault injection."""

from repro.disk.cache import BlockCache
from repro.disk.disk import (
    BlockDevice,
    DiskStats,
    SimulatedDisk,
    SlabImage,
    make_disk,
)
from repro.disk.faults import (
    CorruptionMode,
    Fault,
    FaultKind,
    FaultOp,
    Persistence,
    corruption,
    read_failure,
    write_failure,
)
from repro.disk.geometry import DiskGeometry
from repro.disk.injector import FaultInjector
from repro.disk.recorder import WriteRecorder
from repro.disk.stack import DeviceStack

__all__ = [
    "BlockCache",
    "BlockDevice",
    "CorruptionMode",
    "DeviceStack",
    "DiskGeometry",
    "DiskStats",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultOp",
    "Persistence",
    "SimulatedDisk",
    "SlabImage",
    "WriteRecorder",
    "corruption",
    "make_disk",
    "read_failure",
    "write_failure",
]
