"""Per-file-system adapters for the fingerprinting harness.

Each adapter supplies mkfs, a factory, the Figure-2 row order, and a
*field corruptor* — the FS-aware corruption that produces a "block
similar to the expected one but with one or more corrupted fields"
(§4.2), the misdirected-write-style damage that plain type checks
cannot catch.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.structs import U16, U32
from repro.disk.disk import SimulatedDisk, make_disk
from repro.fs.ext3 import Ext3, Ext3Config, mkfs_ext3
from repro.fs.ext3.structures import Inode as Ext3Inode
from repro.fs.ext3.config import INODE_SIZE
from repro.fs.ixt3 import ALL_FEATURES, Ixt3, ixt3_config, mkfs_ixt3
from repro.fs.jfs import JFS, JFSConfig, mkfs_jfs
from repro.fs.ntfs import NTFS, NTFSConfig, mkfs_ntfs
from repro.fs.reiserfs import ReiserConfig, ReiserFS, mkfs_reiserfs
from repro.fingerprint.harness import FSAdapter


def _disk_factory(cfg) -> Callable[[], SimulatedDisk]:
    """A factory of blank disks with *cfg*'s block count and size."""
    return lambda: make_disk(cfg.total_blocks, cfg.block_size)


#: Small geometry: deep indirect chains reachable with tiny images.
EXT3_FINGERPRINT_CONFIG = Ext3Config(
    block_size=1024,
    blocks_per_group=256,
    inodes_per_group=64,
    num_groups=2,
    journal_blocks=64,
    ptrs_per_block=8,
)

EXT3_FIGURE_ROWS = [
    "inode", "dir", "bitmap", "i-bitmap", "indirect", "data", "super",
    "g-desc", "j-super", "j-revoke", "j-desc", "j-commit", "j-data",
]


def ext3_field_corruptor(payload: bytes, block_type: str) -> bytes:
    """Corrupt one field of an ext3 block, leaving it plausible."""
    raw = bytearray(payload)
    if block_type == "inode":
        # Blast every inode slot: overly-large size field and a zeroed
        # link count — the two corruptions §5.1 discusses.
        for off in range(0, len(raw) - INODE_SIZE + 1, INODE_SIZE):
            inode = Ext3Inode.unpack(bytes(raw[off:off + INODE_SIZE]))
            if not inode.is_allocated:
                continue
            inode.size = 1 << 60
            inode.links = 0
            raw[off:off + INODE_SIZE] = inode.pack()
        return bytes(raw)
    if block_type == "dir":
        # Entries pointing at out-of-range inodes with garbage names.
        garbage = U32.pack(0xDEADBEEF) + bytes((4, 1)) + b"zzzz"
        raw[:len(garbage)] = garbage
        return bytes(raw)
    if block_type == "indirect":
        # Pointers redirected far out of the volume.
        for off in range(0, min(len(raw), 32), 4):
            raw[off:off + 4] = U32.pack(0x7FFFFFF0 + off)
        return bytes(raw)
    if block_type in ("bitmap", "i-bitmap"):
        # All-allocated bitmap: silently eats free space.
        return b"\xff" * len(raw)
    if block_type == "super":
        # Magic destroyed: the type check should catch this one.
        raw[0:4] = U32.pack(0x0BAD0BAD)
        return bytes(raw)
    if block_type.startswith("j-"):
        # Journal block with its magic destroyed.
        raw[0:4] = U32.pack(0x0BAD0BAD)
        return bytes(raw)
    # data / g-desc / anything else: flip a swath of bytes.
    for i in range(0, min(64, len(raw))):
        raw[i] ^= 0x5A
    return bytes(raw)


REISER_FINGERPRINT_CONFIG = ReiserConfig(
    block_size=1024,
    total_blocks=768,
    journal_blocks=64,
    max_leaf_items=8,
    max_fanout=6,
    indirect_ptrs_per_item=16,
    tail_threshold=256,
)

REISER_FIGURE_ROWS = [
    "stat item", "dir item", "bitmap", "indirect", "data", "super",
    "j-header", "j-desc", "j-commit", "j-data", "root", "internal",
]


def reiserfs_field_corruptor(payload: bytes, block_type: str) -> bytes:
    """Corrupt one field of a ReiserFS block, leaving it plausible."""
    raw = bytearray(payload)
    if block_type in ("stat item", "dir item", "indirect", "direct item",
                      "leaf node", "root", "internal"):
        # Break the node header: an absurd level defeats the sanity check.
        raw[0:2] = U16.pack(0x7F7F)
        return bytes(raw)
    if block_type == "bitmap":
        return b"\xff" * len(raw)
    if block_type == "super":
        raw[:8] = b"NoTrEiSe"
        return bytes(raw)
    if block_type.startswith("j-"):
        raw[0:4] = U32.pack(0x0BAD0BAD)
        return bytes(raw)
    for i in range(0, min(64, len(raw))):
        raw[i] ^= 0x5A
    return bytes(raw)


def make_reiserfs_adapter(config: Optional[ReiserConfig] = None) -> FSAdapter:
    cfg = config or REISER_FINGERPRINT_CONFIG
    return FSAdapter(
        name="reiserfs",
        figure_block_types=list(REISER_FIGURE_ROWS),
        build_device=_disk_factory(cfg),
        mkfs=lambda dev: mkfs_reiserfs(dev, cfg),
        make_fs=lambda dev: ReiserFS(dev, sync_mode=True),
        field_corruptor=reiserfs_field_corruptor,
        redundancy_types=[],
    )


JFS_FINGERPRINT_CONFIG = JFSConfig()

JFS_FIGURE_ROWS = [
    "inode", "dir", "bmap", "imap", "internal", "data", "super",
    "j-super", "j-data", "aggr-inode", "bmap-desc", "imap-cntl",
]


def jfs_field_corruptor(payload: bytes, block_type: str) -> bytes:
    """Corrupt one field of a JFS block, leaving it plausible."""
    raw = bytearray(payload)
    if block_type in ("inode", "dir", "internal"):
        # Blast the entry/pointer count past the maximum: caught by
        # JFS's count sanity checks.
        raw[0:2] = U16.pack(0xFFF0)
        raw[2:4] = U16.pack(0xFFF0)
        return bytes(raw)
    if block_type in ("bmap", "imap"):
        # Break the duplicated free-count equality check.
        raw[0:4] = U32.pack(12345)
        raw[4:8] = U32.pack(54321)
        return bytes(raw)
    if block_type in ("super", "aggr-inode", "j-super", "j-data"):
        raw[0:4] = U32.pack(0x0BAD0BAD)
        return bytes(raw)
    for i in range(0, min(64, len(raw))):
        raw[i] ^= 0x5A
    return bytes(raw)


def make_jfs_adapter(config: Optional[JFSConfig] = None) -> FSAdapter:
    cfg = config or JFS_FINGERPRINT_CONFIG
    return FSAdapter(
        name="jfs",
        figure_block_types=list(JFS_FIGURE_ROWS),
        build_device=_disk_factory(cfg),
        mkfs=lambda dev: mkfs_jfs(dev, cfg),
        make_fs=lambda dev: JFS(dev, sync_mode=True),
        field_corruptor=jfs_field_corruptor,
        redundancy_types=["super"],
    )


def make_ext3_adapter(config: Optional[Ext3Config] = None) -> FSAdapter:
    cfg = config or EXT3_FINGERPRINT_CONFIG
    return FSAdapter(
        name="ext3",
        figure_block_types=list(EXT3_FIGURE_ROWS),
        build_device=_disk_factory(cfg),
        mkfs=lambda dev: mkfs_ext3(dev, cfg),
        make_fs=lambda dev: Ext3(dev, sync_mode=True),
        field_corruptor=ext3_field_corruptor,
        redundancy_types=[],  # ext3 never reads its superblock copies (§5.1)
    )


NTFS_FIGURE_ROWS = [
    "MFT", "directory", "volume-bitmap", "MFT-bitmap", "logfile", "data", "boot",
]


def ntfs_field_corruptor(payload: bytes, block_type: str) -> bytes:
    """Corrupt one field of an NTFS block, leaving it plausible."""
    raw = bytearray(payload)
    if block_type in ("MFT", "directory", "boot"):
        raw[:4] = b"XXXX"  # metadata magic destroyed: strong checks catch it
        return bytes(raw)
    if block_type in ("volume-bitmap", "MFT-bitmap"):
        return b"\xff" * len(raw)
    if block_type == "logfile":
        raw[0:4] = U32.pack(0x0BAD0BAD)
        return bytes(raw)
    for i in range(0, min(64, len(raw))):
        raw[i] ^= 0x5A
    return bytes(raw)


def make_ntfs_adapter(config: Optional[NTFSConfig] = None) -> FSAdapter:
    cfg = config or NTFSConfig()
    return FSAdapter(
        name="ntfs",
        figure_block_types=list(NTFS_FIGURE_ROWS),
        build_device=_disk_factory(cfg),
        mkfs=lambda dev: mkfs_ntfs(dev, cfg),
        make_fs=lambda dev: NTFS(dev, sync_mode=True),
        field_corruptor=ntfs_field_corruptor,
        redundancy_types=[],
        # The paper's NTFS analysis is partial (closed-source, §5.4):
        # no recovery/log-write workloads.
        workload_keys="abcdefghijklmnopqr",
    )


IXT3_FIGURE_ROWS = list(EXT3_FIGURE_ROWS)


def make_ixt3_adapter(features: int = ALL_FEATURES,
                      base: Optional[Ext3Config] = None) -> FSAdapter:
    base_cfg = base or EXT3_FINGERPRINT_CONFIG
    cfg = ixt3_config(base_cfg)
    return FSAdapter(
        name="ixt3",
        figure_block_types=list(IXT3_FIGURE_ROWS),
        build_device=_disk_factory(cfg),
        mkfs=lambda dev: mkfs_ixt3(dev, base_cfg, features=features, config=cfg),
        make_fs=lambda dev: Ixt3(dev, sync_mode=True),
        field_corruptor=ext3_field_corruptor,
        redundancy_types=["replica", "parity"],
    )


ADAPTERS = {
    "ext3": make_ext3_adapter,
    "reiserfs": make_reiserfs_adapter,
    "jfs": make_jfs_adapter,
    "ntfs": make_ntfs_adapter,
    "ixt3": make_ixt3_adapter,
}


def make_array_adapter(base: str = "ext3", geometry: str = "mirror",
                       members: int = 2, **base_kwargs) -> FSAdapter:
    """A registered adapter's file system mounted on a redundancy array.

    Clones the *base* adapter and swaps its ``build_device`` for a
    :func:`repro.redundancy.array.make_array` of the same logical
    geometry — everything else (mkfs, workloads, corruptors, figure
    rows) is inherited, which is the point: the array drops in below
    an unchanged file system.  *members* is the copy/member count
    (the RDP prime for ``geometry="rdp"``).
    """
    import dataclasses

    from repro.redundancy.array import make_array

    inner = ADAPTERS[base](**base_kwargs)
    probe = inner.build_device()
    num_blocks, block_size = probe.num_blocks, probe.block_size

    def build_device():
        return make_array(geometry, num_blocks, block_size, members=members)

    return dataclasses.replace(
        inner,
        name=f"{inner.name}@{geometry}{members}",
        build_device=build_device,
    )


def _register_array_adapters() -> None:
    """Array-backed variants of every base adapter: 2-way mirror,
    4-member rotating parity, RDP at p=5 (six members)."""
    import functools

    for base in ("ext3", "reiserfs", "jfs", "ntfs", "ixt3"):
        for geometry, members in (("mirror", 2), ("parity", 4), ("rdp", 5)):
            ADAPTERS[f"{base}@{geometry}{members}"] = functools.partial(
                make_array_adapter, base=base, geometry=geometry,
                members=members)


_register_array_adapters()
