"""mkfs for ixt3 volumes: the ext3 layout plus the checksum and replica
regions, initialized so every mkfs-written metadata block is covered
and replicated from the start (unlike ext3's never-updated superblock
copies, §5.1)."""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Optional

from repro.common.checksum import SHA1_SIZE, sha1_many
from repro.disk.disk import BlockDevice
from repro.fs.ext3.config import Ext3Config
from repro.fs.ext3.mkfs import mkfs_ext3
from repro.common.structs import U32x2, interned
from repro.fs.ext3.structures import (
    FEAT_DATA_CSUM,
    FEAT_DATA_PARITY,
    FEAT_META_CSUM,
    FEAT_META_REPLICA,
    FEAT_TXN_CSUM,
    Superblock,
)
from repro.fs.ixt3.features import REPLICA_MAP_BLOCKS

ALL_FEATURES = (FEAT_META_CSUM | FEAT_DATA_CSUM | FEAT_META_REPLICA
                | FEAT_DATA_PARITY | FEAT_TXN_CSUM)

#: Table 6's names for the five features, in its column order.
FEATURE_BITS = {
    "Mc": FEAT_META_CSUM,
    "Mr": FEAT_META_REPLICA,
    "Dc": FEAT_DATA_CSUM,
    "Dp": FEAT_DATA_PARITY,
    "Tc": FEAT_TXN_CSUM,
}


def features_mask(features) -> int:
    """The superblock feature mask of Table-6 feature names."""
    mask = 0
    for f in features:
        mask |= FEATURE_BITS[f]
    return mask

#: Replica slots reserved for metadata allocated after mkfs
#: (directories, indirect blocks).
DYNAMIC_REPLICA_SLOTS = 96


def ixt3_config(base: Ext3Config,
                dynamic_replica_slots: int = DYNAMIC_REPLICA_SLOTS) -> Ext3Config:
    """Derive an ixt3 layout from a plain ext3 geometry: size the
    checksum region to cover the whole volume and the replica region to
    hold every static metadata block plus a dynamic quota."""
    per = base.block_size // SHA1_SIZE
    static_meta = 2 + base.num_groups * (3 + base.inode_table_blocks) + 1
    replica_blocks = REPLICA_MAP_BLOCKS + static_meta + dynamic_replica_slots
    checksum_blocks = 0
    # The checksum region grows the volume, which grows the region:
    # iterate to a fixed point.
    for _ in range(8):
        cfg = replace(base, checksum_blocks=checksum_blocks,
                      replica_blocks=replica_blocks)
        needed = (cfg.total_blocks + per - 1) // per
        if needed == checksum_blocks:
            break
        checksum_blocks = needed
    # Interned, so every volume of one geometry shares its derived layout.
    return interned(Ext3Config, **{**asdict(base), "checksum_blocks": checksum_blocks,
                                   "replica_blocks": replica_blocks})


def _static_meta_blocks(cfg: Ext3Config):
    """Metadata blocks written by mkfs, in deterministic order."""
    blocks = [cfg.super_block, cfg.gdt_block]
    for g in range(cfg.num_groups):
        blocks.append(cfg.sb_backup_block(g))
        blocks.append(cfg.block_bitmap_block(g))
        blocks.append(cfg.inode_bitmap_block(g))
        for i in range(cfg.inode_table_blocks):
            blocks.append(cfg.inode_table_start(g) + i)
    blocks.append(cfg.data_start(0))  # root directory block
    return blocks


def mkfs_ixt3(device: BlockDevice, base: Ext3Config,
              features: int = ALL_FEATURES,
              config: Optional[Ext3Config] = None) -> Superblock:
    """Format *device* as ixt3.  *base* is the ext3 geometry; the
    checksum/replica regions are derived (or passed via *config*)."""
    cfg = config or ixt3_config(base)
    sb = mkfs_ext3(device, cfg, features=features)
    bs = cfg.block_size
    static = _static_meta_blocks(cfg)

    if features & FEAT_META_CSUM and cfg.checksum_blocks:
        per = bs // SHA1_SIZE
        images = {}
        digests = sha1_many(device.read_block(home) for home in static)
        for home, digest in zip(static, digests):
            cks_block = cfg.checksum_start + home // per
            payload = images.setdefault(cks_block, bytearray(bs))
            off = (home % per) * SHA1_SIZE
            payload[off:off + SHA1_SIZE] = digest
        for cks_block, payload in images.items():
            device.write_block(cks_block, bytes(payload))

    if features & FEAT_META_REPLICA and cfg.replica_blocks:
        entries = []
        for slot, home in enumerate(static):
            device.write_block(cfg.replica_start + REPLICA_MAP_BLOCKS + slot,
                               device.read_block(home))
            entries.append((home, slot))
        per_map = (bs - 8) // 8
        for i in range(REPLICA_MAP_BLOCKS):
            chunk = entries[i * per_map:(i + 1) * per_map]
            out = bytearray(U32x2.pack(len(entries) if i == 0 else 0, 0))
            for home, slot in chunk:
                out += U32x2.pack(home, slot)
            out += b"\x00" * (bs - len(out))
            device.write_block(cfg.replica_start + i, bytes(out))
    return sb
