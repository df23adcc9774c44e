"""fsck for ext3/ixt3 volumes — the classic ``R_repair`` tool.

§5.6 observes that "automatic repair is rare: after using an R_stop
technique, most of the file systems require manual intervention ...
(i.e., running fsck)", and §3.1 argues that even journaling file
systems benefit from periodic full-scan integrity checks, because a
buggy journaling file system can unknowingly corrupt its own on-disk
structures (exactly what several of the reproduced bugs do).

This checker performs the classic passes:

1. **Inodes and block reachability** — walk every allocated inode's
   block pointers (direct and indirect chains), clamp out-of-volume
   pointers, detect doubly-claimed blocks, and rebuild the block
   bitmaps from reachability.
2. **Directory structure** — parse every directory, drop entries whose
   target inode is out of range or unallocated, and ensure `.`/`..`.
3. **Connectivity** — reattach allocated-but-unreachable inodes under
   ``/lost+found``.
4. **Link counts** — recompute from directory entries and repair.
5. **Counters** — recompute superblock/group-descriptor free counts.

It operates on the raw device (unmounted volume) and applies repairs
in place when ``repair=True``.
"""

from __future__ import annotations

import stat as _stat
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.bitmap import Bitmap
from repro.disk.disk import BlockDevice
from repro.fs.ext3.config import INODE_SIZE, NUM_DIRECT, ROOT_INO, Ext3Config
from repro.fs.ext3.structures import (
    DirEntry,
    FT_DIR,
    FT_REG,
    Inode,
    Superblock,
    dir_block_record,
    iter_allocated_inodes,
    pack_dir_block,
    pack_gdt,
    patch_inode_block,
    unpack_dir_block,
    unpack_gdt,
    unpack_pointer_block,
    pack_pointer_block,
)


@dataclass
class FsckReport:
    """Everything the checker found (and, with repair=True, fixed)."""

    clean: bool = True
    repaired: bool = False
    bad_pointers: List[Tuple[int, int]] = field(default_factory=list)  # (ino, block)
    doubly_claimed: List[int] = field(default_factory=list)
    bad_dir_entries: List[Tuple[int, str]] = field(default_factory=list)
    orphan_inodes: List[int] = field(default_factory=list)
    wrong_link_counts: List[Tuple[int, int, int]] = field(default_factory=list)
    bitmap_fixes: int = 0
    counter_fixes: int = 0
    messages: List[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        self.clean = False
        self.messages.append(message)

    def render(self) -> str:
        lines = ["fsck: clean" if self.clean else "fsck: problems found"]
        lines += [f"  {m}" for m in self.messages]
        if self.repaired:
            lines.append("  (all repairable problems fixed)")
        return "\n".join(lines)


class Ext3Fsck:
    """Offline checker/repairer over an unmounted ext3/ixt3 volume."""

    def __init__(self, device: BlockDevice, repair: bool = False):
        self.device = device
        self.repair = repair
        self.report = FsckReport()
        self.sb: Optional[Superblock] = None
        self.config: Optional[Ext3Config] = None
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        self._claimed: Dict[int, int] = {}  # block -> claiming inode

    # -- entry point ----------------------------------------------------------

    def run(self) -> FsckReport:
        raw = self.device.read_block(0)
        sb = Superblock.unpack(raw)
        config = sb.checked_config(self.device.block_size)
        if config is None:
            self.report.problem("superblock invalid; cannot check volume")
            return self.report
        self.sb = sb
        self.config = config
        self._load_inodes()
        self._pass1_pointers()
        self._pass2_directories()
        self._pass3_connectivity()
        self._pass4_link_counts()
        self._pass5_counters()
        if self.repair:
            self._write_back()
            self.report.repaired = not self.report.clean
        return self.report

    # -- passes -------------------------------------------------------------------

    def _load_inodes(self) -> None:
        # One read per table block; a free slot is skipped on a probe.
        cfg = self.config
        ipb = cfg.inodes_per_block
        for first in range(1, cfg.total_inodes + 1, ipb):
            raw = self.device.read_block(cfg.inode_location(first)[0])
            for slot, _ in iter_allocated_inodes(raw, ipb):
                off = slot * INODE_SIZE
                self._inodes[first + slot] = Inode.unpack(raw[off:off + INODE_SIZE])

    def _valid_data_block(self, bno: int) -> bool:
        g = self.config.group_of_block(bno)
        if g is None:
            return False
        return bno >= self.config.data_start(g)

    def _claim(self, ino: int, bno: int) -> bool:
        if bno in self._claimed and self._claimed[bno] != ino:
            self.report.doubly_claimed.append(bno)
            self.report.problem(
                f"block {bno} claimed by inodes {self._claimed[bno]} and {ino}")
            return False
        self._claimed[bno] = ino
        return True

    def _pass1_pointers(self) -> None:
        p = self.sb.ptrs_per_block
        for ino, inode in sorted(self._inodes.items()):
            for i, bno in enumerate(inode.direct):
                if bno and not self._valid_data_block(bno):
                    self.report.bad_pointers.append((ino, bno))
                    self.report.problem(f"inode {ino}: direct pointer {bno} out of volume")
                    inode.direct[i] = 0
                    self._dirty_inodes.add(ino)
                elif bno:
                    self._claim(ino, bno)
            for attr, levels in (("indirect", 1), ("dindirect", 2), ("tindirect", 3)):
                root = getattr(inode, attr)
                if root and not self._valid_data_block(root):
                    self.report.bad_pointers.append((ino, root))
                    self.report.problem(f"inode {ino}: {attr} pointer {root} out of volume")
                    setattr(inode, attr, 0)
                    self._dirty_inodes.add(ino)
                elif root:
                    self._claim(ino, root)
                    self._walk_indirect(ino, root, levels, p)
            if inode.parity_block:
                if not self._valid_data_block(inode.parity_block):
                    self.report.bad_pointers.append((ino, inode.parity_block))
                    self.report.problem(f"inode {ino}: parity pointer out of volume")
                    inode.parity_block = 0
                    self._dirty_inodes.add(ino)
                else:
                    self._claim(ino, inode.parity_block)

    def _walk_indirect(self, ino: int, root: int, levels: int, p: int) -> None:
        raw = self.device.read_block(root)
        ptrs = unpack_pointer_block(raw, p)
        dirty = False
        for i, ptr in enumerate(ptrs):
            if ptr == 0:
                continue
            if not self._valid_data_block(ptr):
                self.report.bad_pointers.append((ino, ptr))
                self.report.problem(
                    f"inode {ino}: indirect chain pointer {ptr} out of volume")
                ptrs[i] = 0
                dirty = True
                continue
            self._claim(ino, ptr)
            if levels > 1:
                self._walk_indirect(ino, ptr, levels - 1, p)
        if dirty and self.repair:
            self.device.write_block(root, pack_pointer_block(
                ptrs, self.config.block_size, p))

    def _dir_blocks(self, inode: Inode) -> List[int]:
        bs = self.config.block_size
        out = []
        for i in range((min(inode.size, NUM_DIRECT * bs) + bs - 1) // bs):
            if i < NUM_DIRECT and inode.direct[i]:
                out.append(inode.direct[i])
        return out

    def _pass2_directories(self) -> None:
        self._children: Dict[int, List[Tuple[str, int]]] = {}
        for ino, inode in sorted(self._inodes.items()):
            if not _stat.S_ISDIR(inode.mode):
                continue
            names_seen: Set[str] = set()
            entries_out: List[DirEntry] = []
            changed = False
            for bno in self._dir_blocks(inode):
                raw = self.device.read_block(bno)
                for entry in dir_block_record(raw):
                    bad = (
                        not 1 <= entry.ino <= self.sb.inodes_count
                        or entry.ino not in self._inodes
                        or entry.name in names_seen
                    )
                    if bad:
                        self.report.bad_dir_entries.append((ino, entry.name))
                        self.report.problem(
                            f"directory {ino}: dropping bad entry {entry.name!r} -> {entry.ino}")
                        changed = True
                        continue
                    names_seen.add(entry.name)
                    entries_out.append(entry)
                    if entry.name not in (".", ".."):
                        self._children.setdefault(ino, []).append(
                            (entry.name, entry.ino))
            if "." not in names_seen:
                self.report.problem(f"directory {ino}: missing '.'")
                entries_out.insert(0, DirEntry(ino, FT_DIR, "."))
                changed = True
            if ".." not in names_seen:
                self.report.problem(f"directory {ino}: missing '..'")
                entries_out.insert(1, DirEntry(ROOT_INO, FT_DIR, ".."))
                changed = True
            if changed and self.repair:
                blocks = self._dir_blocks(inode)
                if blocks:
                    # Compact surviving entries into the directory blocks.
                    bs = self.config.block_size
                    per_block: List[List[DirEntry]] = [[]]
                    used = 0
                    for entry in entries_out:
                        size = len(entry.pack())
                        if used + size > bs:
                            per_block.append([])
                            used = 0
                        per_block[-1].append(entry)
                        used += size
                    for bno, chunk in zip(blocks, per_block + [[]] * len(blocks)):
                        self.device.write_block(bno, pack_dir_block(chunk, bs))

    def _pass3_connectivity(self) -> None:
        reachable: Set[int] = set()
        pending = [ROOT_INO]
        while pending:
            ino = pending.pop()
            if ino not in reachable:
                reachable.add(ino)
                pending.extend(child for _, child in self._children.get(ino, []))
        orphans = sorted(set(self._inodes) - reachable - {1})
        for ino in orphans:
            self.report.orphan_inodes.append(ino)
            self.report.problem(f"inode {ino} allocated but unreachable")
        if orphans and self.repair:
            self._reattach_orphans(orphans)

    def _reattach_orphans(self, orphans: List[int]) -> None:
        """Give orphans names under /lost+found (created if needed)."""
        root = self._inodes[ROOT_INO]
        root_blocks = self._dir_blocks(root)
        if not root_blocks:
            return
        bs = self.config.block_size
        raw = self.device.read_block(root_blocks[0])
        entries = unpack_dir_block(raw)  # appended to below: fsck's own copy
        lf_ino = next((e.ino for e in entries if e.name == "lost+found"), None)
        if lf_ino is None:
            # Reuse the first orphan directory as lost+found, or attach
            # orphans directly to the root when none is a directory.
            lf_ino = ROOT_INO
        target_entries = entries if lf_ino == ROOT_INO else None
        for ino in orphans:
            name = f"orphan-{ino}"
            ftype = FT_DIR if _stat.S_ISDIR(self._inodes[ino].mode) else FT_REG
            if target_entries is not None:
                target_entries.append(DirEntry(ino, ftype, name))
                self._children.setdefault(ROOT_INO, []).append((name, ino))
        if target_entries is not None:
            self.device.write_block(root_blocks[0],
                                    pack_dir_block(target_entries, bs))

    def _pass4_link_counts(self) -> None:
        counts: Dict[int, int] = {ino: 0 for ino in self._inodes}
        counts[ROOT_INO] = 2  # '.' plus its own '..'
        for ino, kids in self._children.items():
            for _, child in kids:
                if child not in counts:
                    continue
                if _stat.S_ISDIR(self._inodes[child].mode):
                    counts[child] = counts.get(child, 0) + 2  # entry + its '.'
                    counts[ino] = counts.get(ino, 0) + 1      # child's '..'
                else:
                    counts[child] = counts.get(child, 0) + 1
        for ino, inode in sorted(self._inodes.items()):
            expected = max(counts.get(ino, 0), 1)
            if inode.links != expected:
                self.report.wrong_link_counts.append((ino, inode.links, expected))
                self.report.problem(
                    f"inode {ino}: link count {inode.links}, expected {expected}")
                inode.links = expected
                self._dirty_inodes.add(ino)

    def _pass5_counters(self) -> None:
        cfg = self.config
        free_blocks_total = 0
        gdt_raw = self.device.read_block(cfg.gdt_block)
        gdt = unpack_gdt(gdt_raw, cfg.num_groups)
        gdt_dirty = False
        for g in range(cfg.num_groups):
            bmp = Bitmap(cfg.data_blocks_per_group)
            used_in_group = 0
            # Claimed blocks are sparse; iterate them, not every bit.
            start = cfg.data_start(g)
            end = start + cfg.data_blocks_per_group
            for bno in self._claimed:
                if start <= bno < end:
                    bmp.set(bno - start)
                    used_in_group += 1
            stored = Bitmap(cfg.data_blocks_per_group,
                            self.device.read_block(cfg.block_bitmap_block(g)))
            if stored != bmp:
                self.report.bitmap_fixes += 1
                self.report.problem(f"group {g}: block bitmap does not match reachability")
                if self.repair:
                    self.device.write_block(
                        cfg.block_bitmap_block(g),
                        bmp.to_bytes(pad_to=cfg.block_size))
            free = cfg.data_blocks_per_group - used_in_group
            free_blocks_total += free
            if gdt[g].free_blocks != free:
                self.report.counter_fixes += 1
                self.report.problem(
                    f"group {g}: free-block count {gdt[g].free_blocks}, expected {free}")
                gdt[g].free_blocks = free
                gdt_dirty = True
        if self.sb.free_blocks != free_blocks_total:
            self.report.counter_fixes += 1
            self.report.problem(
                f"superblock: free-block count {self.sb.free_blocks}, "
                f"expected {free_blocks_total}")
            self.sb.free_blocks = free_blocks_total
            if self.repair:
                self.device.write_block(0, self.sb.pack(cfg.block_size))
        # Inode bitmaps and free-inode counters.
        free_inodes_total = 0
        for g in range(cfg.num_groups):
            bmp = Bitmap(cfg.inodes_per_group)
            used = 0
            # Allocated inodes are sparse; iterate them, not every slot.
            lo = g * cfg.inodes_per_group + 1
            hi = lo + cfg.inodes_per_group
            for ino in self._inodes:
                if lo <= ino < hi:
                    bmp.set(ino - lo)
                    used += 1
            if lo == 1 and 1 not in self._inodes:
                bmp.set(0)  # reserved bad-blocks inode is always marked
                used += 1
            stored = Bitmap(cfg.inodes_per_group,
                            self.device.read_block(cfg.inode_bitmap_block(g)))
            if stored != bmp:
                self.report.bitmap_fixes += 1
                self.report.problem(f"group {g}: inode bitmap does not match inode table")
                if self.repair:
                    self.device.write_block(
                        cfg.inode_bitmap_block(g),
                        bmp.to_bytes(pad_to=cfg.block_size))
            free = cfg.inodes_per_group - used
            free_inodes_total += free
            if gdt[g].free_inodes != free:
                self.report.counter_fixes += 1
                self.report.problem(
                    f"group {g}: free-inode count {gdt[g].free_inodes}, expected {free}")
                gdt[g].free_inodes = free
                gdt_dirty = True
        if self.sb.free_inodes != free_inodes_total:
            self.report.counter_fixes += 1
            self.report.problem(
                f"superblock: free-inode count {self.sb.free_inodes}, "
                f"expected {free_inodes_total}")
            self.sb.free_inodes = free_inodes_total
            if self.repair:
                self.device.write_block(0, self.sb.pack(cfg.block_size))
        if gdt_dirty and self.repair:
            self.device.write_block(cfg.gdt_block, pack_gdt(gdt, cfg.block_size))

    # -- write-back -------------------------------------------------------------------

    def _write_back(self) -> None:
        for ino in sorted(self._dirty_inodes):
            block, off = self.config.inode_location(ino)
            raw = self.device.read_block(block)
            self.device.write_block(
                block, patch_inode_block(raw, off, self._inodes[ino]))


def fsck_ext3(device: BlockDevice, repair: bool = False) -> FsckReport:
    """Check (and optionally repair) an unmounted ext3/ixt3 volume."""
    return Ext3Fsck(device, repair=repair).run()
