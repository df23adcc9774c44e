"""The Table-6 variant sweep: run each benchmark under every feature
combination and report run time (virtual disk time) normalized to the
no-feature baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.disk.stack import DeviceStack
from repro.fs.ext3 import Ext3Config
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3
from repro.fs.ixt3.mkfs import features_mask
from repro.bench.paperdata import TABLE6_PAPER, VARIANT_ORDER, variant_label
from repro.bench.workloads import BENCHMARKS, BenchScale

#: Volume geometry for the benchmarks: large enough for PostMark's file
#: population, natural pointer fan-out.
BENCH_BASE_CONFIG = Ext3Config(
    block_size=1024,
    blocks_per_group=4096,
    inodes_per_group=512,
    num_groups=2,
    journal_blocks=256,
)

#: Buffer-cache size in blocks (the paper's testbed had 1 GB of RAM —
#: the whole working set fits; ours likewise).
CACHE_BLOCKS = 8192


@dataclass
class VariantResult:
    features: Tuple[str, ...]
    seconds: float
    reads: int
    writes: int

    @property
    def label(self) -> str:
        return variant_label(self.features)


@dataclass
class Table6Run:
    """Measured Table 6: per benchmark, one result per variant."""

    results: Dict[str, List[VariantResult]] = field(default_factory=dict)

    def normalized(self, bench: str) -> List[float]:
        rows = self.results[bench]
        base = rows[0].seconds
        return [r.seconds / base if base else 1.0 for r in rows]

    def render(self, include_paper: bool = True) -> str:
        benches = list(self.results)
        lines = []
        header = f"{'#':>2} {'Variant':17}"
        for b in benches:
            header += f" {b + ' meas':>10}"
            if include_paper:
                header += f" {b + ' paper':>10}"
        lines.append(header)
        for i, features in enumerate(VARIANT_ORDER):
            row = f"{i:>2} {variant_label(features):17}"
            for b in benches:
                row += f" {self.normalized(b)[i]:>10.2f}"
                if include_paper:
                    row += f" {TABLE6_PAPER[b][i]:>10.2f}"
            lines.append(row)
        return "\n".join(lines)


def run_variant(
    bench: str,
    features: Tuple[str, ...],
    scale: Optional[BenchScale] = None,
    base_config: Optional[Ext3Config] = None,
) -> VariantResult:
    """Run one benchmark under one feature combination; returns the
    virtual-disk run time of the measured phase."""
    scale = scale or BenchScale()
    base = base_config or BENCH_BASE_CONFIG
    cfg = ixt3_config(base, dynamic_replica_slots=512)
    stack = DeviceStack.build(cfg.total_blocks, cfg.block_size,
                              cache_blocks=CACHE_BLOCKS)
    disk, cache = stack.disk, stack.cache
    # mkfs writes go straight to the medium so the mount starts with the
    # same cold cache the hand-wired stack had.
    mkfs_ixt3(disk, base, features=features_mask(features), config=cfg)
    fs = Ixt3(stack, sync_mode=False, commit_every=256)
    fs.mount()
    spec = BENCHMARKS[bench]
    if spec["setup"] is not None:
        spec["setup"](fs, scale)
        fs.sync()
        # The measured phase starts cache-cold, as each of the paper's
        # runs did.
        cache.invalidate_all()
    t0 = disk.clock
    r0, w0 = disk.stats.reads, disk.stats.writes
    spec["run"](fs, scale)
    seconds = disk.clock - t0
    result = VariantResult(
        features=features,
        seconds=seconds,
        reads=disk.stats.reads - r0,
        writes=disk.stats.writes - w0,
    )
    fs.unmount()
    return result


def run_table6(
    benches: Optional[List[str]] = None,
    variants: Optional[List[Tuple[str, ...]]] = None,
    scale: Optional[BenchScale] = None,
    progress=None,
) -> Table6Run:
    """Run the full (or a partial) Table 6 sweep."""
    benches = benches or list(BENCHMARKS)
    variants = variants if variants is not None else VARIANT_ORDER
    out = Table6Run()
    for bench in benches:
        rows = []
        for features in variants:
            if progress:
                progress(f"{bench}: {variant_label(features)}")
            rows.append(run_variant(bench, features, scale=scale))
        out.results[bench] = rows
    return out
