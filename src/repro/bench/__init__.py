"""Benchmark substrate: Table-6 workloads, the variant sweep, paper
data, and the space-overhead analyzer."""

from repro.bench.harness import (
    BENCH_BASE_CONFIG,
    Table6Run,
    VariantResult,
    features_mask,
    run_table6,
    run_variant,
)
from repro.bench.paperdata import (
    PAPER_BASELINE_SECONDS,
    PAPER_IXT3_SCENARIOS,
    PAPER_SPACE_META_RANGE,
    PAPER_SPACE_PARITY_RANGE,
    TABLE6_PAPER,
    VARIANT_ORDER,
    variant_label,
)
from repro.bench.records import (
    bench_json_path,
    fingerprint_record,
    record_entry,
    table6_record,
)
from repro.bench.space import PROFILES, SpaceOverhead, analyze, analyze_all, render
from repro.bench.workloads import BENCHMARKS, BenchScale

__all__ = [
    "BENCHMARKS",
    "BENCH_BASE_CONFIG",
    "BenchScale",
    "PAPER_BASELINE_SECONDS",
    "PAPER_IXT3_SCENARIOS",
    "PAPER_SPACE_META_RANGE",
    "PAPER_SPACE_PARITY_RANGE",
    "PROFILES",
    "SpaceOverhead",
    "TABLE6_PAPER",
    "Table6Run",
    "VARIANT_ORDER",
    "VariantResult",
    "analyze",
    "analyze_all",
    "bench_json_path",
    "features_mask",
    "fingerprint_record",
    "record_entry",
    "render",
    "run_table6",
    "run_variant",
    "table6_record",
    "variant_label",
]
