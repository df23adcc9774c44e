"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures.  The
interesting measurement is *virtual disk time* inside the simulator, so
pytest-benchmark wraps a single deterministic execution (pedantic mode)
and the regenerated artifact is written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def save_result(name: str, content: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def record_bench_result(name: str, record: dict) -> pathlib.Path:
    """Merge one result record into BENCH_fingerprint.json at the repo
    root (see repro.bench.records for the schema)."""
    from repro.bench.records import record_entry

    return record_entry(name, record, path=REPO_ROOT / "BENCH_fingerprint.json")
