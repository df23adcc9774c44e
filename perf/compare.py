"""Ledger-against-ledger comparison and the array phase table."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from perf.metrics import END_TO_END, SETUP_SLACK_S
from perf.trace import LAYERS

EXIT_WORSE, EXIT_USAGE = 1, 2
MB = 1024 * 1024

#: Which samples carry a metric's run-to-run spread.
_SAMPLES = {"wall_s": "wall_s", "units_per_s": "wall_s",
            "host_us_per_device_io": "wall_s", "setup_s": "setup_s"}


def array_table(detail: Dict[str, Any], block_size: int) -> str:
    """Geometry × phase in virtual MB/s and host µs per block — arrays
    the way Dagenais tabulates them: healthy beside degraded, one row
    per geometry."""
    phases = next(iter(detail.values()))["phases"]
    lines = ["  " + f"{'virtual MB/s | host us/blk':28}"
             + "".join(f"{name:>17}" for name in phases)]
    for geometry, entry in detail.items():
        cells = []
        for phase in entry["phases"].values():
            size = phase["blocks"] * block_size / MB
            mbps = size / phase["virtual_s"] if phase["virtual_s"] else 0.0
            us = phase["host_s"] * 1e6 / phase["blocks"]
            cells.append(f"{mbps:9.1f} |{us:6.1f}")
        lines.append(f"  {geometry:28}" + "".join(cells))
    return "\n".join(lines)


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(name: str, a: float, b: float,
          samples_a: Sequence[float] = (),
          samples_b: Sequence[float] = ()) -> Tuple[str, bool]:
    """``(PASS | WORSE | UNRESOLVED, moved beyond the bound)`` for one
    metric going from *a* (the base) to *b*."""
    _, better, bound = END_TO_END[name]
    if bound == 0.0:
        return ("PASS", False) if a == b else ("WORSE", True)
    allowed = a * bound
    if name == "setup_s":
        allowed = max(allowed, SETUP_SLACK_S)
    gain = (a - b) if better == "lower" else (b - a)
    if gain < -allowed:
        return "WORSE", True
    spread = max(relative_spread(samples_a), relative_spread(samples_b))
    if spread > bound:
        # wall-clock samples: lower is better whatever the metric's sense
        separated = (samples_a and samples_b
                     and max(samples_b) < min(samples_a))
        if not separated:
            return "UNRESOLVED", False
    return "PASS", gain > allowed


def layer_that_moved(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """The layer whose self time differs most between two traced runs."""
    moved = []
    for layer in LAYERS:
        name = f"{layer}.self_s"
        if name in a and name in b:
            delta = b[name]["value"] - a[name]["value"]
            moved.append((abs(delta), layer, delta))
    if not moved:
        return None
    _, layer, delta = max(moved)
    return f"{layer}.self_s {delta:+.3f} s"


def _load(path: Path) -> Dict[str, Any]:
    ledger = json.loads(path.read_text())
    if ledger.get("schema") != "perf-ledger/1":
        raise ValueError(f"{path} is not a perf ledger")
    return ledger


def compare_files(path_a: Path, path_b: Path) -> int:
    try:
        a, b = _load(path_a), _load(path_b)
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"base A = {path_a}  ({a['host'].get('git_sha')})")
    print(f"     B = {path_b}  ({b['host'].get('git_sha')})")
    worse = False
    for name in dict.fromkeys([*a["workloads"], *b["workloads"]]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        print(f"== {name}")
        if not (wa and wb and wa["status"] == wb["status"] == "ok"):
            status = [w["status"] if w else "absent" for w in (wa, wb)]
            print(f"  UNRESOLVED: A is {status[0]}, B is {status[1]}")
            continue
        if wa.get("noisy") or wb.get("noisy"):
            print("  note: a side was measured on a loaded host")
        for metric, (unit, _, bound) in END_TO_END.items():
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            key = _SAMPLES.get(metric)
            verdict, moved = judge(
                metric, va, vb,
                wa["samples"][key] if key else (),
                wb["samples"][key] if key else ())
            worse |= verdict == "WORSE"
            ratio = f"{vb / va:.3f} x A" if va else "n/a"
            limit = "exact" if bound == 0.0 else f"{bound:.0%}"
            line = (f"  {metric:24} A {va:<14.6g} B {vb:<14.6g} {unit:10}"
                    f" B/A {ratio:12} bound {limit:6} {verdict}")
            if moved and "per_layer" in wa and "per_layer" in wb:
                which = layer_that_moved(wa["per_layer"], wb["per_layer"])
                if which:
                    line += f"  [moved most: {which}]"
            print(line)
    return EXIT_WORSE if worse else 0
