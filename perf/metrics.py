"""Metric names, units, bounds, and how each is derived.

Every number says which clock it is on.  *Host* time (unit ``s``,
``ms``, ``us``) is what the Python process takes; *virtual* time (unit
``virtual_s``) is what the modelled disk would take.  A performance
change may move the first and must never move the second.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf.trace import LAYERS, ROOT_LAYER, PassTrace

# -- end to end ------------------------------------------------------------------

#: name -> (unit, better, bound).  A bound is the share of the baseline
#: by which the metric may get worse; ``0.0`` means it must repeat
#: exactly.  The host-clock bounds are three times what ten runs of one
#: commit spread by on the shared 2-vCPU reference host, after speed
#: correction (perf/README.md has the measurements) — the issue's 10%
#: is narrower than that host's own noise.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "units_per_s": ("1/s", "higher", 0.25),
    "host_us_per_device_io": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "device_ios": ("count", "lower", 0.10),
    "virtual_s": ("virtual_s", "lower", 0.0),
    "failure_rate": ("ratio", "lower", 0.0),
    "sim_mismatches": ("count", "lower", 0.0),
}
#: The driver contract wants metrics that are never 0 and no time that
#: reads the same on every run, so BENCHMARK.json carries the first six
#: and the last three reach it as ``correct`` / ``failed``.
DRIVER_END_TO_END = ("setup_s", "wall_s", "units_per_s",
                     "host_us_per_device_io", "peak_rss_mb", "device_ios")
#: ``setup_s`` may also get worse by this much in absolute terms.
SETUP_SLACK_S = 0.2

# -- per layer --------------------------------------------------------------------

_EXTRA: Tuple[Tuple[str, str], ...] = (
    ("fs.errors", "count"), ("fs.mount_s", "s"),
    ("fs.journal.commits", "count"), ("fs.journal.recovers", "count"),
    ("fs.fsck.runs", "count"),
    ("common.bitmap.find_free_calls", "count"),
    ("common.checksum.bytes", "bytes"),
    ("disk.cache.reads", "count"), ("disk.cache.hits", "count"),
    ("disk.cache.hit_rate", "ratio"),
    ("disk.injector.ios", "count"), ("disk.injector.faults_armed", "count"),
    ("disk.injector.faults_fired", "count"),
    ("disk.disk.reads", "count"), ("disk.disk.writes", "count"),
    ("disk.disk.seeks", "count"), ("disk.disk.busy_virtual_s", "virtual_s"),
    ("disk.disk.restores", "count"), ("disk.disk.restore_s", "s"),
    ("disk.disk.snapshots", "count"), ("disk.disk.snapshot_s", "s"),
    ("disk.stack.builds", "count"), ("disk.stack.build_s", "s"),
    ("disk.recorder.writes", "count"),
    ("redundancy.array.logical_reads", "count"),
    ("redundancy.array.logical_writes", "count"),
    ("redundancy.array.member_ios", "count"),
    ("redundancy.array.member_ios_per_logical_io", "ratio"),
    ("redundancy.array.degraded_reads", "count"),
    ("redundancy.array.read_repairs", "count"),
    ("redundancy.array.scrub_units", "count"),
    ("redundancy.array.scrub_s", "s"),
    ("redundancy.array.rebuild_blocks", "count"),
    ("redundancy.array.rebuild_s", "s"),
    ("redundancy.rdp.encodes", "count"),
    ("redundancy.rdp.reconstructs", "count"),
    ("obs.events.emitted", "count"), ("obs.events.per_device_io", "ratio"),
    ("obs.events.digest_s", "s"),
    ("obs.events.stream_digest_changed", "count"),
    ("obs.postmortem.incidents", "count"),
    ("fingerprint.harness.tests", "count"),
    ("fingerprint.harness.matrix_ms_p50", "ms"),
    ("crash.engine.states", "count"), ("crash.engine.record_s", "s"),
    ("crash.engine.check_s", "s"), ("crash.engine.digest_s", "s"),
    ("crash.engine.state_ms_p50", "ms"), ("crash.engine.state_ms_p95", "ms"),
    ("fleet.sim.trials", "count"), ("fleet.sim.trial_ms_p50", "ms"),
    ("fleet.sim.trial_ms_p95", "ms"), ("fleet.sim.trial_ms_max", "ms"),
    ("fleet.campaign.fold_s", "s"),
    ("bench.harness.cells", "count"), ("bench.harness.cell_ms_p50", "ms"),
    ("bench.harness.paper_mean_abs_err", "ratio"),
    ("common.pool.chunks", "count"), ("common.pool.parent_wait_s", "s"),
    ("common.pool.parallel_efficiency", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"), ("bench.unattributed_s", "s"),
)

#: name -> unit, in display order: ``calls`` and ``self_s`` per layer,
#: then the layer-specific counts, times and ratios.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.{suffix}": unit for layer in LAYERS
       for suffix, unit in (("calls", "count"), ("self_s", "s"))},
    **dict(_EXTRA),
}
#: Host-clock units: these vary run to run; everything else in
#: ``PER_LAYER`` must repeat exactly between passes of one seed.
HOST_UNITS = frozenset({"s", "ms"})
#: Ratios of host times, and how often the parent polled its workers.
_SCHEDULING_DEPENDENT = frozenset({
    "bench.trace_overhead_ratio", "common.pool.parallel_efficiency",
    "common.pool.calls"})


def repeats_exactly(name: str) -> bool:
    return (PER_LAYER[name] not in HOST_UNITS
            and name not in _SCHEDULING_DEPENDENT)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_BELOW_CACHE = ("disk.injector", "disk.disk", "disk.recorder",
                "redundancy.array")


def pass_metrics(trace: PassTrace, disk: Dict[str, float],
                 extras: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (*disk* is the
    :class:`DiskMeter` reading of the same pass)."""
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = trace.calls(layer)
        m[f"{layer}.self_s"] = trace.self_s(layer)

    m["fs.mount_s"] = trace.entered_s("fs", "mount")
    m["fs.journal.commits"] = trace.calls("fs.journal", "commit")
    m["fs.journal.recovers"] = trace.calls("fs.journal", "recover")
    m["fs.fsck.runs"] = trace.calls("fs.fsck")
    m["common.bitmap.find_free_calls"] = trace.calls("common.bitmap")

    cache_reads = trace.calls("disk.cache", "read_block")
    misses = sum(trace.calls(layer, "read_block", parent="disk.cache")
                 for layer in _BELOW_CACHE)
    m["disk.cache.reads"] = cache_reads
    m["disk.cache.hits"] = cache_reads - misses
    m["disk.cache.hit_rate"] = _ratio(cache_reads - misses, cache_reads)

    m["disk.injector.ios"] = trace.calls(
        "disk.injector", "read_block", "write_block")
    m["disk.injector.faults_armed"] = trace.calls("disk.injector", "arm")

    device_ios = disk["reads"] + disk["writes"]
    m["disk.disk.reads"] = disk["reads"]
    m["disk.disk.writes"] = disk["writes"]
    m["disk.disk.seeks"] = disk["seeks"]
    m["disk.disk.busy_virtual_s"] = disk["busy_time_s"]
    m["disk.disk.restores"] = trace.calls("disk.disk", "restore")
    m["disk.disk.restore_s"] = trace.total_s("disk.disk", "restore")
    m["disk.disk.snapshots"] = trace.calls("disk.disk", "snapshot")
    m["disk.disk.snapshot_s"] = trace.total_s("disk.disk", "snapshot")
    m["disk.stack.builds"] = trace.calls("disk.stack", "__init__")
    m["disk.stack.build_s"] = trace.entered_s("disk.stack", "__init__", "build")
    m["disk.recorder.writes"] = trace.calls("disk.recorder", "write_block")

    logical_reads = trace.calls("redundancy.array", "read_block")
    logical_writes = trace.calls("redundancy.array", "write_block")
    member_ios = trace.calls("disk.injector", "read_block", "write_block",
                             parent="redundancy.array")
    m["redundancy.array.logical_reads"] = logical_reads
    m["redundancy.array.logical_writes"] = logical_writes
    m["redundancy.array.member_ios"] = member_ios
    m["redundancy.array.member_ios_per_logical_io"] = _ratio(
        member_ios, logical_reads + logical_writes)
    m["redundancy.array.scrub_s"] = trace.entered_s(
        "redundancy.array", "scrub", "scrub_step")
    m["redundancy.array.rebuild_s"] = trace.total_s(
        "redundancy.array", "rebuild_member")
    m["redundancy.rdp.encodes"] = trace.calls("redundancy.rdp", "encode")
    m["redundancy.rdp.reconstructs"] = trace.calls(
        "redundancy.rdp", "reconstruct")

    emitted = trace.calls("obs.events", "emit")
    m["obs.events.emitted"] = emitted
    m["obs.events.per_device_io"] = _ratio(emitted, device_ios)
    m["obs.events.digest_s"] = trace.total_s(
        "obs.events", "digest", "fold_digest")
    m["obs.postmortem.incidents"] = trace.calls("obs.postmortem")

    m["fingerprint.harness.matrix_ms_p50"] = percentile(
        trace.durations_ms("fingerprint.harness", "run"), 0.5)
    m["crash.engine.states"] = trace.calls("crash.engine", "check_state")
    m["crash.engine.record_s"] = trace.total_s("crash.engine", "record")
    m["crash.engine.check_s"] = trace.total_s("crash.engine", "check_state")
    m["crash.engine.digest_s"] = trace.total_s("crash.engine", "state_digest")
    states = trace.durations_ms("crash.engine", "check_state")
    m["crash.engine.state_ms_p50"] = percentile(states, 0.5)
    m["crash.engine.state_ms_p95"] = percentile(states, 0.95)
    trials = trace.durations_ms("fleet.sim", "run_trial")
    m["fleet.sim.trials"] = len(trials)
    m["fleet.sim.trial_ms_p50"] = percentile(trials, 0.5)
    m["fleet.sim.trial_ms_p95"] = percentile(trials, 0.95)
    # The slowest trial bounds the parallel finish time.
    m["fleet.sim.trial_ms_max"] = max(trials, default=0.0)
    m["fleet.campaign.fold_s"] = (
        trace.total_s("fleet.campaign", "run_fleet")
        - trace.total_s("common.pool", "pool_map", parent="fleet.campaign"))
    cells = trace.durations_ms("bench.harness", "run_variant")
    m["bench.harness.cells"] = len(cells)
    m["bench.harness.cell_ms_p50"] = percentile(cells, 0.5)
    m["common.pool.parent_wait_s"] = trace.total_s("common.pool", "wait")
    m["bench.unattributed_s"] = trace.self_s(ROOT_LAYER)

    for name in ("fs.errors", "common.checksum.bytes",
                 "disk.injector.faults_fired",
                 "redundancy.array.degraded_reads",
                 "redundancy.array.read_repairs",
                 "redundancy.array.scrub_units",
                 "redundancy.array.rebuild_blocks", "common.pool.chunks"):
        m[name] = trace.counters.get(name, 0)
    m.update(extras)
    for name in PER_LAYER:
        m.setdefault(name, 0)
    return m


def fold_passes(passes: List[Dict[str, float]]) -> Tuple[Dict[str, float],
                                                         List[str]]:
    """One value per metric from several passes of one seed: the median
    for host-clock metrics, and the first pass's value for the rest —
    with the names of any that failed to repeat."""
    folded: Dict[str, float] = {}
    unstable: List[str] = []
    for name in PER_LAYER:
        values = [p[name] for p in passes]
        if repeats_exactly(name):
            folded[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
        else:
            folded[name] = statistics.median(values)
    return folded, unstable


def end_to_end(*, setup_s: float, wall_s: float, units: int,
               disk: Dict[str, float], peak_rss_mb: float,
               attempted: int, failed: int,
               sim_mismatches: int) -> Dict[str, float]:
    device_ios = disk["reads"] + disk["writes"]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "units_per_s": _ratio(units, wall_s),
        "host_us_per_device_io": _ratio(wall_s * 1e6, device_ios),
        "peak_rss_mb": peak_rss_mb,
        "device_ios": device_ios,
        "virtual_s": disk["busy_time_s"],
        "failure_rate": _ratio(failed, attempted),
        "sim_mismatches": sim_mismatches,
    }


def with_units(values: Dict[str, float], units: Dict[str, Any],
               names: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
    """``{name: {"value": v, "unit": u}}`` — the contract's metric shape."""
    def unit_of(name: str) -> str:
        unit = units[name]
        return unit if isinstance(unit, str) else unit[0]
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in (names if names is not None else values)}
