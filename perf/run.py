#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 perf/run.py                         every workload, untraced then traced
    python3 perf/run.py --workload W [...]      a subset
    python3 perf/run.py --compare A.json B.json PASS / WORSE / UNRESOLVED per metric
    python3 perf/run.py --pin                   rewrite perf/expected.json

With ``--trace 0|1`` (how the benchmark driver calls it, see
BENCHMARK.json) it runs ONE workload in this process for ``--seconds``
and prints one JSON line last: the end-to-end metrics untraced, the
per-layer metrics traced.  The ledger mode above is a loop over exactly
that command in fresh subprocesses, which also writes the host block and
the full nine end-to-end metrics to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
EXPECTED = PERF_DIR / "expected.json"
#: Run as a script, ``sys.path[0]`` is ``perf/`` and its ``trace.py``
#: would shadow the stdlib module: import everything as ``perf.<module>``
#: from the repository root instead.
if sys.path and Path(sys.path[0] or ".").resolve() == PERF_DIR:
    sys.path[0] = str(ROOT)

from perf.calibrate import (  # noqa: E402 - needs the path set up above
    Calibrator, at_nominal_speed, calibration_slice)
from perf.compare import (  # noqa: E402
    EXIT_USAGE, array_table, compare_files)

EXIT_SKIPPED = 3
#: Fresh-process set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5

WORKLOAD_NAMES = ("fingerprint_matrix", "table6_sweep", "crash_explore",
                  "fleet_campaign", "fleet_campaign_j2", "array_io")


def _benchmark_json() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run of one workload (the driver contract) ------------------------------


@dataclass
class _Pass:
    wall_s: float                   # host seconds as measured
    raw: Dict[str, Any]             # job key -> result or the exception
    #: Host seconds at nominal speed (calibrated passes only).
    corrected_s: Optional[float] = None


def _run_pass(workload, jobs, tracer=None, calibrate: bool = False) -> _Pass:
    """Every job once, closed loop.  A job that raises is recorded and
    the pass goes on."""
    raw: Dict[str, Any] = {}

    def loop():
        for key, job in jobs:
            if tracer is not None:
                tracer.unit = key
            try:
                raw[key] = job()
            except Exception as exc:    # the unit failed; count it below
                raw[key] = exc
            workload.tick()

    if calibrate:
        calibrator = Calibrator(workload.speed_slice)
        workload.tick = calibrator.tick
        try:
            loop()
        finally:
            del workload.tick
        calibrator.tick(last=True)
        return _Pass(calibrator.raw_s, raw, calibrator.corrected_s)
    start = time.perf_counter()
    if tracer is not None:
        with tracer.root():
            loop()
    else:
        loop()
    return _Pass(time.perf_counter() - start, raw)


def _summarise(workload, raw: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    summaries = {}
    for key, value in raw.items():
        if isinstance(value, Exception):
            summaries[key] = {"error": f"{type(value).__name__}: {value}"}
        else:
            summaries[key] = workload.summarise(key, value)
    return summaries


def _pinned(workload, seed: int) -> Optional[Dict[str, Any]]:
    """The pinned results to hold this run to, if they apply."""
    if not EXPECTED.exists():
        return None
    expected = json.loads(EXPECTED.read_text())
    if workload.seeded and seed != expected["seed"]:
        return None
    return expected["workloads"].get(workload.expected_key)


class _Book:
    """Counts every pass's units: attempted, raised, differing from the
    pinned results, failing their own consistency checks."""

    def __init__(self, workload, pinned: Optional[Dict[str, Any]]):
        self.workload = workload
        self.pinned = pinned
        self.attempted = self.failed = self.mismatched = 0
        self.stream_changed = 0
        self.notes: List[str] = []
        self._first_results: Optional[Dict[str, Any]] = None

    def judge(self, summaries: Dict[str, Dict[str, Any]],
              disk: Optional[Dict[str, float]]) -> None:
        """*disk* is the pass's own meter reading, or None when its
        device I/O happened in worker processes."""
        pinned = self.pinned
        pinned_jobs = (pinned or {}).get("jobs", {})
        attempted = failed = mismatched = 0
        notes = self.notes
        for key, summary in summaries.items():
            want = pinned_jobs.get(key, {})
            units = summary.get("units", want.get("units", 1))
            attempted += units
            if "error" in summary:
                failed += units
                notes.append(f"{key}: raised {summary['error']}")
            elif pinned is not None and summary["result"] != want.get("result"):
                failed += units
                mismatched += units
                notes.append(
                    f"{key}: simulated result differs from expected.json")
            if (want.get("stream") is not None
                    and summary.get("stream") != want["stream"]):
                self.stream_changed = 1
        if pinned is not None and disk is not None:
            for name, have in (("device_ios", disk["reads"] + disk["writes"]),
                               ("virtual_s", disk["busy_time_s"])):
                if have != pinned[name]:
                    failed = mismatched = attempted
                    notes.append(f"{name} = {have!r}, expected.json has "
                                 f"{pinned[name]!r}")
        problems = self.workload.problems(summaries)
        results = {key: summary.get("result", summary.get("error"))
                   for key, summary in summaries.items()}
        if self._first_results is None:
            self._first_results = results
        elif results != self._first_results:
            problems.append("results differ between passes of one seed")
        if problems:
            failed = attempted
            notes.extend(problems)
        self.attempted += attempted
        self.failed += failed
        self.mismatched += mismatched


def _probe_setup(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Time set-up in fresh interpreters, spawn to 'ready' line.
    Returns the samples at nominal host speed, and as measured."""
    corrected, raw = [], []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed), "--setup-probe"]
    slice_before = calibration_slice()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            took = time.perf_counter() - start
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        slice_after = calibration_slice()
        raw.append(took)
        corrected.append(at_nominal_speed(took, slice_before, slice_after))
        slice_before = slice_after
    return corrected, raw


def _host_block(seed: int, seconds: float) -> Dict[str, Any]:
    sha = None          # the driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha,
            "seed": seed, "seconds": seconds}


def run_one(name: str, seed: int, seconds: float, traced: bool,
            out_dir: Path = OUT_DIR) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload for *seconds*.  Returns the contract's
    result object and the full record written to ``perf/out``."""
    from perf import metrics
    from perf.trace import DiskMeter, Tracer
    from perf.workloads import WORKLOADS, Skipped

    load = os.getloadavg()[0]
    noisy = load > (os.cpu_count() or 1) - 1
    if noisy:
        print(f"noisy: 1-min load {load:.2f} at start of {name}")
    try:
        # Imports, input generation, pool warm-up: what ``setup_s`` times.
        workload = WORKLOADS[name](seed)
    except Skipped as skip:
        print(f"skipped: {name}: {skip}")
        raise

    meter = DiskMeter()
    tracer = Tracer() if traced else None
    book = _Book(workload, _pinned(workload, seed))
    jobs = workload.jobs()
    reference = workload.reference()
    passes: List[_Pass] = []
    layer_passes: List[Dict[str, float]] = []
    disk = reference_wall = baseline_wall = last_trace = None
    summaries: Dict[str, Dict[str, Any]] = {}

    def one_pass(pass_jobs, tracer=None):
        done = _run_pass(workload, pass_jobs, tracer, calibrate=not traced)
        reading = meter.take()
        judged = _summarise(workload, done.raw)
        done.raw.clear()    # a pass's results die with it, as a user's would
        # With a reference pass, the passes proper run in worker
        # processes the meter cannot see.
        own_counts = reference is None or pass_jobs is not jobs
        book.judge(judged, reading if own_counts else None)
        return done, judged, reading

    def room_for(more: int) -> bool:
        now = time.perf_counter()
        per_pass = (now - loop_start) / len(passes)
        return now - window_start + more * per_pass <= seconds

    meter.install()
    window_start = time.perf_counter()
    try:
        if reference is not None:
            # One serial pass in this process gives the device counts,
            # and the results the parallel passes must agree with.
            done, _, disk = one_pass([reference])
            reference_wall = done.wall_s
        if traced:
            tracer.install()
        loop_start = time.perf_counter()
        try:
            while True:
                done, summaries, reading = one_pass(jobs, tracer)
                passes.append(done)
                if reference is None:
                    disk = reading
                if traced:
                    last_trace = tracer.take()
                    extras = workload.extras(summaries)
                    extras["obs.events.stream_digest_changed"] = \
                        book.stream_changed
                    layer_passes.append(
                        metrics.pass_metrics(last_trace, disk, extras))
                # A traced run keeps room for the untraced pass after it.
                if not room_for(2 if traced else 1):
                    break
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            # Last, so that it is as warm as the traced passes it is
            # the base of.
            baseline_wall = one_pass(jobs)[0].wall_s
    finally:
        meter.uninstall()
        workload.close()

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(usage, children) / 1024.0

    attempted, failed = book.attempted, book.failed
    notes = sorted(set(book.notes))
    raw_walls = [done.wall_s for done in passes]
    units = sum(s.get("units", 0) for s in summaries.values())

    record: Dict[str, Any] = {
        "workload": name, "unit": workload.unit, "traced": traced,
        "host": _host_block(seed, seconds), "load_1min": load, "noisy": noisy,
        "sizes": workload.sizes, "pinned_compare": book.pinned is not None,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "notes": notes,
        "detail": {key: s["detail"] for key, s in summaries.items()
                   if "detail" in s},
    }
    if traced:
        folded, unstable = metrics.fold_passes(layer_passes)
        wall_s = statistics.median(raw_walls)
        folded["bench.trace_overhead_ratio"] = wall_s / baseline_wall
        if reference_wall is not None:
            folded["common.pool.parallel_efficiency"] = \
                reference_wall / (workload.JOBS * baseline_wall)
        if unstable:
            failed = attempted
            notes.append("counts differ between traced passes: "
                         + ", ".join(unstable))
        values = metrics.with_units(folded, metrics.PER_LAYER)
        record.update(per_layer=values, traced_wall_s=wall_s,
                      untraced_wall_s=baseline_wall, failed=failed, notes=notes)
        _write_json(out_dir / f"trace_{name}.json", {
            "workload": name, "host": record["host"],
            "span_fields": ["name", "layer", "start", "end", "parent", "unit"],
            "spans": last_trace.spans,
            "totals": [{"layer": layer, "name": call, "parent": parent,
                        "calls": entry[0], "total_s": entry[1],
                        "self_s": entry[2]}
                       for (layer, call), parents in last_trace.totals.items()
                       for parent, entry in parents.items()],
            "counters": last_trace.counters,
        })
    else:
        setup_samples, raw_setup = _probe_setup(name, seed)
        walls = [done.corrected_s for done in passes]
        nine = metrics.end_to_end(
            setup_s=statistics.median(setup_samples),
            wall_s=statistics.median(walls),
            units=units, disk=disk, peak_rss_mb=peak_rss_mb,
            attempted=attempted, failed=failed,
            sim_mismatches=book.mismatched)
        values = metrics.with_units(nine, metrics.END_TO_END,
                                    metrics.DRIVER_END_TO_END)
        record.update(
            end_to_end=metrics.with_units(nine, metrics.END_TO_END),
            samples={"wall_s": walls, "raw_wall_s": raw_walls,
                     "setup_s": setup_samples, "raw_setup_s": raw_setup})
    _write_json(out_dir / f"run_{name}_trace{int(traced)}.json", record)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": values}
    return result, record


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _print_metrics(values: Dict[str, Dict[str, Any]], skip_zero=False) -> None:
    for name, metric in values.items():
        if skip_zero and not metric["value"]:
            continue
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:46} {shown:>14} {metric['unit']}")


# -- ledger mode ------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, traced: bool) -> int:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
    return subprocess.run(command, stdout=subprocess.DEVNULL).returncode


def run_ledger(names: List[str], seed: int, seconds: float, trace: bool,
               out: Path) -> int:
    """Every workload in its own fresh subprocess: untraced for the
    end-to-end numbers, then once more traced for the per-layer ones."""
    ledger: Dict[str, Any] = {"schema": "perf-ledger/1",
                              "host": _host_block(seed, seconds),
                              "workloads": {}}
    bad = False
    for name in names:
        entry: Dict[str, Any] = {"status": "ok"}
        ledger["workloads"][name] = entry
        print(f"== {name}")
        for traced in ([False, True] if trace else [False]):
            code = _child(name, seed, seconds, traced)
            if code == EXIT_SKIPPED:
                entry["status"] = "skipped"
                print("  skipped (see perf/README.md)")
                break
            path = OUT_DIR / f"run_{name}_trace{int(traced)}.json"
            if code != 0 or not path.exists():
                entry["status"] = "failed"
                bad = True
                print(f"  run failed with exit code {code}")
                break
            record = json.loads(path.read_text())
            if traced:
                entry["per_layer"] = record["per_layer"]
                entry["traced"] = {k: record[k] for k in (
                    "passes", "traced_wall_s", "untraced_wall_s",
                    "attempted", "failed", "notes", "load_1min", "noisy")}
                _print_metrics(record["per_layer"], skip_zero=True)
            else:
                entry.update({k: record[k] for k in (
                    "unit", "sizes", "end_to_end", "samples", "passes",
                    "attempted", "failed", "notes", "load_1min", "noisy",
                    "pinned_compare", "detail")})
                if record["noisy"]:
                    print(f"  noisy: 1-min load {record['load_1min']:.2f}")
                _print_metrics(record["end_to_end"])
                if name == "array_io":
                    print(array_table(record["detail"],
                                      record["sizes"]["block_size"]))
            if record["failed"]:
                bad = True
                for note in record["notes"]:
                    print(f"  FAILED: {note}")
    _write_json(out, ledger)
    print(f"ledger written to {out}")
    return 1 if bad else 0


def pin(seed: int) -> int:
    """Rewrite perf/expected.json from one pass of every workload."""
    from perf.trace import DiskMeter
    from perf.workloads import WORKLOADS, FleetCampaignJ2

    pinned: Dict[str, Any] = {"schema": "perf-expected/1", "seed": seed,
                              "workloads": {}}
    meter = DiskMeter()
    for name, cls in WORKLOADS.items():
        if cls is FleetCampaignJ2:      # held to fleet_campaign's entry
            continue
        workload = cls(seed)
        meter.install()
        try:
            raw = _run_pass(workload, workload.jobs()).raw
        finally:
            meter.uninstall()
        disk = meter.take()
        summaries = _summarise(workload, raw)
        errors = [s["error"] for s in summaries.values() if "error" in s]
        if errors or workload.problems(summaries):
            print(f"{name}: refusing to pin a failing pass: "
                  f"{errors or workload.problems(summaries)}", file=sys.stderr)
            return 1
        pinned["workloads"][name] = {
            "sizes": workload.sizes,
            "device_ios": disk["reads"] + disk["writes"],
            "virtual_s": disk["busy_time_s"],
            "jobs": {key: {k: s[k] for k in ("units", "result", "stream")}
                     for key, s in summaries.items()},
        }
        print(f"pinned {name}: {len(summaries)} jobs")
    _write_json(EXPECTED, pinned)
    return 0


# -- command line -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run "
                             "(default BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE workload in-process and print the "
                             "driver contract's JSON line")
    parser.add_argument("--no-trace", action="store_true",
                        help="ledger mode: skip the traced runs")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "ledger.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perf/expected.json at --seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(Path(args.compare[0]), Path(args.compare[1]))

    unknown = [name for name in args.workload if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload {unknown}; pick from {list(WORKLOAD_NAMES)}",
              file=sys.stderr)
        return EXIT_USAGE
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure at {ROOT / 'src'}",
              file=sys.stderr)
        return EXIT_USAGE

    from perf.workloads import DEFAULT_SEED, WORKLOADS, Skipped
    seed = DEFAULT_SEED if args.seed is None else args.seed

    if args.pin:
        return pin(seed)

    if args.setup_probe or args.trace is not None:
        if len(args.workload) != 1:
            print("--trace needs exactly one --workload", file=sys.stderr)
            return EXIT_USAGE
    if args.setup_probe:
        try:
            workload = WORKLOADS[args.workload[0]](seed)
        except Skipped:
            return EXIT_SKIPPED
        print("ready", flush=True)
        workload.close()
        return 0

    seconds = args.seconds or _benchmark_json()["run_seconds"]
    if args.trace is not None:
        try:
            result, record = run_one(args.workload[0], seed, seconds,
                                     bool(args.trace))
        except Skipped:
            return EXIT_SKIPPED
        for note in record["notes"]:
            print(f"FAILED: {note}")
        print(f"{record['workload']}: {record['passes']} passes of "
              f"{record['unit']}s in {seconds} s, "
              f"{'traced' if record['traced'] else 'untraced'}")
        _print_metrics(record.get("end_to_end") or record["per_layer"],
                       skip_zero=record["traced"])
        print(json.dumps(result))
        return 0

    return run_ledger(args.workload or list(WORKLOAD_NAMES), seed, seconds,
                      not args.no_trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
