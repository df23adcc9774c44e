"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``fingerprint FS``
    Run the failure-policy fingerprinting matrix against one of the
    simulated file systems and print the Figure-2-style panels.

``crash FS``
    Record a workload's write stream, enumerate bounded crash states
    (prefix cuts + torn epochs), replay each through recovery, and
    report every oracle violation with its reproducing state key.

``trace FS --workload W``
    Run one (or all) of the crash workloads with span tracing on and
    write the Chrome trace-event JSON — loadable in Perfetto / DevTools
    — plus a metrics snapshot.  ``fingerprint`` and ``crash`` grow
    ``--trace`` / ``--metrics`` flags that do the same for full runs.

``array``
    Run the member-fault fingerprint rows against the redundancy
    arrays (mirror / rotating parity / RDP) — same IRON D_*/R_*
    classification machinery, one layer down.

``fleet``
    Run the Monte Carlo reliability campaign (geometry × policy loss
    matrix) and exit with a one-line incident summary per cell.

``report``
    Aggregate a campaign into a schema-validated
    ``campaign_report.json`` — classified incidents with provenance
    refs plus flight-recorder time series; ``--trace-trial
    GEOMETRY/POLICY:N`` re-runs one pure trial through the tracer and
    exports a Perfetto timeline.

``table6``
    Run the Table-6 overhead sweep (all 32 ixt3 variants by default)
    and print measured-vs-paper normalized run times.

``space``
    Print the §6.2 space-overhead analysis.

``taxonomy``
    Print the IRON detection and recovery taxonomies (Tables 1-2).

``fsck-demo``
    Corrupt a synthetic ext3 volume in several classic ways, then show
    fsck detecting and repairing the damage (R_repair).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def _unknown(what: str, given, known) -> bool:
    """True — after saying so on stderr — when a name in *given* is not
    one of *known*."""
    bad = [name for name in given if name not in known]
    if bad:
        print(f"unknown {what}: {', '.join(bad)}; "
              f"pick from {', '.join(known)}", file=sys.stderr)
    return bool(bad)


def _list_crash_workloads() -> int:
    from repro.crash import CRASH_WORKLOADS

    for key in sorted(CRASH_WORKLOADS):
        print(f"{key:10} {CRASH_WORKLOADS[key].name}")
    return 0


def _record(args: argparse.Namespace, kind: str, entry: str, record) -> None:
    """Merge *record* into the kind's BENCH file as *entry* and say
    where, unless ``--no-bench-json``."""
    from repro.bench.records import bench_json_path, record_entry

    if not args.no_bench_json:
        path = record_entry(entry, record, path=bench_json_path(kind))
        print(f"results written to {path} ({entry})")


def _run_recorded(args: argparse.Namespace, kind: str, entry: str, run,
                  **context):
    """``run()``; if it raises anything, an interrupt included, *entry*
    becomes a failure row first, so no earlier result is left standing."""
    from repro.bench.records import failure_record

    try:
        return run()
    except BaseException as exc:
        _record(args, kind, entry, failure_record(exc, **context))
        raise


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.bench.records import fingerprint_record
    from repro.disk import CorruptionMode
    from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
    from repro.fingerprint.adapters import ADAPTERS
    from repro.taxonomy import render_full_figure

    if (_unknown("file system", [args.fs], sorted(ADAPTERS))
            or _unknown("workload letter", args.workloads or "", WORKLOAD_BY_KEY)):
        return 2
    adapter = ADAPTERS[args.fs]()
    workloads = None
    if args.workloads:
        workloads = [WORKLOAD_BY_KEY[k] for k in args.workloads]
    mode = CorruptionMode.FIELD if args.field_corruption else CorruptionMode.NOISE
    fp = Fingerprinter(adapter, workloads=workloads, corruption_mode=mode,
                       progress=(print if args.verbose else None),
                       trace=args.trace, metrics=args.metrics)
    # Only a full-matrix run owns the committed ``fingerprint_{fs}`` row.
    entry = f"fingerprint_{args.fs}" + (
        f"_{args.workloads}" if args.workloads else "")
    matrix = _run_recorded(args, "fingerprint", entry, fp.run, fs=args.fs)
    print(render_full_figure(matrix))
    covered, total = matrix.coverage()
    print()
    print(f"{fp.tests_run} fault-injection tests; "
          f"{covered}/{total} cells show some detection or recovery")
    if args.trace:
        print(f"span-tree digest: {fp.observed.span_digest()}")
    fp.observed.write(
        (args.trace_out or f"trace_fingerprint_{args.fs}.json")
        if args.trace else None,
        (args.metrics_out or f"metrics_fingerprint_{args.fs}.json")
        if args.metrics else None,
    )
    _record(args, "fingerprint", entry, fingerprint_record(fp, matrix))
    return 0


def _cmd_crash(args: argparse.Namespace) -> int:
    from repro.bench.records import crash_record
    from repro.crash import (
        CRASH_PROFILES, CRASH_WORKLOADS, PROFILE_GRAMMAR, crash_profile,
        explore)

    if args.list:
        print("profiles:")
        print(PROFILE_GRAMMAR)
        print(f"  named: {', '.join(CRASH_PROFILES)}")
        print("workloads:")
        return _list_crash_workloads()
    try:
        profile = crash_profile(args.fs).key
    except KeyError:
        print(f"unknown crash profile: {args.fs}; see --list", file=sys.stderr)
        return 2
    if _unknown("workload", [args.workload], sorted(CRASH_WORKLOADS)):
        return 2
    entry = f"crash_{profile}_{args.workload}"
    report = _run_recorded(
        args, "crash", entry,
        lambda: explore(profile, args.workload,
                        max_torn_per_epoch=args.max_torn,
                        progress=(print if args.verbose else None),
                        trace=args.trace),
        profile=profile, workload=args.workload)
    print(report.render())
    if args.trace:
        print(f"span-tree digest: {report.observed.span_digest()}")
        report.observed.write(
            args.trace_out or f"trace_crash_{profile}_{args.workload}.json",
            None)
    _record(args, "crash", entry, crash_record(report))
    return 1 if (args.fail_on_violation and report.violations) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.crash import CRASH_PROFILES, CRASH_WORKLOADS
    from repro.obs.capture import trace_workloads

    if args.list:
        return _list_crash_workloads()
    if (_unknown("file system", [args.fs], sorted(CRASH_PROFILES))
            or _unknown("workload", args.workload or [], sorted(CRASH_WORKLOADS))):
        return 2
    capture = trace_workloads(args.fs, args.workload)
    for label, events in capture.streams:
        print(f"{label:10} {len(events)} events")
    print(f"span-tree digest: {capture.span_digest()}")
    suffix = "-".join(k for k, _ in capture.streams)
    capture.write(
        args.output or f"trace_{args.fs}_{suffix}.json",
        None if args.no_metrics
        else args.metrics_out or f"metrics_{args.fs}_{suffix}.json",
    )
    return 0


def _cmd_table6(args: argparse.Namespace) -> int:
    from repro.bench import VARIANT_ORDER, run_table6, table6_record

    benches = args.benches.split(",") if args.benches else None
    variants = VARIANT_ORDER
    if args.quick:
        variants = [v for v in VARIANT_ORDER if len(v) <= 1] + [VARIANT_ORDER[-1]]
    run = run_table6(benches=benches, variants=list(variants),
                     progress=(print if args.verbose else None))
    # Partial variant sets can't index the full table; render manually.
    if args.quick:
        for bench, rows in run.results.items():
            base = rows[0].seconds
            print(f"{bench}:")
            for r in rows:
                print(f"  {r.label:18} {r.seconds / base:5.2f}  ({r.seconds:.3f}s)")
    else:
        print(run.render())
    for bench, score in table6_record(run)["benches"].items():
        print(f"{bench} |measured - paper|: mean "
              f"{score['paper_mean_abs_err']:.3f}, "
              f"max {score['paper_max_abs_err']:.3f}")
    return 0


def _cmd_array(args: argparse.Namespace) -> int:
    from repro.redundancy.fingerprint import (
        ARRAY_GEOMETRIES,
        run_array_fingerprint,
    )

    labels = args.geometry or None
    known = [label for label, _, _ in ARRAY_GEOMETRIES]
    if _unknown("geometry", labels or [], known):
        return 2
    # Only a full-matrix run owns the ``array_fingerprint`` row.
    entry = "array_fingerprint" + ("_" + "-".join(labels) if labels else "")
    fp = _run_recorded(
        args, "array", entry,
        lambda: run_array_fingerprint(
            labels=labels, progress=(print if args.verbose else None)),
        geometries=sorted(labels or known))
    print(fp.render())
    _record(args, "array", entry, {
        "cells": sum(len(m.cells) for m in fp.matrices.values()),
        "geometries": sorted(fp.matrices),
        "event_digest": fp.digest,
    })
    return 0


def _fleet_spec_from_args(args: argparse.Namespace):
    """Build the FleetSpec shared by ``fleet`` and ``report`` from the
    common flag set; returns None (with a message on stderr) on bad
    input."""
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec.load(Path(args.spec)) if args.spec else FleetSpec()
    changes = {}
    if args.trials is not None:
        changes["trials"] = args.trials
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.mission_hours is not None:
        changes["mission_hours"] = args.mission_hours
    if args.geometry:
        known = {g.label: g for g in spec.geometries}
        if _unknown("geometry", args.geometry, sorted(known)):
            return None
        changes["geometries"] = tuple(known[g] for g in args.geometry)
    if args.policy:
        known_p = {p.name: p for p in spec.policies}
        if _unknown("policy", args.policy, sorted(known_p)):
            return None
        changes["policies"] = tuple(known_p[p] for p in args.policy)
    if args.no_crosscheck:
        changes["crosscheck"] = False
    if changes:
        spec = spec.scaled(**changes)
    if spec.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return None
    return spec


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.bench.records import fleet_record
    from repro.fleet.campaign import run_fleet

    spec = _fleet_spec_from_args(args)
    if spec is None:
        return 2
    entry = f"fleet_{spec.name}_j{args.jobs}"
    report = _run_recorded(
        args, "fleet", entry,
        lambda: run_fleet(spec, jobs=args.jobs,
                          progress=(print if args.verbose else None)),
        spec=spec.name, jobs=args.jobs)
    print(report.render())
    summary = report.incident_summary()
    if summary:
        print()
        print("incidents (top loss mode per cell):")
        for line in summary:
            print(f"  {line}")
    if args.metrics_out:
        snapshot = report.metrics().snapshot()
        Path(args.metrics_out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {args.metrics_out}")
    _record(args, "fleet", entry, fleet_record(
        report,
        **{f"event_digest_jobs{args.jobs}": report.digest,
           f"incident_digest_jobs{args.jobs}": report.incident_digest}))
    # After the record, so a failed cross-check replaces the row
    # instead of leaving the last passing one standing.
    if report.crosscheck is not None and not report.crosscheck["within_tolerance"]:
        print("::error::mirror2 simulated loss probability outside the "
              "analytic tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.fleet.campaign import run_fleet
    from repro.common.schema import schema_root, validate_json

    spec = _fleet_spec_from_args(args)
    if spec is None:
        return 2

    if args.trace_trial:
        return _report_trace_trial(args, spec)

    report = run_fleet(spec, jobs=args.jobs,
                       progress=(print if args.verbose else None))
    body = report.campaign_report()
    errors = validate_json(
        body, schema_root() / "campaign_report.schema.json")
    if errors:
        for error in errors[:20]:
            print(f"::error::campaign report schema: {error}",
                  file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    print(report.render())
    print()
    print(f"{len(report.incidents)} incidents across "
          f"{len(report.cells)} cells:")
    for line in report.incident_summary():
        print(f"  {line}")
    print()
    print(f"campaign report written to {out} (schema-valid)")
    return 0


def _report_trace_trial(args: argparse.Namespace, spec) -> int:
    """Re-run one pure trial with span tracing and export its Perfetto
    timeline (plus the raw flight-recorder samples)."""
    from repro.fleet.sim import run_trial

    cell_text, _, trial_text = args.trace_trial.rpartition(":")
    geometry_label, _, policy_name = cell_text.partition("/")
    geometries = {g.label: g for g in spec.geometries}
    policies = {p.name: p for p in spec.policies}
    if (not trial_text.isdecimal() or geometry_label not in geometries
            or policy_name not in policies):
        print(f"--trace-trial wants GEOMETRY/POLICY:N "
              f"(geometries {sorted(geometries)}, "
              f"policies {sorted(policies)}), got {args.trace_trial!r}",
              file=sys.stderr)
        return 2
    trial = int(trial_text)
    outcome = run_trial(spec, geometries[geometry_label],
                        policies[policy_name], trial, trace=True)
    print(f"trial {geometry_label}/{policy_name}#{trial}: "
          f"{outcome.outcome}"
          + (f" at {outcome.ttdl_hours}h via {outcome.site}"
             if outcome.site else "")
          + f", {outcome.events} events")
    outcome.observed.write(
        args.trace_out
        or f"trace_fleet_{geometry_label}_{policy_name}_{trial}.json",
        None)
    return 0


#: Digest families compared within one BENCH entry: all keys sharing a
#: prefix must agree across jobs widths.
_DIGEST_FAMILIES = ("event_digest", "incident_digest")


def _digest_mismatches(entries) -> List[str]:
    """Entries whose own jobs-width digests disagree within a family —
    a determinism failure inside one file."""
    bad = []
    for name, record in sorted(entries.items()):
        if not isinstance(record, dict):
            continue
        for family in _DIGEST_FAMILIES:
            digests = {value for key, value in record.items()
                       if key.startswith(family) and value}
            if len(digests) > 1:
                bad.append(name)
                break
    return bad


_ABSENT = object()


def _value_diffs(old, new, path: str = "") -> List[tuple]:
    """``(key path, old, new)`` for every leaf at which two JSON values
    differ: dicts are walked by key (a key on one side only is a leaf),
    equal-length lists by index."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{path}.{key}" if path else key,
                  old.get(key, _ABSENT), new.get(key, _ABSENT))
                 for key in sorted(set(old) | set(new))]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return [] if old == new else [(path, old, new)]
    return [diff for sub, a, b in pairs for diff in _value_diffs(a, b, sub)]


def _clip(value) -> str:
    text = "<absent>" if value is _ABSENT else json.dumps(value, sort_keys=True)
    return text if len(text) <= 40 else text[:39] + "…"


def _cmd_bench(args: argparse.Namespace) -> int:
    """Compare two BENCH result JSONs: every shared entry must hold the
    same values, and each file's jobs-width digests must agree."""
    from repro.bench.records import SCHEMA

    if not args.compare:
        print("nothing to do: pass --compare OLD.json NEW.json", file=sys.stderr)
        return 2
    old_path, new_path = args.compare
    try:
        old = json.loads(Path(old_path).read_text())
        new = json.loads(Path(new_path).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read results JSON: {exc}", file=sys.stderr)
        return 2
    for path, doc in ((old_path, old), (new_path, new)):
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != SCHEMA:
            print(f"{path}: schema {schema!r}, want {SCHEMA!r}", file=sys.stderr)
            return 2
    old_entries = old.get("entries", {})
    new_entries = new.get("entries", {})
    shared = sorted(set(old_entries) & set(new_entries))
    if not shared:
        print("no common entries between the two files", file=sys.stderr)
        return 2
    errors = []
    print(f"{'entry':32} {'values differing':>16}")
    for name in shared:
        diffs = _value_diffs(old_entries[name], new_entries[name])
        print(f"{name:32} {len(diffs):>16}")
        errors += [f"{name}: {path}: {_clip(a)} -> {_clip(b)}"
                   for path, a, b in diffs]
    only_old = sorted(set(old_entries) - set(new_entries))
    only_new = sorted(set(new_entries) - set(old_entries))
    if only_old:
        print(f"only in {old_path}: {', '.join(only_old)}")
    if only_new:
        print(f"only in {new_path}: {', '.join(only_new)}")
    errors += [f"{path}:{name} digests disagree across jobs widths"
               for path, entries in ((old_path, old_entries),
                                     (new_path, new_entries))
               for name in _digest_mismatches(entries)]
    for error in errors:
        print(f"::error::{error}")
    return 1 if errors else 0


def _cmd_space(args: argparse.Namespace) -> int:
    from repro.bench.space import analyze_all, render

    print(render(analyze_all()))
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.taxonomy import render_detection_table, render_recovery_table

    print(render_detection_table())
    print()
    print(render_recovery_table())
    return 0


def _cmd_fsck_demo(args: argparse.Namespace) -> int:
    from repro.disk import DeviceStack
    from repro.fs.ext3 import Ext3, Ext3Config, fsck_ext3, mkfs_ext3
    from repro.fs.ext3.structures import inode_slot, patch_inode_block

    cfg = Ext3Config()
    disk = DeviceStack.build(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)
    fs = Ext3(disk)
    fs.mount()
    fs.mkdir("/docs")
    fs.write_file("/docs/report", b"quarterly numbers " * 50)
    fs.write_file("/notes", b"remember the milk")
    fs.unmount()

    # Classic damage: a wild pointer and a wrecked bitmap.
    ino = 4  # one of the allocated inodes
    block, off = cfg.inode_location(ino)
    raw = disk.peek(block)
    inode = inode_slot(raw, off)
    if inode.direct[0]:
        inode.direct[0] = 0x7FFFFFF0
        disk.poke(block, patch_inode_block(raw, off, inode))
    disk.poke(cfg.block_bitmap_block(1), b"\xff" * cfg.block_size)

    print("== first pass (check only) ==")
    print(fsck_ext3(disk).render())
    print()
    print("== second pass (repair) ==")
    print(fsck_ext3(disk, repair=True).render())
    print()
    print("== third pass (verify) ==")
    print(fsck_ext3(disk).render())
    return 0


def _jobs(text: str) -> int:
    """``type=`` of ``-j/--jobs``: an integer >= 1, else exit 2."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return int(text)


def _max_torn(text: str) -> int:
    """``type=`` of ``--max-torn``: an integer >= 0, else exit 2."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("--max-torn must be >= 0")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IRON File Systems (SOSP 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options several commands take, each declared once as a parent.
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "-j", "--jobs", type=_jobs, default=1, metavar="N",
        help="fan the campaign's trials out across N worker processes; "
             "output and digests are byte-identical to --jobs 1")
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("-v", "--verbose", action="store_true")
    no_bench_json = argparse.ArgumentParser(add_help=False)
    no_bench_json.add_argument(
        "--no-bench-json", action="store_true",
        help="skip writing the result record to the command's BENCH_*.json")
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", action="store_true",
                        help="keep every run's event stream (spans on) and "
                             "write a Chrome trace-event JSON")
    traced.add_argument("--trace-out", metavar="PATH",
                        help="trace output path (default: "
                             "trace_fingerprint_FS.json / trace_crash_FS_W.json)")
    listing = argparse.ArgumentParser(add_help=False)
    listing.add_argument("--list", action="store_true",
                         help="list the crash workloads (and, for crash, "
                              "the profile grammar) and exit")

    p = sub.add_parser("fingerprint",
                       parents=[verbose, no_bench_json, traced],
                       help="fingerprint a file system's failure policy")
    p.add_argument("fs", help="ext3 | reiserfs | jfs | ntfs | ixt3")
    p.add_argument("--workloads", help="subset of workload letters, e.g. 'adgp'")
    p.add_argument("--field-corruption", action="store_true",
                   help="use FS-aware corrupted-field blocks instead of noise")
    p.add_argument("--metrics", action="store_true",
                   help="collect metrics; write JSON snapshot + Prometheus text")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="metrics output path (default: metrics_fingerprint_FS.json)")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("crash",
                       parents=[verbose, no_bench_json, traced, listing],
                       help="explore bounded crash states of a workload")
    p.add_argument("fs", nargs="?", default="ext3",
                   help="crash profile: FS[+FEATURE...][@GEOMETRY], e.g. "
                        "ext3, ixt3 (= ixt3+Tc), ixt3+Mc+Dc@rdp5 (see --list)")
    p.add_argument("--workload", default="creat",
                   help="crash workload key (see --list)")
    p.add_argument("--max-torn", type=_max_torn, default=None, metavar="K",
                   help="cap torn states per commit epoch (default: all)")
    p.add_argument("--fail-on-violation", action="store_true",
                   help="exit non-zero when any oracle is violated")
    p.set_defaults(func=_cmd_crash)

    p = sub.add_parser("trace", parents=[listing],
                       help="trace a workload; write Chrome/Perfetto JSON")
    p.add_argument("fs", nargs="?", default="ext3",
                   help="ext3 | reiserfs | jfs | ntfs | ixt3")
    p.add_argument("--workload", action="append", metavar="W",
                   help="crash workload key, repeatable (default: all)")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="trace output path (default: trace_FS_WORKLOADS.json)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="metrics output path (default: metrics_FS_WORKLOADS.json)")
    p.add_argument("--no-metrics", action="store_true",
                   help="skip the metrics snapshot")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("table6", parents=[verbose],
                       help="run the Table-6 overhead sweep")
    p.add_argument("--quick", action="store_true",
                   help="baseline + single features + all-on only")
    p.add_argument("--benches", help="comma list: SSH,Web,Post,TPCB")
    p.set_defaults(func=_cmd_table6)

    p = sub.add_parser("array", parents=[verbose, no_bench_json],
                       help="fingerprint the redundancy arrays' failure policy")
    p.add_argument("--geometry", action="append", metavar="LABEL",
                   help="geometry label, repeatable: mirror2 | mirror3 | "
                        "parity4 | rdp5 (default: all)")
    p.set_defaults(func=_cmd_array)

    fleet_spec = argparse.ArgumentParser(add_help=False)
    fleet_spec.add_argument("--spec", metavar="JSON",
                            help="FleetSpec JSON file (missing keys take defaults)")
    fleet_spec.add_argument("--trials", type=int, metavar="N",
                            help="trials per (geometry, policy) cell")
    fleet_spec.add_argument("--seed", type=int, metavar="S",
                            help="root seed for the campaign's named streams")
    fleet_spec.add_argument("--mission-hours", type=float, metavar="H",
                            help="virtual mission length per trial")
    fleet_spec.add_argument("--geometry", action="append", metavar="LABEL",
                            help="geometry label, repeatable (default: all in spec)")
    fleet_spec.add_argument("--policy", action="append", metavar="NAME",
                            help="policy name, repeatable (default: all in spec)")
    fleet_spec.add_argument("--no-crosscheck", action="store_true",
                            help="skip the mirror2 analytic cross-check cell")

    p = sub.add_parser("fleet",
                       parents=[fleet_spec, jobs, verbose, no_bench_json],
                       help="Monte Carlo fleet reliability campaign "
                            "(loss-probability matrix)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="also write the campaign's repro_fleet_* metrics "
                        "snapshot JSON here")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("report", parents=[fleet_spec, jobs, verbose],
                       help="aggregate a fleet campaign into a "
                            "schema-validated campaign_report.json "
                            "(incidents + time series)")
    p.add_argument("-o", "--out", metavar="PATH",
                   default="campaign_report.json",
                   help="campaign report output path "
                        "(default: campaign_report.json)")
    p.add_argument("--trace-trial", metavar="GEOMETRY/POLICY:N",
                   help="skip the campaign; re-run one pure trial with "
                        "span tracing and export its Perfetto timeline")
    p.add_argument("--trace-out", metavar="PATH",
                   help="timeline output path for --trace-trial "
                        "(default: trace_fleet_GEO_POL_N.json)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bench", help="compare BENCH result JSON files")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="two repro-bench-results/1 JSONs; exit 1 naming "
                        "every shared entry and key whose value differs")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("space", help="print the space-overhead analysis")
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("taxonomy", help="print the IRON taxonomies")
    p.set_defaults(func=_cmd_taxonomy)

    p = sub.add_parser("fsck-demo", help="demonstrate R_repair on a damaged volume")
    p.set_defaults(func=_cmd_fsck_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
