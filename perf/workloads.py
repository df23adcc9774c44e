"""The six driver-level workloads of the perf ledger.

Each workload is the real driver a user runs — a fingerprint matrix, a
Table-6 sweep, a crash exploration, a fleet campaign, array I/O — cut
into *jobs* (one matrix, one cell, one exploration...).  A *pass* runs
every job once; passes are deterministic, so every pass of one seed has
the same simulated results and the same device I/O, and only host time
varies.  Sizes are set so a pass takes 2-5 s on the 2-core reference
host: the driver contract gives each run ~15 s, and a run reports the
median pass.

Calls into the program go through module attributes (``engine.explore``,
not an imported ``explore``) so that a traced run finds the wrapped
callables of perf/trace.py.

The program only ever sees generated inputs: ``--seed`` becomes
``FleetSpec.seed`` and the array access pattern, never a workload name.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from perf.calibrate import calibration_slice
from repro.bench import harness as bench_harness
from repro.bench.paperdata import TABLE6_PAPER, VARIANT_ORDER, variant_label
from repro.bench.workloads import BenchScale
from repro.common import pool
from repro.crash import engine as crash_engine
from repro.crash.workloads import CRASH_WORKLOADS
from repro.disk.faults import CorruptionMode
from repro.fingerprint.adapters import ADAPTERS
from repro.fingerprint.harness import Fingerprinter
from repro.fleet import campaign as fleet_campaign
from repro.fleet.spec import FleetSpec
from repro.obs.trace import resolve_ref
from repro.redundancy import array as redundancy_array

#: ``FleetSpec``'s own default seed; perf/expected.json is pinned at it.
DEFAULT_SEED = 20260807

Job = Tuple[str, Callable[[], Any]]


def _sha(*parts: Any) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class Workload:
    """One named traffic mix.  Constructing it generates the inputs."""

    name = ""
    #: What ``units_per_s`` counts.
    unit = ""
    #: Whether ``--seed`` changes the inputs (else a fixed enumeration).
    seeded = False
    #: Entry of perf/expected.json the results are compared against.
    expected_key = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes: Dict[str, Any] = {}

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def summarise(self, key: str, raw: Any) -> Dict[str, Any]:
        """``{"units": n, "result": <pinned>, "stream": <digest or None>}``
        plus free-form ``detail`` — computed outside the timed pass."""
        raise NotImplementedError

    def reference(self) -> Optional[Job]:
        """A job run once, serially and metered, before the passes of a
        workload whose passes run out of process."""
        return None

    def problems(self, summaries: Dict[str, Dict[str, Any]]) -> List[str]:
        """Self-consistency failures that need no pinned file."""
        return []

    def extras(self, summaries: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
        """Per-layer metrics only the workload can compute."""
        return {}

    def close(self) -> None:
        """Stop whatever the constructor started."""

    def tick(self) -> None:
        """A point where the work may be interrupted: jobs hand this to
        the program's progress callbacks, and a calibrated pass swaps in
        :meth:`perf.calibrate.Calibrator.tick`."""

    def speed_slice(self) -> float:
        """One calibration slice, run where the passes run."""
        return calibration_slice()


# -- 1. fingerprint_matrix -----------------------------------------------------


class FingerprintMatrix(Workload):
    name = expected_key = "fingerprint_matrix"
    unit = "fault-injection test"
    why = ("Figure 2/3 (5 FS x noise+field, 2634 tests a pass): fs syscalls, "
           "disk restore, injector with faults armed, policy inference; no "
           "arrays, pool or bench generators")

    FILE_SYSTEMS = ("ext3", "reiserfs", "jfs", "ntfs", "ixt3")
    #: NOISE is the figures' default and FIELD the type-aware variant.
    #: ZERO and SHIFT differ from NOISE by one line of payload mangling
    #: and were cut to fit the run-time cap.
    MODES = (CorruptionMode.NOISE, CorruptionMode.FIELD)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sizes = {"file_systems": list(self.FILE_SYSTEMS),
                      "modes": [mode.value for mode in self.MODES]}

    def jobs(self) -> List[Job]:
        return [(f"{fs}/{mode.value}",
                 lambda fs=fs, mode=mode: self._matrix(fs, mode))
                for fs in self.FILE_SYSTEMS for mode in self.MODES]

    def _matrix(self, fs: str, mode: CorruptionMode):
        fingerprinter = Fingerprinter(ADAPTERS[fs](), corruption_mode=mode,
                                      progress=lambda _message: self.tick())
        return fingerprinter, fingerprinter.run()

    def summarise(self, key, raw):
        fingerprinter, matrix = raw
        cells = sorted(
            (cell, obs.detection_symbols(), obs.recovery_symbols())
            for cell, obs in matrix.cells.items())
        return {
            "units": fingerprinter.tests_run,
            "result": {"tests": fingerprinter.tests_run,
                       "matrix": _sha(cells, sorted(matrix.not_applicable))},
            "stream": _sha(sorted(fingerprinter.workload_digest.items())),
        }

    def extras(self, summaries):
        return {"fingerprint.harness.tests":
                sum(s.get("units", 0) for s in summaries.values())}


# -- 2. table6_sweep -----------------------------------------------------------


class Table6Sweep(Workload):
    name = expected_key = "table6_sweep"
    unit = "(bench, variant) cell"
    why = ("Table 6 (4 benches x 4 variants, PostMark cut to 30 files/80 "
           "txns): fault-free syscall streams through generators, fs, "
           "journal, bitmap and a cache that holds the working set; no "
           "faults or arrays")

    BENCHES = ("SSH", "Web", "Post", "TPCB")
    VARIANTS = ((), ("Mr",), ("Tc",), ("Mc", "Mr", "Dc", "Dp", "Tc"))
    #: PostMark at full ``BenchScale`` is 22 s of the 24 s sweep; cut to
    #: a sixth so a pass fits the run-time cap.  The other three run at
    #: their default scale.
    SCALE = BenchScale(post_files=30, post_txns=80)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sizes = {
            "benches": list(self.BENCHES),
            "variants": [variant_label(v) for v in self.VARIANTS],
            "post_files": self.SCALE.post_files,
            "post_txns": self.SCALE.post_txns,
            "cache_blocks": bench_harness.CACHE_BLOCKS,
        }

    def jobs(self) -> List[Job]:
        return [(f"{bench}/{variant_label(variant)}",
                 lambda bench=bench, variant=variant:
                 bench_harness.run_variant(bench, variant, scale=self.SCALE))
                for bench in self.BENCHES for variant in self.VARIANTS]

    def summarise(self, key, raw):
        return {
            "units": 1,
            "result": {"virtual_us": round(raw.seconds * 1e6),
                       "reads": raw.reads, "writes": raw.writes},
            "stream": None,
            "detail": {"virtual_s": raw.seconds},
        }

    def extras(self, summaries):
        """The timing model's stated error: mean |measured - paper|
        normalised run time over the cells run (virtual clock)."""
        errors = []
        for bench in self.BENCHES:
            base = summaries.get(f"{bench}/{variant_label(())}", {})
            base_s = base.get("detail", {}).get("virtual_s")
            for variant in self.VARIANTS:
                cell = summaries.get(f"{bench}/{variant_label(variant)}", {})
                seconds = cell.get("detail", {}).get("virtual_s")
                if not base_s or seconds is None:
                    continue
                paper = TABLE6_PAPER[bench][VARIANT_ORDER.index(variant)]
                errors.append(abs(seconds / base_s - paper))
        return {"bench.harness.paper_mean_abs_err":
                sum(errors) / len(errors) if errors else 0.0}


# -- 3. crash_explore ----------------------------------------------------------


class CrashExplore(Workload):
    name = expected_key = "crash_explore"
    unit = "crash state"
    why = ("crash exploration (7 profiles x 5 workloads, 1622 states a "
           "pass): disk restore/poke, mount + journal recovery, fsck, state "
           "digests; arrays only as a read path, injector idle")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sizes = {"profiles": list(crash_engine.CRASH_PROFILES),
                      "workloads": list(CRASH_WORKLOADS)}

    def jobs(self) -> List[Job]:
        return [(f"{profile}/{workload}",
                 lambda profile=profile, workload=workload:
                 crash_engine.explore(profile, workload))
                for profile in crash_engine.CRASH_PROFILES
                for workload in CRASH_WORKLOADS]

    def summarise(self, key, raw):
        return {
            "units": raw.states_explored,
            "result": {
                "states": raw.states_explored,
                "violations": sorted(f"{v.state_key}|{v.oracle}"
                                     for v in raw.violations),
            },
            "stream": None,
        }


# -- 4/5. fleet_campaign, fleet_campaign_j2 ------------------------------------


class FleetCampaign(Workload):
    name = expected_key = "fleet_campaign"
    unit = "trial"
    seeded = True
    why = ("21-cell fleet matrix, 8 trials a cell, jobs=1: small members "
           "scanned whole by scrub/rebuild block by block, so array, rdp, "
           "armed injector, disk and event emission do the work; no fs")

    #: The committed matrix at 8 trials per cell (200 by default).
    TRIALS = 8
    JOBS = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = FleetSpec().scaled(trials=self.TRIALS, seed=seed)
        self.sizes = {"trials_per_cell": self.TRIALS,
                      "cells": len(self.spec.cells()),
                      "member_blocks": self.spec.num_blocks,
                      "block_size": self.spec.block_size,
                      "jobs": self.JOBS}

    def jobs(self) -> List[Job]:
        return [("campaign", self._serial_campaign)]

    def _serial_campaign(self):
        """``run_fleet`` at jobs=1 — one call of ~3 s with no progress
        callback until every trial is done, so :meth:`tick` is hung on
        the name the campaign looks ``run_trial`` up by."""
        run_trial = fleet_campaign.run_trial

        def ticking_trial(*args, **kwargs):
            try:
                return run_trial(*args, **kwargs)
            finally:
                self.tick()

        fleet_campaign.run_trial = ticking_trial
        try:
            return fleet_campaign.run_fleet(self.spec, jobs=1)
        finally:
            fleet_campaign.run_trial = run_trial

    def summarise(self, key, raw):
        unresolved = 0
        for incident in raw.incidents:
            for cause in incident.causes:
                try:
                    resolve_ref(cause.ref, raw.streams)
                except (KeyError, ValueError):
                    unresolved += 1
        return {
            "units": raw.trials,
            "result": {
                "matrix": {f"{geometry}/{policy}": dict(sorted(
                    cell.outcomes.items()))
                    for (geometry, policy), cell in raw.cells.items()},
                "outcome_digest": _sha(*(event.key() for event in raw.events)),
                "incident_digest": raw.incident_digest,
            },
            "stream": raw.digest,
            "detail": {"incidents": len(raw.incidents),
                       "unresolved_refs": unresolved},
        }

    def problems(self, summaries):
        unresolved = summaries.get("campaign", {}).get(
            "detail", {}).get("unresolved_refs", 0)
        return [f"{unresolved} incident refs do not resolve"] \
            if unresolved else []


class FleetCampaignJ2(FleetCampaign):
    name = "fleet_campaign_j2"
    why = ("the same campaign at jobs=2 through pool_map, pool warmed in "
           "set-up: identical trials, so any difference from "
           "fleet_campaign is pool transport and scheduling")
    JOBS = 2

    def __init__(self, seed: int):
        if (os.cpu_count() or 1) < self.JOBS:
            raise Skipped(f"os.cpu_count() < {self.JOBS}: effective_jobs "
                          "would silently run this serially")
        super().__init__(seed)
        pool.warm_pool(self.JOBS)

    def jobs(self) -> List[Job]:
        return [("campaign",
                 lambda: fleet_campaign.run_fleet(self.spec, jobs=self.JOBS))]

    def reference(self) -> Optional[Job]:
        return ("campaign", self._serial_campaign)

    def speed_slice(self) -> float:
        """On every worker at once: that is where, and how loaded, the
        host is while a pass runs."""
        workers = pool.get_pool(self.JOBS)
        slices = [workers.submit(calibration_slice) for _ in range(self.JOBS)]
        return statistics.fmean(future.result() for future in slices)

    def close(self) -> None:
        """Stop the workers and the resource tracker ``get_pool`` started,
        and wait for each: the driver wants no process left behind."""
        import multiprocessing
        from multiprocessing import resource_tracker

        pool.shutdown_pool()
        for child in multiprocessing.active_children():
            child.join()
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:    # private, but the only way to reap it
            stop()


class Skipped(Exception):
    """The workload cannot run meaningfully on this host."""


# -- 6. array_io ---------------------------------------------------------------


class ArrayIO(Workload):
    name = expected_key = "array_io"
    unit = "logical 4 KB block I/O"
    seeded = True
    why = ("arrays used the opposite way to the fleet (4 geometries x 4096 "
           "x 4 KB): foreground read-modify-write beside reads, healthy and "
           "degraded, no armed faults; shows a scan gain that costs writes")

    GEOMETRIES = (("mirror2", "mirror", 2), ("mirror3", "mirror", 3),
                  ("parity4", "parity", 4), ("rdp5", "rdp", 5))
    BLOCKS = 4096
    BLOCK_SIZE = 4096
    PAYLOADS = 256
    PHASES = ("write", "read", "degraded_read", "degraded_write",
              "rebuild", "scrub", "read_back")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.payloads = [rng.randbytes(self.BLOCK_SIZE)
                         for _ in range(self.PAYLOADS)]
        #: Payload index written to each block by the sequential fill.
        self.fill = [rng.randrange(self.PAYLOADS) for _ in range(self.BLOCKS)]
        self.reads = [rng.randrange(self.BLOCKS) for _ in range(self.BLOCKS)]
        self.rewrites = [(rng.randrange(self.BLOCKS),
                          rng.randrange(self.PAYLOADS))
                         for _ in range(self.BLOCKS // 4)]
        self.sizes = {"geometries": [g[0] for g in self.GEOMETRIES],
                      "logical_blocks": self.BLOCKS,
                      "block_size": self.BLOCK_SIZE,
                      "degraded_writes": len(self.rewrites)}

    def jobs(self) -> List[Job]:
        return [(label, lambda kind=kind, members=members:
                 self._geometry(kind, members))
                for label, kind, members in self.GEOMETRIES]

    def _geometry(self, kind: str, members: int) -> Dict[str, Any]:
        array = redundancy_array.make_array(
            kind, self.BLOCKS, self.BLOCK_SIZE, members=members)
        payloads = self.payloads
        model = [payloads[index] for index in self.fill]
        phases: Dict[str, Dict[str, Any]] = {}
        wrong = 0

        def member_totals():
            stats = [member.disk.stats for member in array.members]
            return (sum(s.busy_time_s for s in stats),
                    sum(s.reads for s in stats), sum(s.writes for s in stats))

        def phase(name: str, blocks: int, body: Callable[[], None]) -> None:
            busy0, reads0, writes0 = member_totals()
            start = perf_counter()
            body()
            host_s = perf_counter() - start
            busy1, reads1, writes1 = member_totals()
            self.tick()
            phases[name] = {
                "blocks": blocks, "host_s": host_s,
                "virtual_s": busy1 - busy0,
                "member_reads": reads1 - reads0,
                "member_writes": writes1 - writes0,
            }

        def fill():
            for block, data in enumerate(model):
                array.write_block(block, data)

        def random_reads():
            nonlocal wrong
            for block in self.reads:
                wrong += array.read_block(block) != model[block]

        def rewrites():
            for block, index in self.rewrites:
                model[block] = payloads[index]
                array.write_block(block, model[block])

        digest = hashlib.sha256()

        def read_back():
            nonlocal wrong
            for block, data in enumerate(model):
                got = array.read_block(block)
                wrong += got != data
                digest.update(got)

        phase("write", self.BLOCKS, fill)
        phase("read", len(self.reads), random_reads)
        array.fail_member(0)
        phase("degraded_read", len(self.reads), random_reads)
        phase("degraded_write", len(self.rewrites), rewrites)
        array.replace_member(0)
        # Member 0 holds a block for every stripe in all four geometries.
        member_blocks = array.members[0].disk.num_blocks
        phase("rebuild", member_blocks, lambda: array.rebuild_member(0))
        scrubbed = []
        phase("scrub", array.scrub_units,
              lambda: scrubbed.append(array.scrub()))
        phase("read_back", self.BLOCKS, read_back)
        return {"phases": phases, "wrong": wrong,
                "scrub_problems": scrubbed[0].problems,
                "digest": digest.hexdigest()}

    _LOGICAL = ("write", "read", "degraded_read", "degraded_write",
                "read_back")

    def summarise(self, key, raw):
        phases = raw["phases"]
        return {
            "units": sum(phases[name]["blocks"] for name in self._LOGICAL),
            "result": {
                "read_back": raw["digest"],
                "phases": {name: {
                    "virtual_ns": round(phase["virtual_s"] * 1e9),
                    "member_reads": phase["member_reads"],
                    "member_writes": phase["member_writes"]}
                    for name, phase in phases.items()},
            },
            "stream": None,
            "detail": {"wrong": raw["wrong"],
                       "scrub_problems": raw["scrub_problems"],
                       "phases": phases},
        }

    def problems(self, summaries):
        found = []
        for key, summary in summaries.items():
            detail = summary.get("detail", {})
            if detail.get("wrong"):
                found.append(f"{key}: {detail['wrong']} blocks read back wrong")
            if detail.get("scrub_problems"):
                found.append(f"{key}: scrub after rebuild found "
                             f"{detail['scrub_problems']} problems")
        return found


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FingerprintMatrix, Table6Sweep, CrashExplore,
                              FleetCampaign, FleetCampaignJ2, ArrayIO)
}
