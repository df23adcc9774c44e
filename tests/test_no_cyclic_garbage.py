"""Every ledger workload frees what one run builds by reference counting.

A fingerprint run, a Table-6 cell, a fleet trial and an array rebuild
each build a device stack (or an array), a file system and a disk, then
drop them.  Nothing among them may be a reference cycle: cyclic garbage
waits for the cycle collector, whose passes then cost wall clock and
hold whole disk images alive in between.  The crash explorer
holds the same line in ``tests/test_crash_engine.py``.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.harness import run_variant
from repro.bench.workloads import BenchScale
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import ADAPTERS
from repro.fleet.sim import run_trial
from repro.fleet.spec import FleetSpec
from repro.redundancy import make_array

FILE_SYSTEMS = ["ext3", "reiserfs", "jfs", "ntfs", "ixt3"]

TINY = BenchScale(
    ssh_sources=8, ssh_objects=6, ssh_dirs=2,
    web_files=6, web_requests=12,
    post_files=10, post_txns=12,
    tpcb_accounts_blocks=8, tpcb_txns=6,
)


def _cyclic_garbage_after(run) -> int:
    """What *run* leaves to the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("fs_key", FILE_SYSTEMS)
def test_fingerprint_runs_leave_no_cyclic_garbage(fs_key):
    """Each observed run's type oracle is disarmed when the run ends,
    and no failed retry keeps its error, so every run's stack, file
    system and disk are freed as the run returns."""
    assert _cyclic_garbage_after(Fingerprinter(ADAPTERS[fs_key]()).run) == 0


def test_a_table6_cell_leaves_no_cyclic_garbage():
    assert _cyclic_garbage_after(
        lambda: run_variant("Post", ("Mc", "Tc"), scale=TINY)) == 0


def test_a_fleet_trial_leaves_no_cyclic_garbage():
    spec = FleetSpec().scaled(trials=1)
    geometry, policy = spec.cells()[0]
    assert _cyclic_garbage_after(
        lambda: run_trial(spec, geometry, policy, 0)) == 0


def test_an_array_fill_and_rebuild_leaves_no_cyclic_garbage():
    def fill_and_rebuild():
        array = make_array("rdp", 48, 512, members=5)
        for block in range(array.num_blocks):
            array.write_block(block, bytes([block]) * 512)
        array.fail_member(2)
        array.revive_member(2)
        array.replace_member(2)
        assert array.rebuild_member(2) > 0
        assert array.read_block(17) == bytes([17]) * 512

    assert _cyclic_garbage_after(fill_and_rebuild) == 0
