"""Redundancy-array throughput benchmarks.

Measures, per array geometry (2-way mirror, 4-member rotating parity,
RDP at p=5), the virtual-time throughput of four phases:

* **healthy write** — populating the working set (parity geometries
  pay read-modify-write amplification, mirrors pay replication),
* **healthy read** — the fast path (one member read per logical read),
* **degraded read** — the same reads after a member fail-stop (every
  hit on the dead member reconstructs from the survivors),
* **rebuild** — repopulating a replaced member from peers.

Virtual MB/s is the axis (the simulator's disk-time model).  The run
also regenerates the array fingerprint matrix and commits its event
fold digest — the determinism witness — to ``BENCH_array.json``.
"""

from __future__ import annotations

from conftest import REPO_ROOT, run_once, save_result

from repro.bench.records import array_record, record_entry
from repro.redundancy import make_array
from repro.redundancy.fingerprint import run_array_fingerprint

NUM_BLOCKS = 256
BS = 4096
MB = 1024 * 1024

ARRAY_JSON = REPO_ROOT / "BENCH_array.json"

GEOMETRIES = [
    ("mirror2", "mirror", 2),
    ("parity4", "parity", 4),
    ("rdp5", "rdp", 5),
]


def _payload(seed: int) -> bytes:
    return bytes([seed & 0xFF]) * BS


def _busy(array) -> float:
    """Total disk time consumed across all members.

    ``array.clock`` is the max over members and can stand still for a
    whole phase (one member's earlier backlog dominating), so phases
    are costed by the *sum* of member busy time instead.
    """
    return sum(member.disk.stats.busy_time_s for member in array.members)


def _member_io(array):
    reads = sum(member.disk.stats.reads for member in array.members)
    writes = sum(member.disk.stats.writes for member in array.members)
    return reads, writes


def _phase(array, fn, blocks: int):
    """Run one phase, returning virtual cost plus member I/O counts."""
    v0 = _busy(array)
    r0, w0 = _member_io(array)
    fn()
    virtual = _busy(array) - v0
    r1, w1 = _member_io(array)
    mbps = (blocks * BS / MB) / virtual if virtual > 0 else 0.0
    return {"blocks": blocks, "virtual_s": round(virtual, 6),
            "virtual_mb_s": round(mbps, 3),
            "member_reads": r1 - r0, "member_writes": w1 - w0}


def _bench_geometry(label: str, geometry: str, members: int):
    array = make_array(geometry, NUM_BLOCKS, BS, members=members)

    def write_all():
        for b in range(NUM_BLOCKS):
            array.write_block(b, _payload(b))

    def read_all():
        for b in range(NUM_BLOCKS):
            array.read_block(b)

    throughput = {}
    throughput["write"] = _phase(array, write_all, NUM_BLOCKS)
    throughput["read"] = _phase(array, read_all, NUM_BLOCKS)
    array.fail_member(0)
    throughput["degraded_read"] = _phase(array, read_all, NUM_BLOCKS)
    array.revive_member(0)
    array.replace_member(0)
    member_blocks = array.members[0].disk.num_blocks
    throughput["rebuild"] = _phase(
        array, lambda: array.rebuild_member(0), member_blocks)
    # Every logical block must read back intact after the rebuild.
    for b in range(NUM_BLOCKS):
        assert array.read_block(b) == _payload(b), (label, b)
    return array, throughput


def test_array_throughput(benchmark):
    def run():
        out = {}
        for label, geometry, members in GEOMETRIES:
            out[label] = _bench_geometry(label, geometry, members)
        return out

    results = run_once(benchmark, run)

    lines = [f"array throughput ({NUM_BLOCKS} blocks x {BS} B, virtual MB/s)",
             ""]
    for label, geometry, members in GEOMETRIES:
        array, throughput = results[label]
        record = array_record(
            geometry, members, throughput=throughput,
            stats=array.stats,
            degraded_reads=array.degraded_reads,
            read_repairs=array.read_repairs,
            rebuilt_blocks=array.rebuilt_blocks,
        )
        record_entry(f"array_{label}", record, path=ARRAY_JSON)
        row = "  ".join(
            f"{phase}={entry['virtual_mb_s']:8.2f}"
            for phase, entry in throughput.items())
        lines.append(f"{label:10} {row}")
    save_result("array_throughput", "\n".join(lines))

    # Degraded reads must amplify member I/O (reconstruction touches
    # every surviving member of the stripe, healthy reads touch one).
    for label in ("parity4", "rdp5"):
        _, throughput = results[label]
        assert (throughput["degraded_read"]["member_reads"]
                > throughput["read"]["member_reads"]), label


def test_array_fingerprint_determinism(benchmark):
    fp = run_once(benchmark, run_array_fingerprint)
    record_entry(
        "array_fingerprint",
        {
            "cells": sum(len(m.cells) for m in fp.matrices.values()),
            "geometries": sorted(fp.matrices),
            "event_digest": fp.digest,
        },
        path=ARRAY_JSON,
    )
    save_result("array_fingerprint", fp.render())
