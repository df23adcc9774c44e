"""Pin of every device write the Table-6 sweep issues, at a small scale.

``BENCH_fingerprint.json``, ``benchmarks/results/`` and
``perf/expected.json`` hold run times and I/O counts; the blocks ixt3
writes, their contents and the redundancy state it ends with are pinned
nowhere else.  One SHA-256 folds, for each of the 32 ``VARIANT_ORDER``
combinations × 4 benchmarks at ``SCALE``: every ``(block,
sha1(payload))`` the ``SimulatedDisk`` receives, in order (mkfs
included); the final clock, reads and writes; and, after unmount,
ixt3's checksum cache (``ChecksumStore._cache``) and replica slots
(``ReplicaMap.slots``).  Two more cases run ixt3 with all five
features: PostMark with a write error injected mid-run, so the journal
aborts; and a near-full volume whose write is refused with ``ENOSPC``
and rolled back.  ``PINNED`` is what the script produced at commit
280d019; a change to ext3, ixt3 or the journal that moves one written
byte, one virtual second or one checksum moves it.  Run ``python
tests/test_table6_pin.py`` to print the current value.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

from repro.bench import harness
from repro.bench.paperdata import VARIANT_ORDER
from repro.bench.workloads import BENCHMARKS, BenchScale, postmark
from repro.common.errors import Errno, FSError
from repro.disk import DeviceStack
from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fs.ext3 import Ext3Config
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3

PINNED = "4cc998f0c49eabb1bd052ad0f06c1a95ea69e152a62a65bfb1bf6aebc034315d"

SCALE = BenchScale(
    ssh_dirs=2, ssh_sources=6, ssh_source_size=2048, ssh_objects=4,
    ssh_object_size=1024,
    web_files=4, web_file_size=4096, web_requests=10,
    post_files=8, post_dirs=3, post_txns=24, post_max_size=12 * 1024,
    tpcb_accounts_blocks=8, tpcb_txns=10,
)

ALL_FIVE = ("Mc", "Mr", "Dc", "Dp", "Tc")

#: A volume small enough to fill: the ENOSPC rollback case.
SMALL_BASE = Ext3Config(block_size=1024, blocks_per_group=256,
                        inodes_per_group=64, num_groups=2,
                        journal_blocks=64, ptrs_per_block=8)


class _Tap:
    """Folds every block a disk stores, in order, into *hasher*."""

    def __init__(self, disk, hasher):
        self.hasher = hasher
        self.put = disk._put
        disk._put = self

    def __call__(self, block, data):
        self.hasher.update(b"%d:" % block + hashlib.sha1(data).digest())
        self.put(block, data)


def _fold_end(hasher, disk, fs, outcome=None) -> None:
    checksums = fs.checksums
    replicas = fs.replicas
    hasher.update(json.dumps([
        repr(disk.clock), disk.stats.reads, disk.stats.writes,
        None if checksums is None else sorted(
            (blk, hashlib.sha1(payload).hexdigest())
            for blk, payload in checksums._cache.items()),
        None if replicas is None else sorted(replicas.slots.items()),
        outcome,
    ]).encode())


def _variant(hasher, bench, features) -> None:
    """``harness.run_variant`` with the disk tapped and the mounted
    file system kept for the end-of-run fold."""
    made = {}

    class TappedStack:
        @staticmethod
        def build(*args, **kwargs):
            stack = DeviceStack.build(*args, **kwargs)
            _Tap(stack.disk, hasher)
            made["disk"] = stack.disk
            return stack

    def mount_fs(*args, **kwargs):
        made["fs"] = Ixt3(*args, **kwargs)
        return made["fs"]

    with mock.patch.object(harness, "DeviceStack", TappedStack), \
            mock.patch.object(harness, "Ixt3", mount_fs):
        harness.run_variant(bench, features, scale=SCALE)
    _fold_end(hasher, made["disk"], made["fs"])


def _injected_stack(base, features, commit_every=256):
    cfg = ixt3_config(base)
    stack = DeviceStack.build(cfg.total_blocks, cfg.block_size, inject=True,
                              cache_blocks=harness.CACHE_BLOCKS)
    mkfs_ixt3(stack.disk, base, features=harness.features_mask(features),
              config=cfg)
    fs = Ixt3(stack, sync_mode=False, commit_every=commit_every)
    fs.mount()
    stack.injector.set_type_oracle(fs.block_type)
    return stack, fs


def _aborted_postmark(hasher) -> None:
    """PostMark, committing every 8 operations, whose 41st journal data
    write fails: ixt3 aborts the journal mid-run and the workload stops
    on a read-only volume."""
    stack, fs = _injected_stack(harness.BENCH_BASE_CONFIG, ALL_FIVE,
                                commit_every=8)
    _Tap(stack.disk, hasher)
    stack.injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL,
                             block_type="j-data", match_index=40))
    try:
        postmark(fs, SCALE)
        outcome = "completed"
    except FSError as exc:
        outcome = f"{type(exc).__name__}:{exc.errno.name}"
    assert fs.journal.aborted
    fs.unmount()
    _fold_end(hasher, stack.disk, fs, outcome)


def _enospc_rollback(hasher) -> None:
    """Fill a small volume until a write is refused with ENOSPC, then
    keep working on what is left."""
    stack, fs = _injected_stack(SMALL_BASE, ALL_FIVE)
    _Tap(stack.disk, hasher)
    bs = fs.block_size
    fs.mkdir("/d")
    fs.write_file("/d/a", bytes(range(256)) * 12)
    fs.write_file("/d/b", b"b" * 3 * bs)
    refused = 0
    for i in range(64):
        free = fs.statfs().free_blocks
        try:
            fs.write_file(f"/d/f{i}", bytes([i]) * (free // 2 + 1) * bs)
        except FSError as exc:
            assert exc.errno is Errno.ENOSPC
            refused += 1
            if refused == 2:
                break
    assert refused == 2
    fs.write_file("/d/a", b"a" * 2 * bs)
    fs.unlink("/d/b")
    fs.sync()
    fs.write_file("/d/tail", b"t" * bs)
    fs.unmount()
    _fold_end(hasher, stack.disk, fs, refused)


def capture() -> str:
    hasher = hashlib.sha256()
    for bench in BENCHMARKS:
        for features in VARIANT_ORDER:
            _variant(hasher, bench, features)
    _aborted_postmark(hasher)
    _enospc_rollback(hasher)
    return hasher.hexdigest()


def test_table6_sweep_is_pinned():
    assert capture() == PINNED


if __name__ == "__main__":
    print(capture())
