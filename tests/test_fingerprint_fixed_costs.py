"""The fixed per-test work of a fingerprint run, against what it replaced.

Each run builds a stack, restores the golden image, mounts and observes.
Two mechanisms keep that cheap without moving an observation (the
stream and inference pins hold the numbers; these tests hold the
mechanisms and what they must not break):

* mount traffic the harness discards goes untyped — the type oracle is
  installed after it, except for the workloads whose body mounts;
* disks of one shape share one ``DiskGeometry``, and mounts of one
  geometry one superblock-derived config.

A mount whose type walk hits the memo still gets maps of its own: a
change to them must not reach the next mount of the same image.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import Errno, FSError
from repro.common.structs import interned
from repro.disk.disk import DiskStats, make_disk
from repro.fingerprint.adapters import ADAPTERS, make_ext3_adapter
from repro.fingerprint.harness import Fingerprinter
from repro.fingerprint.workloads import WORKLOAD_BY_KEY
from repro.fs.ext3 import Ext3Config, fsck_ext3
from repro.fs.ext3.structures import Superblock
from repro.fs.reiserfs.structures import ReiserSuper


def _outputs(fp: Fingerprinter, matrix) -> tuple:
    io = {key: repr(dataclasses.astuple(stats))
          for key, stats in fp.workload_io.items()}
    cells = sorted((key, sorted(d.name for d in obs.detection),
                    sorted(r.name for r in obs.recovery), obs.provenance)
                   for key, obs in matrix.cells.items())
    return (fp.workload_digest, fp.workload_events, io, fp.tests_run, cells,
            sorted(matrix.not_applicable))


def _counting(adapter, typed_from_the_start: bool):
    """*adapter* with every file system's ``block_type`` calls counted;
    optionally with the oracle installed before the run's mount, as
    the harness used to."""
    calls = []
    made = []
    make_fs, build_stack = adapter.make_fs, adapter.build_stack

    def counted_fs(device):
        fs = make_fs(device)
        block_type = fs.block_type
        fs.block_type = lambda b: calls.append(b) or block_type(b)
        made.append(fs)
        return fs

    def early_typed_stack():
        stack = build_stack()
        # Late-bound: the run's file system is made just after this.
        stack.injector.set_type_oracle(lambda b: made[-1].block_type(b))
        return stack

    adapter.make_fs = counted_fs
    if typed_from_the_start:
        adapter.build_stack = early_typed_stack
    return adapter, calls


@pytest.mark.parametrize("key", ["ext3", "jfs", "reiserfs"])
def test_untyped_mount_traffic_changes_no_observation(key):
    runs = {}
    for early in (False, True):
        adapter, calls = _counting(ADAPTERS[key](), early)
        fp = Fingerprinter(adapter)
        runs[early] = (_outputs(fp, fp.run()), len(calls))
    (now, typed), (before, typed_before) = runs[False], runs[True]
    assert now == before
    assert typed < typed_before, "mount requests are no longer typed"


@pytest.mark.parametrize("key", ["p", "s"])
def test_workloads_that_mount_in_their_body_type_the_mount(key):
    fp = Fingerprinter(ADAPTERS["ext3"]())
    workload = WORKLOAD_BY_KEY[key]
    assert workload.body_mounts
    snapshot, golden_type = fp._golden(workload)
    fp._io_acc = DiskStats()
    obs = fp._observe(workload, snapshot, golden_type, None, f"{key}:baseline")
    first = obs.io_events[0]
    assert (first.op, first.block, first.block_type) == ("read", 0, "super")
    assert "j-super" in {e.block_type for e in obs.io_events}


def test_the_golden_oracle_types_the_image_and_nothing_past_it():
    adapter = ADAPTERS["reiserfs"]()
    fp = Fingerprinter(adapter)
    snapshot, golden_type = fp._golden(WORKLOAD_BY_KEY["a"])
    disk = adapter.build_device()
    disk.restore(snapshot)
    shadow = adapter.make_fs(disk)
    shadow.mount()
    n = disk.num_blocks
    assert ([golden_type(b) for b in range(n)]
            == [shadow.block_type(b) for b in range(n)])
    assert golden_type(-1) is None and golden_type(n) is None
    assert golden_type(0x7FFFFFF0) is None


# -- interned geometry and configs ---------------------------------------------------


def test_disks_of_one_shape_share_one_geometry():
    a, b = make_disk(64, 1024), make_disk(64, 1024)
    assert a.geometry is b.geometry
    assert make_disk(64, 1024, seek_full_s=0.004).geometry is not a.geometry
    assert make_disk(65, 1024).geometry is not a.geometry
    adapter = ADAPTERS["ext3"]()
    assert adapter.build_device().geometry is adapter.build_device().geometry


@pytest.mark.parametrize("key", ["ext3", "ixt3", "jfs", "reiserfs"])
def test_mounts_of_one_geometry_share_one_config(key):
    adapter = ADAPTERS[key]()
    disk = adapter.build_device()
    adapter.mkfs(disk)
    first = adapter.make_fs(disk)
    first.mount()
    first.unmount()
    second = adapter.make_fs(disk)
    second.mount()
    assert second.config is first.config


def test_fsck_and_mount_share_the_config_and_a_new_geometry_has_its_own():
    disk = make_disk(600, 1024)
    adapter = ADAPTERS["ext3"]()
    adapter.mkfs(disk)
    fs = adapter.make_fs(disk)
    fs.mount()
    assert Superblock.unpack(disk.peek(0)).config() is fs.config
    assert fsck_ext3(disk).clean
    other = make_ext3_adapter(Ext3Config(
        block_size=1024, blocks_per_group=256, inodes_per_group=64,
        num_groups=3, journal_blocks=64, ptrs_per_block=8))
    disk2 = other.build_device()
    other.mkfs(disk2)
    fs2 = other.make_fs(disk2)
    fs2.mount()
    assert fs2.config is not fs.config
    assert fs2.config.num_groups == 3


def _poke_superblock(disk, unpack, **fields):
    sb = unpack(disk.peek(0))
    disk.poke(0, dataclasses.replace(sb, **fields).pack(disk.block_size))


@pytest.mark.parametrize("key, unpack", [("ext3", Superblock.unpack),
                                         ("reiserfs", ReiserSuper.unpack)])
def test_a_geometry_that_fails_validation_raises_and_caches_nothing(key,
                                                                    unpack):
    adapter = ADAPTERS[key]()
    disk = adapter.build_device()
    adapter.mkfs(disk)
    _poke_superblock(disk, unpack, journal_blocks=4)
    for _ in range(2):
        cached = interned.cache_info().currsize
        with pytest.raises(FSError) as e:
            adapter.make_fs(disk).mount()
        assert e.value.errno is Errno.EUCLEAN
        assert interned.cache_info().currsize == cached


# -- type maps after a memo hit ------------------------------------------------------


def _labels(fs):
    return [fs.block_type(b) for b in range(fs.device.num_blocks)]


def test_a_changed_map_leaves_the_memo_entry_intact():
    adapter = ADAPTERS["ext3"]()
    snapshot, _ = Fingerprinter(adapter)._golden(WORKLOAD_BY_KEY["g"])

    def mounted():
        stack = adapter.build_stack()
        stack.restore(snapshot)
        fs = adapter.make_fs(stack)
        fs.mount()
        return fs

    original = _labels(mounted())
    fs = mounted()
    fs._type_of(0)                       # the walk: a memo hit
    dynamic = next(b for b, label in enumerate(original)
                   if label is not None and fs._type_of(b) == label)
    fs._set_type(dynamic, "changed")
    fs._forget_type(next(b for b in range(dynamic + 1, len(original))
                         if fs._type_of(b) is not None))
    fs._set_jtype(fs.config.journal_start + 1, "j-commit")
    assert _labels(fs) != original
    fs.creat("/after-the-memo-hit")      # a syscall's own changes
    assert _labels(mounted()) == original
