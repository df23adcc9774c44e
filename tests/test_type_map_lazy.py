"""Block-type maps built on first use, against an eager reference.

``JournaledFS._relearn_types`` freezes the device, captures the walk's
key and opens an empty overlay; the walk runs at the first query.  The
reference here is the same file system with every relearn followed at
once by the walk — what a mount did before the walk was deferred.  Both
must answer ``block_type(b)`` identically for every block, wherever
the lazy one happens to walk: during replay under an every-I/O oracle,
at a capacity snapshot, after mutations that waited in the overlay, or
after an unmount and a remount.
"""

from __future__ import annotations

import pytest

from repro.common.errors import Errno, FSError, KernelPanic
from repro.crash import explore
from repro.disk.disk import make_disk
from repro.fingerprint.adapters import ADAPTERS
from repro.fingerprint.harness import Fingerprinter
from repro.fingerprint.workloads import WORKLOADS, Recorder
from repro.fs.ext3 import Ext3

from conftest import FS_CLASSES, FS_FACTORIES

ADAPTER_KEYS = ["ext3", "ixt3", "reiserfs", "jfs", "ntfs", "ext3@rdp5"]


def _eager(fs):
    """*fs*, walking at every relearn instead of at first use."""
    relearn = fs._relearn_types

    def relearn_and_walk():
        relearn()
        if fs._types_pending is not None:
            fs._load_types()

    fs._relearn_types = relearn_and_walk
    return fs


def _labels(fs):
    return tuple(fs.block_type(b) for b in range(fs.device.num_blocks))


class _AtEveryBoundary:
    """*fs* with every public call followed by a snapshot of all labels."""

    def __init__(self, fs, seen):
        self._fs = fs
        self._seen = seen

    def __getattr__(self, name):
        attr = getattr(self._fs, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def call(*args, **kwargs):
            try:
                return attr(*args, **kwargs)
            finally:
                self._seen.append((name, _labels(self._fs)))
        return call


def _observe(adapter, golden, workload, eager):
    """The harness's baseline run, typed by an every-I/O oracle that
    logs what it answers, with all labels taken at every syscall."""
    stack = adapter.build_stack()
    stack.restore(golden)
    fs = adapter.make_fs(stack)
    if eager:
        _eager(fs)
    seen = []

    def oracle(block):
        label = fs.block_type(block)
        seen.append((block, label))
        return label

    stack.injector.set_type_oracle(oracle)
    proxy = _AtEveryBoundary(fs, seen)
    try:
        if not workload.body_mounts:
            proxy.mount()
        workload.body(proxy, Recorder())
    except (FSError, KernelPanic) as exc:
        seen.append(("raised", type(exc).__name__))
    return seen


@pytest.mark.parametrize("key", ADAPTER_KEYS)
def test_fingerprint_workloads_label_alike_at_every_io_and_syscall(key):
    adapter = ADAPTERS[key]()
    harness = Fingerprinter(adapter)
    for workload in harness.workloads:
        golden, _ = harness._golden(workload)
        lazy = _observe(adapter, golden, workload, eager=False)
        assert lazy == _observe(adapter, golden, workload, eager=True), (
            f"{key} workload {workload.key} labels diverge")
        assert any(isinstance(entry[1], tuple) for entry in lazy)


def test_a_crashed_golden_is_walked_mid_replay():
    """Workload ``s`` mounts a crashed image under the every-I/O oracle:
    the walk a mount's first relearn defers runs when replay reads a
    journal block whose role the layout does not fix — after the
    relearn, between replay's reads (the parametrized test above holds
    its labels to the eager reference)."""
    workload = next(w for w in WORKLOADS if w.key == "s")
    adapter = ADAPTERS["ext3"]()
    golden, _ = Fingerprinter(adapter)._golden(workload)
    stack = adapter.build_stack()
    stack.restore(golden)
    fs = adapter.make_fs(stack)
    reads_at = []
    for name in ("_relearn_types", "_load_types"):
        step = getattr(fs, name)

        def noted(step=step, name=name):
            reads_at.append((name, stack.disk.stats.reads))
            step()
        setattr(fs, name, noted)
    stack.injector.set_type_oracle(fs.block_type)
    fs.mount()
    (first, relearnt), (then, walked) = reads_at[:2]
    assert (first, then) == ("_relearn_types", "_load_types")
    assert walked > relearnt, "replay reads between the relearn and the walk"


def _twins(name):
    disk, _ = FS_FACTORIES[name]()
    twin = make_disk(disk.num_blocks, disk.block_size)
    twin.restore(disk.snapshot())
    return FS_CLASSES[name](disk), _eager(FS_CLASSES[name](twin))


def _both(fses, op):
    outcomes = []
    for fs in fses:
        try:
            op(fs)
            outcomes.append(None)
        except FSError as exc:
            outcomes.append(exc.errno)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _write(path, blocks):
    def op(fs):
        fd = fs.creat(path)
        try:
            fs.write(fd, bytes([len(path)]) * (blocks * fs.block_size))
        finally:
            fs.close(fd)
    return op


@pytest.mark.parametrize("name", sorted(FS_FACTORIES))
def test_mutations_before_the_first_query_and_a_remount(name):
    lazy, eager = fses = _twins(name)
    _both(fses, lambda fs: fs.mount())
    steps = [
        _write("/a", 3), lambda fs: fs.mkdir("/d"), _write("/d/b", 20),
        lambda fs: fs.unlink("/a"), _write("/c", 2),
        lambda fs: fs.truncate("/d/b", 100), lambda fs: fs.rename("/c", "/d/c"),
    ]
    for step in steps:
        _both(fses, step)
    # Allocations and frees all waited in the overlay — but ixt3 asks
    # for a block type on every verified read.
    assert (lazy._types_pending is None) == (name == "ixt3")
    assert _labels(lazy) == _labels(eager)
    _both(fses, lambda fs: fs.unmount())
    assert lazy._types_pending is None
    _both(fses, lambda fs: fs.mount())
    for step in (_write("/e", 4), lambda fs: fs.unlink("/d/c")):
        _both(fses, step)
        assert _labels(lazy) == _labels(eager)
    _both(fses, lambda fs: fs.unmount())
    assert _labels(lazy) == _labels(eager)


@pytest.mark.parametrize("name", sorted(FS_FACTORIES))
def test_the_walk_sees_the_device_as_it_was_at_the_relearn(name):
    """Grow the volume (a new ReiserFS tree root), then zero every block
    the walk reads, under both mounted twins: the eager one walked at
    the mount, so the lazy one must see neither the zeros nor the root."""
    lazy, eager = fses = _twins(name)
    _both(fses, lambda fs: fs.mount())
    for i in range(6):
        _both(fses, _write(f"/h{i}", 1 + 3 * i))
    _both(fses, lambda fs: fs.unmount())
    _both(fses, lambda fs: fs.mount())
    key = lazy._types_key()
    for i in range(12):
        _both(fses, _write(f"/g{i}", 1))
    assert (lazy._types_key() != key) == (name == "reiserfs")
    assert (lazy._types_pending is None) == (name == "ixt3")
    deps = {b for entries in eager.device.base_image.meta.values()
            for deps, *_ in entries for b in deps}
    assert deps
    for fs in fses:
        for block in deps:
            fs.device.poke(block, bytes(fs.block_size))
    assert _labels(lazy) == _labels(eager)


@pytest.mark.parametrize("name", ["ext3", "ixt3", "reiserfs"])
def test_enospc_rollback_restores_the_walked_map(name):
    lazy, eager = fses = _twins(name)
    _both(fses, lambda fs: fs.mount())
    i = 0
    while _both(fses, _write(f"/f{i}", 6)) is None:
        i += 1
    _both(fses, lambda fs: fs.unmount())
    _both(fses, lambda fs: fs.mount())
    rollbacks = []
    restore = lazy._restore_capacity
    lazy._restore_capacity = lambda state: (rollbacks.append(1), restore(state))
    # The first query after the mount is the capacity snapshot itself.
    assert lazy._types_pending is not None
    assert _both(fses, _write("/big", 40)) is Errno.ENOSPC
    assert rollbacks, "the write must have rolled back a capacity snapshot"
    assert _labels(lazy) == _labels(eager)
    _both(fses, lambda fs: fs.unlink("/f0"))
    _both(fses, _write("/small", 2))
    assert _labels(lazy) == _labels(eager)


def test_a_crash_exploration_of_ext3_never_walks(monkeypatch):
    """Nothing under the crash engine asks ext3 for a block type."""
    walks = []
    walk = Ext3._walk_types

    def counting(self, peek):
        walks.append(1)
        return walk(self, peek)

    monkeypatch.setattr(Ext3, "_walk_types", counting)
    report = explore("ext3", "creat")
    assert report.states_explored > 0
    assert walks == []


@pytest.mark.parametrize("geometry,members", [
    ("mirror", 2), ("parity", 4), ("rdp", 5)])
def test_an_array_view_keeps_its_trust_sets(geometry, members):
    """A frozen array peeks as ``ArrayDevice.peek`` did at the freeze —
    through reconstruction for a stale member — whatever the array
    writes, rebuilds or pokes at member level afterwards."""
    from repro.redundancy.array import make_array

    array = make_array(geometry, 40, 512, members=members)
    for b in range(40):
        array.write_block(b, bytes([b + 1]) * 512)
    array.replace_member(1)
    view = array.frozen_view()
    frozen = [array.peek(b) for b in range(40)]
    for b in range(0, 40, 3):
        array.write_block(b, bytes([200 - b]) * 512)
    array.rebuild_member(1)
    array.members[0].disk.poke(0, bytes(512))
    assert [view.peek(b) for b in range(40)] == frozen
    assert [array.peek(b) for b in range(40)] != frozen
