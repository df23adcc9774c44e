"""The shared type-oracle memo (``JournaledFS._walk_memoised``).

The gray-box walk that relearns dynamic block types at mount is
memoised on the golden image, keyed by what the walk consults besides
block contents and revalidated against the contents of the blocks it
peeked.  The memo is sound only if the walk reads the platter through
the recording ``peek`` alone and everything else it looks at is in the
key — so these tests compare every memoised rebuild against a *twin*:
the same bytes on a disk with no base image, where no memo exists and
every mount walks.

A mutation that records one dependency too few, or drops
``tree.root_block`` / ``device.num_blocks`` from the key, fails here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import FSError, KernelPanic
from repro.disk.disk import make_disk
from repro.fs.ext3.structures import Superblock
from repro.fs.jfs.structures import JFSSuper
from repro.fs.ntfs.structures import BootFile
from repro.fs.reiserfs.btree import Node
from repro.fs.reiserfs.structures import ReiserSuper

from conftest import FS_CLASSES, FS_FACTORIES

FS_NAMES = sorted(FS_FACTORIES)


# -- fixtures ---------------------------------------------------------------------


_RAMP = bytes(range(256))


def _payload(seed: int, n: int) -> bytes:
    return (_RAMP * (n // 256 + 2))[seed:seed + n]


_GOLDENS = {}


def _golden(name):
    """``(disk, golden image)``: a populated, cleanly unmounted volume
    with directories, small files and one file deep enough to need the
    indirect / extent-tree / indirect-item machinery, restored onto a
    fresh disk so there is a base image to memoise on.  The image is
    built once per file system; its memo starts empty every time."""
    if name not in _GOLDENS:
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.mkdir("/d")
        for i, size in enumerate((0, 100, 700, 3000, 30 * 1024)):
            fd = fs.creat(f"/d/f{i}")
            if size:
                fs.write(fd, _payload(i, size))
            fs.close(fd)
        for i in range(8):  # enough objects to split the ReiserFS root
            fs.close(fs.creat(f"/g{i}"))
        fs.symlink("/d/f1", "/link")
        fs.unmount()
        _GOLDENS[name] = disk.snapshot()
    golden = _GOLDENS[name]
    golden.meta.clear()
    disk = make_disk(golden.num_blocks, golden.block_size)
    disk.restore(golden)
    return disk, golden


def _twin_of(disk):
    """The same bytes with no base image: nothing to memoise on."""
    twin = make_disk(disk.num_blocks, disk.block_size)
    for b in range(disk.num_blocks):
        twin.poke(b, disk.peek(b))
    assert twin.base_image is None
    return twin


def _try_mount(fs):
    """Mount; the exception's type name when the image is too damaged."""
    try:
        fs.mount()
    except Exception as exc:  # garbage in: only *equality* with the twin matters
        return type(exc).__name__
    return None


def _labels(fs, num_blocks):
    return [fs.block_type(b) for b in range(num_blocks)]


def _count_walks(fs):
    """Wrap ``fs._walk_types``; returns the list the calls append to."""
    calls, walk = [], fs._walk_types

    def counting(peek):
        calls.append(1)
        return walk(peek)

    fs._walk_types = counting
    return calls


def _relearn_now(fs):
    """Relearn the type map and run the walk the relearn defers."""
    fs._relearn_types()
    fs._types_state()


def _checked_mount(name, disk, wrap=lambda device: device):
    """Mount *disk* (memoised) and its twin (never memoised) and demand
    the same outcome and the same type for every block.  Returns the
    mounted fs, or None when both mounts failed alike."""
    twin = _twin_of(disk)
    fs, twin_fs = FS_CLASSES[name](wrap(disk)), FS_CLASSES[name](wrap(twin))
    outcome = _try_mount(fs)
    assert outcome == _try_mount(twin_fs)
    if outcome is not None:
        return None
    n = disk.num_blocks
    assert _labels(fs, n) == _labels(twin_fs, n)
    return fs


def _walk_deps(fs, disk):
    """Ground truth, recorded beneath the file system rather than read
    back from the memo: every block the disk is asked for during one
    walk over its current state — a read that went around the ``peek``
    the walk was handed included."""
    seen = []

    def recording(peek):
        def wrapper(block):
            seen.append(block)
            return peek(block)
        return wrapper

    disk.peek, disk.peek_view = recording(disk.peek), recording(disk.peek_view)
    try:
        fs._walk_types(disk.peek_view)
    finally:
        del disk.peek, disk.peek_view
    return seen


def _flipped(disk, block):
    return bytes(b ^ 0xFF for b in disk.peek(block))


def _memo_entries(disk):
    return [entry for entries in disk.base_image.meta.values() for entry in entries]


# -- differential property -----------------------------------------------------------

_PATHS = ["/d/f1", "/d/f3", "/d/f4", "/d/new", "/g2", "/n"]

_op = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_PATHS),
              st.integers(0, 255), st.sampled_from([1, 600, 5000, 20000])),
    st.tuples(st.just("truncate"), st.sampled_from(_PATHS),
              st.sampled_from([0, 300, 9000])),
    st.tuples(st.just("unlink"), st.sampled_from(_PATHS)),
    st.tuples(st.just("rename"), st.sampled_from(_PATHS), st.sampled_from(_PATHS)),
    st.tuples(st.just("mkdir"), st.sampled_from(["/n", "/d/sub"])),
)
_ops = st.lists(_op, max_size=5)

_step = st.one_of(
    st.tuples(st.just("ops"), _ops),
    st.tuples(st.just("crash_after"), _ops),
    # Raw pokes: (which block, as an index into the candidates; what).
    st.tuples(st.just("poke_dep"), st.integers(0, 10_000),
              st.sampled_from(["flip", "zero", "copy"])),
    st.tuples(st.just("poke_other"), st.integers(0, 10_000),
              st.sampled_from(["flip", "zero", "copy"])),
    st.tuples(st.just("restore")),
)


def _apply_ops(fs, ops):
    for op in ops:
        try:
            if op[0] == "write":
                fd = fs.creat(op[1])
                fs.write(fd, _payload(op[2], op[3]))
                fs.close(fd)
            elif op[0] == "truncate":
                fs.truncate(op[1], op[2])
            elif op[0] == "unlink":
                fs.unlink(op[1])
            elif op[0] == "rename":
                fs.rename(op[1], op[2])
            elif op[0] == "mkdir":
                fs.mkdir(op[1])
        except (FSError, KernelPanic):
            pass  # a panic unmounts; what follows fails ENOTMOUNTED-style


def _poke(disk, block, how, index):
    if how == "flip":
        data = _flipped(disk, block)
    elif how == "zero":
        data = bytes(disk.block_size)
    else:  # another block's contents: well-formed, in the wrong place
        data = disk.peek(index % disk.num_blocks)
    disk.poke(block, data)


@pytest.mark.parametrize("name", FS_NAMES)
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=6))
# A zeroed ext3 descriptor block: the next allocation drove a free
# count below zero and the commit raised ``struct.error``.
@example(steps=[("poke_other", 1, "zero"),
                ("ops", [("write", "/d/f1", 0, 5000)])])
def test_memoised_rebuild_equals_fresh_walk(name, steps):
    """After op sequences, crashes with an unreplayed journal, raw pokes
    of dependency and non-dependency blocks and golden restores, every
    mount labels every block exactly as a memo-free twin does."""
    disk, golden = _golden(name)
    for step in steps:
        if step[0] == "restore":
            disk.restore(golden)
            continue
        if step[0] in ("poke_dep", "poke_other"):
            deps = sorted({b for deps, *_ in _memo_entries(disk) for b in deps})
            others = sorted(set(range(disk.num_blocks)) - set(deps))
            pool = deps if step[0] == "poke_dep" else others
            if pool:
                _poke(disk, pool[step[1] % len(pool)], step[2], step[1])
        fs = _checked_mount(name, disk)
        if fs is None:
            continue
        if step[0] == "crash_after":
            try:
                fs.crash_after(lambda f: _apply_ops(f, step[1]))
            except Exception:
                fs.crash()
        else:
            if step[0] == "ops":
                _apply_ops(fs, step[1])
            if fs.mounted and not fs.read_only:
                fs.unmount()
            else:
                fs.crash()
    _checked_mount(name, disk)


# -- what invalidates an entry, and what does not ---------------------------------------


@pytest.mark.parametrize("name", FS_NAMES)
def test_dependency_poke_rewalks_and_other_poke_does_not(name):
    disk, golden = _golden(name)
    fs = FS_CLASSES[name](disk)
    fs.mount()  # fills the memo for the golden and the just-mounted state

    disk.restore(golden)
    again = FS_CLASSES[name](disk)
    walks = _count_walks(again)
    again.mount()
    assert not walks, "a restored golden must hit on both rebuilds"

    # From here on fs keeps the golden's geometry and rebuilds by hand.
    disk.restore(golden)
    deps = _walk_deps(fs, disk)
    assert deps, "the population must give the walk something to read"
    walks = _count_walks(fs)

    # A block no walk reads: file contents.
    other = next(b for b in range(disk.num_blocks - 1, 0, -1)
                 if again.block_type(b) == "data" and b not in deps)
    disk.poke(other, _flipped(disk, other))
    _relearn_now(fs)
    assert not walks, "a non-dependency poke must not force a walk"

    for block in sorted(set(deps)):
        disk.restore(golden)
        _relearn_now(fs)  # the golden's entry exists and was used last
        del walks[:]
        disk.poke(block, _flipped(disk, block))
        _relearn_now(fs)
        assert walks, f"dependency block {block} poked, yet no re-walk"


def _second_geometry(name, disk):
    """Poke a *valid* superblock that decodes to different geometry —
    the only way two configs meet on one golden image."""
    raw = disk.peek(0)
    if name in ("ext3", "ixt3"):
        sb = Superblock.unpack(raw)
        sb.ptrs_per_block //= 2
    elif name == "jfs":
        sb = JFSSuper.unpack(raw)
        sb.tree_fanout //= 2
    elif name == "ntfs":
        sb = BootFile.unpack(raw)
        sb = replace(sb, mft_records=sb.mft_records - 8)
    else:
        sb = ReiserSuper.unpack(raw)
        root = Node.unpack(disk.peek(sb.root_block), sb.root_block)
        assert not root.is_leaf, "the population must split the root"
        sb.root_block = root.children[0]
        sb.height -= 1
    disk.poke(0, sb.pack(disk.block_size))


@pytest.mark.parametrize("name", FS_NAMES)
def test_two_geometries_on_one_image_never_share_an_entry(name):
    """The superblock is not a dependency (the walk never peeks it): what
    it decodes to must be in the key, ReiserFS's tree root included."""
    disk, golden = _golden(name)
    first = _checked_mount(name, disk)
    disk.restore(golden)
    _second_geometry(name, disk)
    reshaped = _checked_mount(name, disk)
    assert reshaped is not None
    assert reshaped._types_key() != first._types_key()

    disk.restore(golden)
    _second_geometry(name, disk)
    second = FS_CLASSES[name](disk)
    walks = _count_walks(second)
    second.mount()
    assert not walks, "the second geometry has entries of its own by now"
    assert len(disk.base_image.meta) >= 2


class _Shorter:
    """A device that exposes fewer blocks of the disk beneath it (a
    partition): same golden image, same superblock, another
    ``num_blocks`` for the walk's pointer-range filter."""

    def __init__(self, lower, num_blocks):
        self.lower = lower
        self.num_blocks = num_blocks
        self.block_size = lower.block_size
        self.read_block = lower.read_block
        self.write_block = lower.write_block


@pytest.mark.parametrize("name", FS_NAMES)
def test_device_size_is_part_of_the_key(name):
    disk, golden = _golden(name)
    whole = _checked_mount(name, disk)
    labelled = sorted(whole._types)
    cut = labelled[len(labelled) // 2]  # out of range: half of what it labelled
    disk.restore(golden)
    short = _checked_mount(name, disk, wrap=lambda device: _Shorter(device, cut))
    assert short is not None
    assert short._types != whole._types, "the cut must change what a walk labels"


# -- eviction ------------------------------------------------------------------------------


@pytest.mark.parametrize("name", FS_NAMES)
def test_hot_entry_survives_forty_one_off_rebuilds(name):
    """Least recently *used* goes first: a crash exploration inserts one
    never-reused entry per state between visits to the few images
    states recover to, which FIFO eviction would push out every 16."""
    disk, golden = _golden(name)
    fs = FS_CLASSES[name](disk)
    fs.mount()
    disk.restore(golden)
    victim = _walk_deps(fs, disk)[-1]
    _relearn_now(fs)  # the hot entry: the golden itself
    walks = _count_walks(fs)
    for i in range(40):
        disk.restore(golden)
        disk.poke(victim, _payload(i, disk.block_size))
        _relearn_now(fs)
        assert len(walks) == i + 1, "each one-off state is new"
        disk.restore(golden)
        _relearn_now(fs)
        assert len(walks) == i + 1, f"hot entry evicted after {i + 1} one-offs"
    assert all(len(entries) <= 16 for entries in disk.base_image.meta.values())
