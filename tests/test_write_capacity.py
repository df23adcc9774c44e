"""A write too large for the free space or the journal fails with a
typed ``ENOSPC`` and changes nothing (ROADMAP 2(l) and 2(m)).

Each case fills a fresh Figure-2 image: ReiserFS used to raise ENOSPC
with every block it had allocated so far gone, and ext3/ixt3 an untyped
``ReadError("journal overflow")`` out of the commit, with the free
count at zero and the size unchanged.
"""

from __future__ import annotations

import pytest

from repro.common.errors import Errno, FSError
from repro.fingerprint.adapters import ADAPTERS, make_ext3_adapter
from repro.fs.ext3 import Ext3Config
from repro.fs.ext3.fsck import fsck_ext3
from repro.vfs.fdtable import O_RDWR


def _mounted(adapter):
    dev = adapter.build_device()
    adapter.mkfs(dev)
    fs = adapter.make_fs(dev)
    fs.mount()
    return fs, dev


def _refused(fs, dev, attempt):
    """Run *attempt* on an empty ``/big``; check it fails with ENOSPC
    and leaves the free count, the file and the volume as they were."""
    fs.close(fs.creat("/big"))
    free = fs.statfs().free_blocks
    with pytest.raises(FSError) as raised:
        attempt()
    assert raised.value.errno is Errno.ENOSPC
    assert fs.statfs().free_blocks == free
    fd = fs.open("/big", O_RDWR)
    assert fs.stat("/big").size == 0
    # What does fit is still stored, and survives a remount.
    bs = dev.block_size
    assert fs.write(fd, b"y" * 5 * bs, 0) == 5 * bs
    fs.close(fd)
    fs.unmount()
    fs.mount()
    assert fs.read(fs.open("/big"), 5 * bs, 0) == b"y" * 5 * bs
    return free


@pytest.mark.parametrize("name", ["ext3", "ixt3", "reiserfs"])
def test_write_larger_than_the_free_space(name):
    fs, dev = _mounted(ADAPTERS[name]())
    free = _refused(fs, dev, lambda: fs.write_file(
        "/big", b"x" * fs.statfs().free_blocks * dev.block_size))
    assert fs.statfs().free_blocks < free


def test_growing_truncate_larger_than_the_free_space():
    fs, dev = _mounted(ADAPTERS["reiserfs"]())
    _refused(fs, dev, lambda: fs.truncate(
        "/big", fs.statfs().free_blocks * dev.block_size))


@pytest.mark.parametrize("name", ["ext3", "ixt3"])
def test_write_larger_than_the_journal(name):
    if name == "ext3":
        # The Figure-2 image runs out of blocks before its journal
        # does; a 16-block journal runs out first.
        adapter = make_ext3_adapter(Ext3Config(
            block_size=1024, blocks_per_group=256, inodes_per_group=64,
            num_groups=2, journal_blocks=16, ptrs_per_block=8))
        blocks = 100
    else:
        adapter, blocks = ADAPTERS["ixt3"](), 400
    fs, dev = _mounted(adapter)
    assert blocks < fs.statfs().free_blocks
    _refused(fs, dev, lambda: fs.write_file("/big", b"x" * blocks * dev.block_size))
    fs.unmount()
    assert fsck_ext3(dev).clean
