"""One directory-entry size rule for every block-list directory.

ext3, JFS and NTFS store a ``(child, ftype, name)`` entry as a 6-byte
header plus the name as latin-1 cut to 255 bytes; ``dirent_size`` is
that rule, and each file system's room check must agree with what its
own block packer accepts."""

import pytest

from repro.fs.base import dirent_size
from repro.fs.ext3.structures import pack_dir_block as pack_ext3_block
from repro.fs.ext3.structures import pack_dirent
from repro.fs.jfs.structures import pack_dir_block as pack_jfs_block
from repro.fs.ntfs.structures import pack_index_block

from conftest import make_ext3, make_jfs, make_ntfs

NAMES = ["plain", "café", "日本語-\U0001f600", "x" * 255,
         "y" * 300, "é漢" * 200]


@pytest.mark.parametrize("name", NAMES)
def test_dirent_size_is_the_packed_entry_size(name):
    assert dirent_size(name) == len(pack_dirent(0, 0, name))


@pytest.mark.parametrize("make, pack", [
    (make_ext3, pack_ext3_block),
    (make_jfs, pack_jfs_block),
    (make_ntfs, pack_index_block),
])
def test_room_check_agrees_with_the_block_packer(make, pack):
    """Fill a block entry by entry: a name fits exactly when the block
    with it still packs."""
    _, fs = make()
    for name in NAMES:
        entries = []
        while True:
            fits = fs._dir_block_fits(entries, name)
            candidate = entries + [(7, 1, name)]
            try:
                pack(candidate, fs.block_size)
                packs = True
            except ValueError:
                packs = False
            assert fits == packs, (name, len(entries))
            if not fits:
                break
            entries = candidate
