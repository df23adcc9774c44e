"""Corner cases across the file systems: deep paths, collisions,
multi-block directories, relative symlinks, rename edge semantics."""

import pytest

from repro.common.errors import Errno, FSError
from repro.fingerprint.adapters import ADAPTERS

from conftest import FS_FACTORIES


class TestDeepPaths:
    def test_ten_levels(self, any_fs):
        path = ""
        for i in range(10):
            path += f"/lvl{i}"
            any_fs.mkdir(path)
        any_fs.write_file(path + "/leaf", b"deep")
        assert any_fs.read_file(path + "/leaf") == b"deep"

    def test_component_through_file_is_enotdir(self, any_fs):
        any_fs.write_file("/plain", b"x")
        with pytest.raises(FSError) as e:
            any_fs.stat("/plain/below")
        assert e.value.errno in (Errno.ENOTDIR, Errno.ENOENT)

    def test_dot_and_dotdot_navigation(self, any_fs):
        any_fs.mkdir("/a")
        any_fs.mkdir("/a/b")
        any_fs.write_file("/a/b/f", b"nav")
        assert any_fs.read_file("/a/b/../b/./f") == b"nav"
        assert any_fs.read_file("/a/../a/b/f") == b"nav"
        assert any_fs.read_file("/../../a/b/f") == b"nav"


class TestBigDirectories:
    def test_directory_grows_past_one_block(self, any_fs):
        any_fs.mkdir("/big")
        names = [f"entry-{i:04d}" for i in range(80)]
        for n in names:
            any_fs.write_file(f"/big/{n}", b".")
        got = set(any_fs.getdirentries("/big")) - {".", ".."}
        assert got == set(names)
        # Lookups still resolve after growth.
        assert any_fs.stat("/big/entry-0077").size == 1

    def test_remove_from_big_directory(self, any_fs):
        any_fs.mkdir("/big")
        for i in range(80):
            any_fs.write_file(f"/big/e{i:03d}", b".")
        for i in range(0, 80, 2):
            any_fs.unlink(f"/big/e{i:03d}")
        got = set(any_fs.getdirentries("/big")) - {".", ".."}
        assert got == {f"e{i:03d}" for i in range(1, 80, 2)}


class TestSymlinkEdges:
    def test_relative_symlink_target(self, any_fs):
        any_fs.mkdir("/a")
        any_fs.write_file("/a/real", b"relative works")
        any_fs.symlink("real", "/a/lnk")  # target relative to /a
        assert any_fs.read_file("/a/lnk") == b"relative works"

    def test_symlink_chain(self, any_fs):
        any_fs.write_file("/end", b"chained")
        any_fs.symlink("/end", "/hop1")
        any_fs.symlink("/hop1", "/hop2")
        any_fs.symlink("/hop2", "/hop3")
        assert any_fs.read_file("/hop3") == b"chained"

    def test_symlink_to_directory_traversed(self, any_fs):
        any_fs.mkdir("/realdir")
        any_fs.write_file("/realdir/f", b"via dir link")
        any_fs.symlink("/realdir", "/dirlink")
        assert any_fs.read_file("/dirlink/f") == b"via dir link"

    def test_unlink_symlink_keeps_target(self, any_fs):
        any_fs.write_file("/t", b"target stays")
        any_fs.symlink("/t", "/l")
        any_fs.unlink("/l")
        assert any_fs.read_file("/t") == b"target stays"
        assert not any_fs.exists("/l")


class TestRenameEdges:
    def test_rename_empty_dir_over_empty_dir(self, any_fs):
        any_fs.mkdir("/src")
        any_fs.mkdir("/dst")
        any_fs.rename("/src", "/dst")
        assert not any_fs.exists("/src")
        assert any_fs.stat("/dst").is_dir

    def test_rename_dir_over_nonempty_dir_fails(self, any_fs):
        any_fs.mkdir("/src")
        any_fs.mkdir("/dst")
        any_fs.write_file("/dst/occupied", b"x")
        with pytest.raises(FSError) as e:
            any_fs.rename("/src", "/dst")
        assert e.value.errno is Errno.ENOTEMPTY

    def test_rename_file_over_dir_fails(self, any_fs):
        any_fs.write_file("/f", b"x")
        any_fs.mkdir("/d")
        with pytest.raises(FSError) as e:
            any_fs.rename("/f", "/d")
        assert e.value.errno is Errno.EISDIR

    def test_rename_dir_over_file_fails(self, any_fs):
        any_fs.mkdir("/d")
        any_fs.write_file("/f", b"x")
        with pytest.raises(FSError) as e:
            any_fs.rename("/d", "/f")
        assert e.value.errno is Errno.ENOTDIR

    def test_rename_same_existing_path_is_noop(self, any_fs):
        any_fs.write_file("/f", b"kept")
        any_fs.rename("/f", "/f")
        assert any_fs.read_file("/f") == b"kept"

    def test_rename_missing_onto_itself_fails(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.rename("/ghost", "/ghost")
        assert e.value.errno is Errno.ENOENT

    def test_rename_hard_link_alias(self, any_fs):
        any_fs.write_file("/f", b"aliased")
        any_fs.link("/f", "/g")
        any_fs.rename("/f", "/g")  # g and f are the same inode
        assert any_fs.read_file("/g") == b"aliased"


class TestUnlinkEdges:
    def test_unlink_open_file_fd_semantics(self, any_fs):
        """Our simplified VFS drops data at unlink even with open fds,
        but the fd itself must stay valid for close."""
        from repro.vfs import O_RDONLY
        any_fs.write_file("/f", b"short-lived")
        fd = any_fs.open("/f", O_RDONLY)
        any_fs.unlink("/f")
        any_fs.close(fd)  # must not raise
        assert not any_fs.exists("/f")

    def test_unlink_missing(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.unlink("/nope")
        assert e.value.errno is Errno.ENOENT

    def test_unlink_directory_is_eisdir(self, any_fs):
        any_fs.mkdir("/d")
        with pytest.raises(FSError) as e:
            any_fs.unlink("/d")
        assert e.value.errno is Errno.EISDIR


class TestNameCollisions:
    def test_many_names_with_common_prefixes(self, any_fs):
        """Exercises ReiserFS's hash-probe chains and everyone's entry
        packing with similar names."""
        any_fs.mkdir("/c")
        names = [f"aaaaaaa{i}" for i in range(24)] + ["aaaaaaa", "aaaaaab"]
        for n in names:
            any_fs.write_file(f"/c/{n}", n.encode())
        for n in names:
            assert any_fs.read_file(f"/c/{n}") == n.encode()
        any_fs.unlink("/c/aaaaaaa")
        assert not any_fs.exists("/c/aaaaaaa")
        assert any_fs.exists("/c/aaaaaab")


class TestSizeLimits:
    def test_jfs_refuses_an_unmappable_write_before_allocating(self, jfs_fs):
        """A write past what the extent tree maps (8 direct + 16 * 16
        blocks) used to pass the up-front check against a limit 16
        blocks too high, allocate up to the tree's end and only then
        fail: EFBIG with the size still 0 and 281 blocks gone."""
        _, fs = jfs_fs
        fd = fs.creat("/big")
        free = fs.statfs().free_blocks
        for nblocks in (270, 265):
            with pytest.raises(FSError) as e:
                fs.write(fd, b"x" * (nblocks * fs.block_size))
            assert e.value.errno is Errno.EFBIG
            assert fs.statfs().free_blocks == free
        assert fs.stat("/big").size == 0
        # The largest file the tree maps still goes in, and comes out.
        limit = (8 + 16 * 16) * fs.block_size
        assert fs.write(fd, b"y" * limit) == limit
        with pytest.raises(FSError) as e:
            fs.write(fd, b"z", offset=limit)
        assert e.value.errno is Errno.EFBIG
        fs.close(fd)
        fs.truncate("/big", 0)
        assert fs.statfs().free_blocks == free


    #: A size past what each ``ADAPTERS`` geometry can hold: ext3/ixt3
    #: map 610,304 bytes, JFS 270,336, NTFS 49,152, and a ReiserFS body
    #: must fit in the volume.
    PAST_LIMIT = {"ext3": 700_000, "ixt3": 700_000, "jfs": 300_000,
                  "ntfs": 60_000, "reiserfs": 1 << 40}

    @pytest.mark.parametrize("name", sorted(PAST_LIMIT))
    def test_truncate_past_the_limit_is_efbig_and_changes_nothing(self, name):
        """``truncate`` had no size check: ext3/ixt3 recorded a size
        ``open`` then rejects as a corrupted inode, JFS and NTFS a size
        their maps cannot hold, and ReiserFS died of ``MemoryError``
        building the zero tail."""
        adapter = ADAPTERS[name]()
        stack = adapter.build_stack()
        adapter.mkfs(stack.top)
        fs = adapter.make_fs(stack.top)
        fs.mount()
        fs.write_file("/f", b"x" * 100)
        free = fs.statfs().free_blocks
        with pytest.raises(FSError) as e:
            fs.truncate("/f", self.PAST_LIMIT[name])
        assert e.value.errno is Errno.EFBIG
        assert fs.stat("/f").size == 100
        assert fs.statfs().free_blocks == free
        fs.close(fs.open("/f"))
        assert fs.read_file("/f") == b"x" * 100

    def test_reiserfs_write_past_the_volume_is_efbig(self, reiser_fs):
        """The same missing limit through ``write``: the whole body is
        built in memory before a block is allocated."""
        _, fs = reiser_fs
        fd = fs.creat("/f")
        free = fs.statfs().free_blocks
        with pytest.raises(FSError) as e:
            fs.write(fd, b"x", offset=1 << 40)
        assert e.value.errno is Errno.EFBIG
        assert fs.statfs().free_blocks == free
        assert fs.stat("/f").size == 0


class TestOutOfSpace:
    @pytest.mark.parametrize("name", ["ext3", "jfs", "ntfs"])
    def test_enospc_then_recoverable(self, name):
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        bs = fs.statfs().block_size
        written = []
        with pytest.raises(FSError) as e:
            for i in range(10_000):
                fs.write_file(f"/fill{i:04d}", b"F" * (8 * bs))
                written.append(i)
        assert e.value.errno is Errno.ENOSPC
        # Delete some and write again: the volume recovers.
        for i in written[:3]:
            fs.unlink(f"/fill{i:04d}")
        fs.write_file("/after", b"room again")
        assert fs.read_file("/after") == b"room again"
