"""Cross-file-system semantics: every FS in the study must implement
the same POSIX-ish contract through the common VFS API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import Errno, FSError
from repro.vfs import O_CREAT, O_RDONLY, O_RDWR, O_WRONLY

from conftest import FS_FACTORIES


class TestNamespace:
    def test_root_listing(self, any_fs):
        assert sorted(any_fs.getdirentries("/")) == [".", ".."]

    def test_mkdir_and_list(self, any_fs):
        any_fs.mkdir("/d")
        assert "d" in any_fs.getdirentries("/")
        assert any_fs.stat("/d").is_dir

    def test_mkdir_existing_fails(self, any_fs):
        any_fs.mkdir("/d")
        with pytest.raises(FSError) as e:
            any_fs.mkdir("/d")
        assert e.value.errno is Errno.EEXIST

    def test_mkdir_in_missing_parent_fails(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.mkdir("/no/such")
        assert e.value.errno is Errno.ENOENT

    def test_nested_directories(self, any_fs):
        any_fs.mkdir("/a")
        any_fs.mkdir("/a/b")
        any_fs.mkdir("/a/b/c")
        assert any_fs.stat("/a/b/c").is_dir
        assert "c" in any_fs.getdirentries("/a/b")

    def test_rmdir_empty(self, any_fs):
        any_fs.mkdir("/gone")
        any_fs.rmdir("/gone")
        assert not any_fs.exists("/gone")

    def test_rmdir_nonempty_fails(self, any_fs):
        any_fs.mkdir("/d")
        any_fs.write_file("/d/f", b"x")
        with pytest.raises(FSError) as e:
            any_fs.rmdir("/d")
        assert e.value.errno is Errno.ENOTEMPTY

    def test_rmdir_file_fails(self, any_fs):
        any_fs.write_file("/f", b"x")
        with pytest.raises(FSError) as e:
            any_fs.rmdir("/f")
        assert e.value.errno is Errno.ENOTDIR

    def test_rmdir_root_fails(self, any_fs):
        with pytest.raises(FSError):
            any_fs.rmdir("/")

    def test_stat_missing(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.stat("/missing")
        assert e.value.errno is Errno.ENOENT

    def test_dir_nlink_tracks_subdirs(self, any_fs):
        any_fs.mkdir("/p")
        base = any_fs.stat("/p").nlink
        any_fs.mkdir("/p/c1")
        any_fs.mkdir("/p/c2")
        assert any_fs.stat("/p").nlink == base + 2
        any_fs.rmdir("/p/c1")
        assert any_fs.stat("/p").nlink == base + 1


class TestFileIO:
    def test_create_write_read(self, any_fs):
        any_fs.write_file("/f", b"hello world")
        assert any_fs.read_file("/f") == b"hello world"
        assert any_fs.stat("/f").size == 11

    def test_overwrite_in_place(self, any_fs):
        any_fs.write_file("/f", b"AAAA")
        fd = any_fs.open("/f", O_RDWR)
        any_fs.write(fd, b"BB", offset=1)
        any_fs.close(fd)
        assert any_fs.read_file("/f") == b"ABBA"

    def test_multi_block_file(self, any_fs):
        bs = any_fs.statfs().block_size
        payload = bytes((i * 13 + 7) % 256 for i in range(5 * bs + 100))
        any_fs.write_file("/big", payload)
        assert any_fs.read_file("/big") == payload

    def test_large_file_through_indirection(self, any_fs):
        bs = any_fs.statfs().block_size
        payload = bytes((i * 31 + 3) % 256 for i in range(40 * bs))
        any_fs.write_file("/huge", payload)
        assert any_fs.read_file("/huge") == payload

    def test_sequential_read_with_offset_tracking(self, any_fs):
        any_fs.write_file("/f", b"abcdefgh")
        fd = any_fs.open("/f", O_RDONLY)
        assert any_fs.read(fd, 3) == b"abc"
        assert any_fs.read(fd, 3) == b"def"
        assert any_fs.read(fd, 10) == b"gh"
        any_fs.close(fd)

    def test_read_past_eof_is_empty(self, any_fs):
        any_fs.write_file("/f", b"tiny")
        fd = any_fs.open("/f", O_RDONLY)
        assert any_fs.read(fd, 10, offset=100) == b""
        any_fs.close(fd)

    def test_truncate_shrink(self, any_fs):
        bs = any_fs.statfs().block_size
        any_fs.write_file("/f", b"Z" * (3 * bs))
        any_fs.truncate("/f", 5)
        assert any_fs.stat("/f").size == 5
        assert any_fs.read_file("/f") == b"ZZZZZ"

    def test_truncate_grow_zero_fills(self, any_fs):
        any_fs.write_file("/f", b"ab")
        any_fs.truncate("/f", 6)
        assert any_fs.stat("/f").size == 6
        data = any_fs.read_file("/f")
        assert data[:2] == b"ab"
        assert all(b == 0 for b in data[2:])

    def test_truncate_frees_space(self, any_fs):
        bs = any_fs.statfs().block_size
        before = any_fs.statfs().free_blocks
        any_fs.write_file("/f", b"Q" * (10 * bs))
        used = before - any_fs.statfs().free_blocks
        assert used >= 10
        any_fs.truncate("/f", 0)
        after = any_fs.statfs().free_blocks
        assert after > before - used

    def test_creat_truncates_existing(self, any_fs):
        any_fs.write_file("/f", b"old contents")
        fd = any_fs.creat("/f")
        any_fs.close(fd)
        assert any_fs.stat("/f").size == 0

    def test_bad_fd(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.read(999, 1)
        assert e.value.errno is Errno.EBADF

    def test_write_to_readonly_fd(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f", O_RDONLY)
        with pytest.raises(FSError) as e:
            any_fs.write(fd, b"nope")
        assert e.value.errno is Errno.EBADF
        any_fs.close(fd)

    @pytest.mark.parametrize("call", [
        lambda fs, fd: fs.write(fd, b"zz", offset=-5),
        lambda fs, fd: fs.write(fd, b"", offset=-5),
        lambda fs, fd: fs.read(fd, 10, offset=-5),
        lambda fs, fd: fs.read(fd, -1),
        lambda fs, fd: fs.truncate("/f", -1),
    ], ids=["pwrite-offset", "empty-pwrite-offset", "pread-offset",
            "read-size", "truncate-size"])
    def test_negative_argument_is_einval(self, any_fs, call):
        payload = b"0123456789" * 600
        any_fs.write_file("/f", payload)
        fd = any_fs.open("/f", O_RDWR)
        with pytest.raises(FSError) as e:
            call(any_fs, fd)
        assert e.value.errno is Errno.EINVAL
        any_fs.close(fd)
        assert any_fs.read_file("/f") == payload

    def test_open_missing_without_creat(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.open("/missing", O_RDONLY)
        assert e.value.errno is Errno.ENOENT

    def test_open_creat_creates(self, any_fs):
        fd = any_fs.open("/newfile", O_WRONLY | O_CREAT)
        any_fs.write(fd, b"made")
        any_fs.close(fd)
        assert any_fs.read_file("/newfile") == b"made"


class TestLinksAndRename:
    def test_hard_link_shares_content(self, any_fs):
        any_fs.write_file("/a", b"shared")
        any_fs.link("/a", "/b")
        assert any_fs.read_file("/b") == b"shared"
        assert any_fs.stat("/a").nlink == 2
        assert any_fs.stat("/a").ino == any_fs.stat("/b").ino

    def test_unlink_one_name_keeps_other(self, any_fs):
        any_fs.write_file("/a", b"data")
        any_fs.link("/a", "/b")
        any_fs.unlink("/a")
        assert any_fs.read_file("/b") == b"data"
        assert any_fs.stat("/b").nlink == 1

    def test_unlink_frees_space(self, any_fs):
        bs = any_fs.statfs().block_size
        before = any_fs.statfs().free_blocks
        any_fs.write_file("/f", b"y" * (8 * bs))
        any_fs.unlink("/f")
        assert any_fs.statfs().free_blocks == before

    def test_link_to_directory_forbidden(self, any_fs):
        any_fs.mkdir("/d")
        with pytest.raises(FSError) as e:
            any_fs.link("/d", "/d2")
        assert e.value.errno is Errno.EPERM

    def test_rename_file(self, any_fs):
        any_fs.write_file("/old", b"payload")
        any_fs.rename("/old", "/new")
        assert not any_fs.exists("/old")
        assert any_fs.read_file("/new") == b"payload"

    def test_rename_overwrites_file(self, any_fs):
        any_fs.write_file("/src", b"SRC")
        any_fs.write_file("/dst", b"DST")
        any_fs.rename("/src", "/dst")
        assert any_fs.read_file("/dst") == b"SRC"

    def test_rename_directory_updates_dotdot(self, any_fs):
        any_fs.mkdir("/p1")
        any_fs.mkdir("/p2")
        any_fs.mkdir("/p1/child")
        any_fs.write_file("/p1/child/f", b"moves along")
        any_fs.rename("/p1/child", "/p2/child")
        assert any_fs.read_file("/p2/child/f") == b"moves along"
        assert not any_fs.exists("/p1/child")

    def test_rename_into_own_subtree_fails(self, any_fs):
        any_fs.mkdir("/d")
        with pytest.raises(FSError):
            any_fs.rename("/d", "/d/sub")

    def test_rename_missing_source(self, any_fs):
        with pytest.raises(FSError) as e:
            any_fs.rename("/nope", "/dst")
        assert e.value.errno is Errno.ENOENT


class TestSymlinks:
    def test_symlink_readlink(self, any_fs):
        any_fs.write_file("/target", b"pointed-at")
        any_fs.symlink("/target", "/lnk")
        assert any_fs.readlink("/lnk") == "/target"

    def test_symlink_followed_on_open(self, any_fs):
        any_fs.write_file("/target", b"pointed-at")
        any_fs.symlink("/target", "/lnk")
        assert any_fs.read_file("/lnk") == b"pointed-at"

    def test_lstat_does_not_follow(self, any_fs):
        any_fs.write_file("/target", b"pointed-at")
        any_fs.symlink("/target", "/lnk")
        assert any_fs.lstat("/lnk").is_symlink
        assert any_fs.stat("/lnk").is_file

    def test_dangling_symlink(self, any_fs):
        any_fs.symlink("/nowhere", "/lnk")
        with pytest.raises(FSError):
            any_fs.stat("/lnk")

    def test_symlink_loop_detected(self, any_fs):
        any_fs.symlink("/b", "/a")
        any_fs.symlink("/a", "/b")
        with pytest.raises(FSError) as e:
            any_fs.stat("/a")
        assert e.value.errno is Errno.ELOOP

    def test_readlink_on_file_fails(self, any_fs):
        any_fs.write_file("/f", b"x")
        with pytest.raises(FSError) as e:
            any_fs.readlink("/f")
        assert e.value.errno is Errno.EINVAL


class TestAttributes:
    def test_chmod(self, any_fs):
        any_fs.write_file("/f", b"x")
        any_fs.chmod("/f", 0o600)
        assert any_fs.stat("/f").perm_bits == 0o600

    def test_chown(self, any_fs):
        any_fs.write_file("/f", b"x")
        any_fs.chown("/f", 42, 43)
        st = any_fs.stat("/f")
        assert (st.uid, st.gid) == (42, 43)

    def test_utimes(self, any_fs):
        any_fs.write_file("/f", b"x")
        any_fs.utimes("/f", 1000.0, 2000.0)
        st = any_fs.stat("/f")
        assert (st.atime, st.mtime) == (1000.0, 2000.0)

    def test_access(self, any_fs):
        any_fs.write_file("/f", b"x")
        assert any_fs.access("/f")
        assert not any_fs.access("/missing")


class TestCwdAndChroot:
    def test_chdir_relative_paths(self, any_fs):
        any_fs.mkdir("/w")
        any_fs.write_file("/w/f", b"rel")
        any_fs.chdir("/w")
        assert any_fs.read_file("f") == b"rel"
        assert any_fs.read_file("./f") == b"rel"

    def test_chdir_to_file_fails(self, any_fs):
        any_fs.write_file("/f", b"x")
        with pytest.raises(FSError) as e:
            any_fs.chdir("/f")
        assert e.value.errno is Errno.ENOTDIR

    def test_chroot_confines_lookups(self, any_fs):
        any_fs.mkdir("/jail")
        any_fs.write_file("/jail/inside", b"in")
        any_fs.write_file("/outside", b"out")
        any_fs.chroot("/jail")
        assert any_fs.read_file("/inside") == b"in"
        with pytest.raises(FSError):
            any_fs.stat("/outside")


class TestPersistence:
    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_contents_survive_remount(self, name):
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.mkdir("/d")
        bs = fs.statfs().block_size
        payload = bytes((i * 7) % 256 for i in range(3 * bs + 17))
        fs.write_file("/d/file", payload)
        fs.symlink("/d/file", "/lnk")
        fs.unmount()

        fs2 = type(fs)(disk)
        fs2.mount()
        assert fs2.read_file("/d/file") == payload
        assert fs2.readlink("/lnk") == "/d/file"
        assert sorted(fs2.getdirentries("/d")) == [".", "..", "file"]
        fs2.unmount()

    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_crash_recovery_replays_journal(self, name):
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.write_file("/pre", b"before crash")
        fs.crash_after(lambda f: (f.write_file("/during", b"logged"),
                                  f.mkdir("/newdir")))
        fs2 = type(fs)(disk)
        fs2.mount()
        assert fs2.read_file("/pre") == b"before crash"
        assert fs2.read_file("/during") == b"logged"
        assert fs2.stat("/newdir").is_dir
        fs2.unmount()

    @pytest.mark.parametrize("name", sorted(FS_FACTORIES))
    def test_uncommitted_work_lost_on_crash(self, name):
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.write_file("/durable", b"safe")
        fs.sync()
        fs.sync_mode = False
        fs.mkdir("/volatile_dir")  # never committed
        fs.crash()
        fs2 = type(fs)(disk)
        fs2.mount()
        assert fs2.read_file("/durable") == b"safe"
        assert not fs2.exists("/volatile_dir")
        fs2.unmount()


class TestStatfsAccounting:
    def test_free_blocks_decrease_on_write(self, any_fs):
        bs = any_fs.statfs().block_size
        before = any_fs.statfs().free_blocks
        any_fs.write_file("/f", b"D" * (4 * bs))
        assert any_fs.statfs().free_blocks < before

    def test_no_leak_over_create_delete_cycles(self, any_fs):
        bs = any_fs.statfs().block_size
        any_fs.write_file("/warmup", b"w" * bs)
        any_fs.unlink("/warmup")
        before = any_fs.statfs().free_blocks
        for round_ in range(3):
            for i in range(5):
                any_fs.write_file(f"/cyc{i}", bytes([i]) * (2 * bs))
            for i in range(5):
                any_fs.unlink(f"/cyc{i}")
        after = any_fs.statfs().free_blocks
        # Tree-structured file systems may retain a node or two of
        # structure; they must not leak per cycle.
        assert after >= before - 2


@settings(max_examples=15, deadline=None)
@given(data=st.binary(min_size=0, max_size=6000))
@pytest.mark.parametrize("name", sorted(FS_FACTORIES))
def test_property_file_roundtrip(name, data):
    """Any byte string written to any FS reads back identically."""
    disk, fs = FS_FACTORIES[name]()
    fs.mount()
    fs.write_file("/blob", data)
    assert fs.read_file("/blob") == data
    assert fs.stat("/blob").size == len(data)
