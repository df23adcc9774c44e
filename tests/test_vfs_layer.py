"""Units for the VFS layer: paths, fd table, the generic buffer layer."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import Errno, FSError, ReadError, WriteError
from repro.common.syslog import Severity, SysLog
from repro.disk import Fault, FaultInjector, FaultKind, FaultOp, Persistence, make_disk
from repro.obs.events import RecoveryEvent
from repro.vfs import (
    BufferLayer,
    FDTable,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    dirname_basename,
    is_ancestor,
    normalize,
    split_path,
)
from repro.vfs.paths import MAX_NAME_LEN


class TestPaths:
    def test_split_basic(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("/") == []
        assert split_path("a//b/./c") == ["a", "b", "c"]

    def test_split_rejects_empty(self):
        with pytest.raises(FSError) as e:
            split_path("")
        assert e.value.errno is Errno.ENOENT

    def test_split_rejects_long_names(self):
        with pytest.raises(FSError) as e:
            split_path("/" + "x" * (MAX_NAME_LEN + 1))
        assert e.value.errno is Errno.ENAMETOOLONG

    def test_normalize_absolute(self):
        assert normalize("/a/b/../c") == "/a/c"
        assert normalize("/../..") == "/"
        assert normalize("/a/./b") == "/a/b"

    def test_normalize_relative_uses_cwd(self):
        assert normalize("x/y", cwd="/home") == "/home/x/y"
        assert normalize("../z", cwd="/home/me") == "/home/z"

    def test_dirname_basename(self):
        assert dirname_basename("/a/b/c") == ("/a/b", "c")
        assert dirname_basename("/top") == ("/", "top")

    def test_is_ancestor(self):
        assert is_ancestor("/a", "/a/b/c")
        assert is_ancestor("/a", "/a")
        assert not is_ancestor("/a/b", "/a")
        assert not is_ancestor("/ab", "/abc")  # no prefix confusion

    @given(st.lists(st.sampled_from(["a", "b", "..", ".", "x1"]), max_size=8))
    def test_property_normalize_idempotent(self, parts):
        path = "/" + "/".join(parts)
        once = normalize(path)
        assert normalize(once) == once
        assert once.startswith("/")
        assert ".." not in split_path(once)


class TestFDTable:
    def test_allocate_lowest_free(self):
        t = FDTable()
        a = t.allocate(1, O_RDONLY)
        b = t.allocate(2, O_RDONLY)
        assert b == a + 1
        t.close(a)
        assert t.allocate(3, O_RDONLY) == a  # lowest free reused

    def test_get_and_close(self):
        t = FDTable()
        fd = t.allocate(9, O_RDWR)
        assert t.get(fd).handle == 9
        t.close(fd)
        with pytest.raises(FSError) as e:
            t.get(fd)
        assert e.value.errno is Errno.EBADF

    def test_double_close(self):
        t = FDTable()
        fd = t.allocate(1, O_RDONLY)
        t.close(fd)
        with pytest.raises(FSError):
            t.close(fd)

    def test_flags_readable_writable(self):
        t = FDTable()
        r = t.get(t.allocate(1, O_RDONLY))
        w = t.get(t.allocate(1, O_WRONLY))
        rw = t.get(t.allocate(1, O_RDWR))
        assert r.readable and not r.writable
        assert w.writable and not w.readable
        assert rw.readable and rw.writable

    def test_close_all(self):
        t = FDTable()
        for i in range(5):
            t.allocate(i, O_RDONLY)
        t.close_all()
        assert len(t) == 0


def _layer(retries_r=0, retries_w=0):
    disk = make_disk(16, 512)
    for i in range(16):
        disk.write_block(i, bytes([i]) * 512)
    injector = FaultInjector(disk, type_oracle=lambda b: "blk")
    log = SysLog()
    return injector, log, BufferLayer(injector, log, "test",
                                      read_retries=retries_r,
                                      write_retries=retries_w)


class TestBufferLayer:
    def test_plain_read_write(self):
        injector, log, buf = _layer()
        buf.bwrite(3, b"\xaa" * 512)
        assert buf.bread(3) == b"\xaa" * 512

    def test_no_retries_fails_immediately(self):
        injector, log, buf = _layer(retries_r=0)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=3))
        with pytest.raises(ReadError):
            buf.bread(3)
        assert not log.has_event("read-retry")

    def test_retry_absorbs_transient(self):
        injector, log, buf = _layer(retries_r=2)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=3,
                           persistence=Persistence.TRANSIENT, transient_count=2))
        assert buf.bread(3) == bytes([3]) * 512
        assert sum(1 for r in log.records if r.tag == "read-retry") == 2

    def test_retry_gives_up_on_sticky(self):
        injector, log, buf = _layer(retries_r=3)
        fault = injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=3))
        with pytest.raises(ReadError):
            buf.bread(3)
        assert fault._fired == 4  # 1 + 3 retries

    def test_per_call_retry_override(self):
        injector, log, buf = _layer(retries_r=0)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=3,
                           persistence=Persistence.TRANSIENT, transient_count=1))
        assert buf.bread(3, retries=1) == bytes([3]) * 512

    def test_write_retry(self):
        injector, log, buf = _layer(retries_w=1)
        injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=5,
                           persistence=Persistence.TRANSIENT, transient_count=1))
        buf.bwrite(5, b"\xbb" * 512)
        assert log.has_event("write-retry")
        assert injector.lower.peek(5) == b"\xbb" * 512

    def test_bwrite_nocheck_swallows(self):
        injector, log, buf = _layer()
        injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=5))
        buf.bwrite_nocheck(5, b"\xcc" * 512)  # no exception: D_zero
        assert injector.lower.peek(5) == bytes([5]) * 512  # write lost

    def test_sticky_write_fails_after_retries(self):
        injector, log, buf = _layer(retries_w=2)
        with pytest.raises(WriteError):
            injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=5))
            buf.bwrite(5, b"\xdd" * 512)


class _AlwaysFails:
    """A device whose every request fails with an error naming its
    attempt, so a test can tell which one the buffer layer raised."""

    block_size = 512
    num_blocks = 16

    def __init__(self):
        self.calls = 0

    def read_block(self, block):
        self.calls += 1
        raise ReadError(block, f"attempt {self.calls}")

    def write_block(self, block, data):
        self.calls += 1
        raise WriteError(block, f"attempt {self.calls}")


@pytest.mark.parametrize("op", ["read", "write"])
def test_failing_every_attempt_retries_then_raises_the_last_error(op):
    """Each failed attempt but the last logs one retry, in order; the
    error raised is the last attempt's own; and nothing the failure
    touched is left to the cycle collector (an error kept past its
    handler would hold its frame, and the frame the error)."""
    device, log = _AlwaysFails(), SysLog()
    buf = BufferLayer(device, log, "test", read_retries=3, write_retries=3)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ReadError if op == "read" else WriteError) as e:
            if op == "read":
                buf.bread(7)
            else:
                buf.bwrite(7, bytes(512))
        assert (e.value.block, e.value.op, str(e.value)) == (7, op, "attempt 4")
        del e
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert device.calls == 4
    assert log.records == [
        RecoveryEvent(Severity.WARNING, "test", f"{op}-retry",
                      f"retrying {op} of block 7 (attempt {n})", 7,
                      mechanism="retry")
        for n in (2, 3, 4)]
