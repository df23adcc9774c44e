"""Units for the common substrate: errors, units, checksums, syslog."""

import pytest
from hypothesis import given, strategies as st

from repro.common import (
    CorruptionDetected,
    DiskError,
    Errno,
    FSError,
    KernelPanic,
    ReadError,
    ReadOnlyError,
    Severity,
    SysLog,
    WriteError,
    crc32,
    sha1,
    transaction_checksum,
)
from repro.common.checksum import SHA1_SIZE
from repro.common.errors import OutOfRangeError


class TestErrors:
    def test_fserror_carries_errno(self):
        err = FSError(Errno.ENOENT, "gone")
        assert err.errno is Errno.ENOENT
        assert "gone" in str(err)

    def test_fserror_default_message(self):
        err = FSError(Errno.EIO)
        assert "EIO" in str(err)

    def test_read_write_errors_are_disk_errors(self):
        assert isinstance(ReadError(5), DiskError)
        assert isinstance(WriteError(5), DiskError)
        assert ReadError(5).op == "read"
        assert WriteError(5).op == "write"
        assert ReadError(7).block == 7

    def test_out_of_range_is_disk_error(self):
        err = OutOfRangeError(100, "read", 50)
        assert isinstance(err, DiskError)
        assert "100" in str(err)

    def test_readonly_error_is_erofs(self):
        assert ReadOnlyError().errno is Errno.EROFS

    def test_kernel_panic_message(self):
        p = KernelPanic("reiserfs", "bad block")
        assert "panic" in str(p)
        assert p.source == "reiserfs"

    def test_corruption_detected_carries_block(self):
        c = CorruptionDetected(42, "bad magic")
        assert c.block == 42
        assert "42" in str(c)


class TestChecksums:
    def test_sha1_size(self):
        assert len(sha1(b"x")) == SHA1_SIZE

    def test_crc32_is_content_sensitive(self):
        assert crc32(b"abc") == crc32(b"abc")
        assert crc32(b"abc") != crc32(b"abd")

    def test_transaction_checksum_order_sensitive(self):
        a, b = b"block-a" * 10, b"block-b" * 10
        assert transaction_checksum([a, b]) != transaction_checksum([b, a])
        assert transaction_checksum([a, b]) == transaction_checksum([a, b])

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_property_txn_checksum_deterministic(self, blocks):
        assert transaction_checksum(blocks) == transaction_checksum(list(blocks))


class TestSysLog:
    def test_append_and_query(self):
        log = SysLog()
        log.error("ext3", "read-error", "boom", block=7)
        log.info("ext3", "recovery", "done")
        assert len(log) == 2
        assert log.has_event("read-error")
        assert not log.has_event("panic")
        assert [r.block for r in log.find("read-error")] == [7]

    def test_severity_ordering(self):
        assert Severity.DEBUG < Severity.INFO < Severity.ERROR < Severity.CRITICAL

    def test_render_contains_fields(self):
        log = SysLog()
        log.log(Severity.CRITICAL, "jfs", "panic", "dying", block=3)
        text = log.render()
        assert "CRITICAL" in text and "jfs" in text and "block=3" in text

    def test_clear(self):
        log = SysLog()
        log.warning("x", "y", "z")
        log.clear()
        assert len(log) == 0
        assert log.events() == []

    def test_records_are_frozen(self):
        log = SysLog()
        log.info("a", "b", "c")
        [rec] = log.records
        with pytest.raises(AttributeError):
            rec.tag = "other"
