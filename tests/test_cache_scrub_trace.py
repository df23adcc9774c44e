"""Units for the block cache."""

import pytest

from repro.common.errors import WriteError
from repro.disk import (
    BlockCache,
    Fault,
    FaultInjector,
    FaultKind,
    FaultOp,
    make_disk,
)


class TestBlockCache:
    def test_read_hits_skip_the_disk(self):
        disk = make_disk(16, 512)
        disk.write_block(3, b"\x11" * 512)
        cache = BlockCache(disk, 8)
        cache.read_block(3)
        reads_before = disk.stats.reads
        for _ in range(5):
            assert cache.read_block(3) == b"\x11" * 512
        assert disk.stats.reads == reads_before
        assert cache.hits == 5

    def test_write_through(self):
        disk = make_disk(16, 512)
        cache = BlockCache(disk, 8)
        cache.write_block(2, b"\x22" * 512)
        assert disk.peek(2) == b"\x22" * 512
        assert cache.read_block(2) == b"\x22" * 512
        assert disk.stats.reads == 0  # served from cache

    def test_lru_eviction(self):
        disk = make_disk(16, 512)
        cache = BlockCache(disk, 2)
        cache.read_block(0)
        cache.read_block(1)
        cache.read_block(2)  # evicts 0
        r = disk.stats.reads
        cache.read_block(1)  # still cached
        assert disk.stats.reads == r
        cache.read_block(0)  # miss again
        assert disk.stats.reads == r + 1

    def test_failed_write_does_not_cache(self):
        disk = make_disk(16, 512)
        disk.write_block(4, b"\x44" * 512)
        injector = FaultInjector(disk)
        cache = BlockCache(injector, 8)
        injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=4))
        with pytest.raises(WriteError):
            cache.write_block(4, b"\x55" * 512)
        injector.clear_faults()
        assert cache.read_block(4) == b"\x44" * 512  # old contents, not stale new

    def test_write_error_never_leaves_failed_block_cached(self):
        """The write-through invariant claimed in write_block: a device
        WriteError propagates before the cache is touched, so the failed
        payload is never insertable as a hit."""
        disk = make_disk(16, 512)
        injector = FaultInjector(disk)
        cache = BlockCache(injector, 8)
        injector.arm(Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block=7))
        with pytest.raises(WriteError):
            cache.write_block(7, b"\x77" * 512)
        assert 7 not in cache._lru
        injector.clear_faults()
        # Device truth (never written), not the failed payload.
        assert cache.read_block(7) == b"\x00" * 512

    def test_hit_rate_and_reset_stats(self):
        disk = make_disk(16, 512)
        cache = BlockCache(disk, 8)
        assert cache.hit_rate() == 0.0  # idle: no division by zero
        cache.read_block(1)  # miss
        cache.read_block(1)  # hit
        cache.read_block(1)  # hit
        cache.read_block(2)  # miss
        assert (cache.hits, cache.misses) == (2, 2)
        assert cache.hit_rate() == pytest.approx(0.5)
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate() == 0.0
        reads = disk.stats.reads
        cache.read_block(1)  # resetting counters must not drop cached data
        assert disk.stats.reads == reads

    def test_stats_passthrough_reaches_raw_disk(self):
        disk = make_disk(16, 512)
        cache = BlockCache(FaultInjector(disk), 8)
        cache.read_block(0)
        assert cache.stats is disk.stats
        assert cache.stats.reads == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BlockCache(make_disk(4, 512), 0)
