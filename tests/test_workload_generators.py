"""The Table-6 benchmark workload generators: determinism, shape,
correct behaviour on a live file system, and the draw tape that lets
every variant replay one recording."""

import random

import pytest

from repro.bench.workloads import (
    BENCHMARKS,
    TAPES,
    BenchScale,
    Tape,
    TapeMismatch,
    postmark,
    ssh_build,
    tpcb,
    web_server,
    web_server_setup,
)
from repro.common.rng import random_bytes
from repro.disk.cache import BlockCache
from repro.disk.disk import make_disk
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3
from repro.fs.ext3 import Ext3Config

TINY = BenchScale(
    ssh_sources=6, ssh_objects=4, ssh_dirs=2,
    web_files=5, web_requests=10,
    post_files=8, post_txns=10,
    tpcb_accounts_blocks=6, tpcb_txns=5,
)

BASE = Ext3Config(block_size=1024, blocks_per_group=1024,
                  inodes_per_group=128, num_groups=2, journal_blocks=128)


def live_fs():
    cfg = ixt3_config(BASE, dynamic_replica_slots=128)
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ixt3(disk, BASE, features=0, config=cfg)
    fs = Ixt3(BlockCache(disk, 4096), sync_mode=False, commit_every=64)
    fs.mount()
    return disk, fs


def clear_tapes():
    for tape in TAPES.values():
        tape.clear()


@pytest.fixture(autouse=True)
def fresh_tapes():
    clear_tapes()
    yield
    clear_tapes()


class TestSSHBuild:
    def test_builds_the_tree(self):
        disk, fs = live_fs()
        ssh_build(fs, TINY)
        names = fs.getdirentries("/ssh")
        assert "config.h" in names
        assert "sshd" in names
        assert fs.stat("/ssh/sshd").size > 0
        # Conftest probes were cleaned up.
        assert not any(n.startswith("conftest") for n in names)

    def test_deterministic(self):
        d1, f1 = live_fs()
        ssh_build(f1, TINY)
        d2, f2 = live_fs()
        ssh_build(f2, TINY)
        assert f1.read_file("/ssh/sshd") == f2.read_file("/ssh/sshd")

    def test_charges_cpu_time(self):
        disk, fs = live_fs()
        t0 = disk.clock
        ssh_build(fs, TINY)
        cpu = TINY.ssh_objects * TINY.ssh_compile_cpu_s
        assert disk.clock - t0 > cpu  # at least the compile time passed


class TestWebServer:
    def test_read_only_measured_phase(self):
        disk, fs = live_fs()
        web_server_setup(fs, TINY)
        fs.sync()
        w0 = disk.stats.writes
        web_server(fs, TINY)
        assert disk.stats.writes == w0  # requests never write

    def test_serves_every_requested_page_fully(self):
        disk, fs = live_fs()
        web_server_setup(fs, TINY)
        web_server(fs, TINY)  # any short read would crash inside


class TestPostMark:
    def test_cleans_up_after_itself(self):
        disk, fs = live_fs()
        free0 = fs.statfs().free_blocks
        postmark(fs, TINY)
        # All files deleted at the end; only the pm directories remain.
        leftovers = [n for d in range(TINY.post_dirs)
                     for n in fs.getdirentries(f"/pm{d}") if n not in (".", "..")]
        assert leftovers == []
        assert fs.statfs().free_blocks >= free0 - 2 * TINY.post_dirs

    def test_deterministic_io_volume(self):
        d1, f1 = live_fs()
        postmark(f1, TINY)
        d2, f2 = live_fs()
        postmark(f2, TINY)
        assert d1.stats.writes == d2.stats.writes
        assert d1.stats.reads == d2.stats.reads


class TestTPCB:
    def test_database_grows_history(self):
        disk, fs = live_fs()
        tpcb(fs, TINY)
        assert fs.stat("/accounts.db").size == TINY.tpcb_accounts_blocks * 1024
        hist = fs.read_file("/history.log")
        assert hist.count(b"commit") == TINY.tpcb_txns

    def test_commits_once_per_transaction(self):
        disk, fs = live_fs()
        tpcb(fs, TINY)
        # fsync per txn + setup/final syncs.
        assert fs.journal.commits >= TINY.tpcb_txns

    def test_account_records_mutated(self):
        disk, fs = live_fs()
        tpcb(fs, TINY)
        db = fs.read_file("/accounts.db")
        assert any(b != 0 for b in db)


class TestRegistry:
    def test_four_benchmarks_registered(self):
        assert set(BENCHMARKS) == {"SSH", "Web", "Post", "TPCB"}
        for name, spec in BENCHMARKS.items():
            assert callable(spec["run"])


#: Each benchmark as the harness runs it: setup (if any), then the run.
PHASES = {bench: [phase for phase in (spec["setup"], spec["run"]) if phase]
          for bench, spec in BENCHMARKS.items()}


def outcome(bench, scale=TINY, seed=None):
    """Run *bench* on a fresh volume; what the disk ended with."""
    disk, fs = live_fs()
    for phase in PHASES[bench]:
        if seed is None:
            phase(fs, scale)
        else:
            phase(fs, scale, seed)
    fs.unmount()
    return disk.snapshot(), disk.clock, disk.stats.reads, disk.stats.writes


class TestTapeEquivalence:
    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_record_replay_and_rerecord_agree(self, bench):
        recorded = outcome(bench)
        assert all(TAPES[phase.__name__].key is not None
                   for phase in PHASES[bench])
        replayed = outcome(bench)
        clear_tapes()
        rerecorded = outcome(bench)
        assert recorded == replayed == rerecorded

    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_other_scale_or_seed_records_again(self, bench):
        tape = TAPES[PHASES[bench][-1].__name__]
        base = outcome(bench)
        other_scale = BenchScale(**{**vars(TINY), "web_requests": 12,
                                    "post_txns": 12, "tpcb_txns": 6,
                                    "ssh_objects": 5})
        for scale, seed in ((other_scale, None), (TINY, 99)):
            taped = outcome(bench, scale, seed)
            assert taped != base
            assert tape.key[0] == scale and seed in (None, tape.key[1])
            clear_tapes()
            assert outcome(bench, scale, seed) == taped

    def test_draws_match_a_fresh_stream(self):
        """Record mode draws exactly what ``random.Random(seed)`` would,
        ``choice`` included."""
        def script(source, payload):
            return [(source.randrange(n), source.choice("abcdefg"[:n]),
                     payload(n), source.randrange(n, 900))
                    for n in range(1, 8) for _ in range(5)]

        tape = Tape("t")
        with tape.open(TINY, 7) as draws:
            got = script(draws, draws.payload)
        rng = random.Random(7)
        assert got == script(rng, lambda n: random_bytes(rng, n))


def _record(tape):
    with tape.open(TINY, 1) as draws:
        draws.randrange(10)
        draws.payload(8)


class TestReplayGuard:
    def test_different_kind_or_args(self):
        tape = Tape("t")
        _record(tape)
        with pytest.raises(TapeMismatch, match=r"draw 1 is payload\(9,\)"):
            with tape.open(TINY, 1) as draws:
                draws.randrange(10)
                draws.payload(9)
        with pytest.raises(TapeMismatch, match=r"draw 0 is choice\(10,\)"):
            with tape.open(TINY, 1) as draws:
                draws.choice(range(10))

    def test_tape_runs_out(self):
        tape = Tape("t")
        _record(tape)
        with pytest.raises(TapeMismatch, match="past the end"):
            with tape.open(TINY, 1) as draws:
                draws.randrange(10)
                draws.payload(8)
                draws.randrange(10)

    def test_draws_left_over(self):
        tape = Tape("t")
        _record(tape)
        with pytest.raises(TapeMismatch, match="1 of 2 recorded draws left"):
            with tape.open(TINY, 1) as draws:
                draws.randrange(10)


class _Failing(Exception):
    pass


class TestCommitOnReturn:
    def test_failed_recording_leaves_no_tape(self):
        clean = outcome("Post")
        outcome("Post", TINY, 11)       # the recording the failed run drops
        disk, fs = live_fs()
        writes = fs.write_file
        calls = []

        def failing_write(path, data):
            calls.append(path)
            if len(calls) == 5:
                raise _Failing(path)
            writes(path, data)

        fs.write_file = failing_write
        with pytest.raises(_Failing):
            postmark(fs, TINY)
        assert TAPES["postmark"].key is None
        assert outcome("Post") == clean
        assert TAPES["postmark"].key == (TINY, 4)
