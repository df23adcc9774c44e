"""The persistent pool: how wide it may go, how ``pool_map`` streams
its results, and how it behaves when a worker dies, a task raises or
the consumer stops early."""

from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common import pool

TASKS = [(x,) for x in range(8)]
SQUARES = [x * x for x in range(8)]

needs_two_cpus = pytest.mark.skipif(
    pool.effective_jobs(2) < 2, reason="one usable CPU: pool_map stays in-process")


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _die_once(x, marker, at=3):
    """Kill the worker running task *at*, the first time only."""
    if x == at:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return x * x


def _die(x):
    os._exit(1)


def _raise_at_five(x):
    if x == 5:
        raise ValueError(f"task {x}")
    return x * x


def _within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread: a pool that hangs instead of
    failing fails the test instead of stalling the suite."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:    # handed to the test thread below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"pool_map still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _drain(*args):
    return list(pool.pool_map(*args))


@pytest.fixture
def rebuilds(monkeypatch):
    """Count the pool teardowns ``pool_map`` makes after a broken pool."""
    calls = []
    real = pool.shutdown_pool

    def counting():
        calls.append(1)
        real()

    monkeypatch.setattr(pool, "shutdown_pool", counting)
    return calls


def test_effective_jobs_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool.effective_jobs(4) == 1
    assert _drain(_pid, [(i,) for i in range(4)], 4) == [os.getpid()] * 4


def test_effective_jobs_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [pool.effective_jobs(j) for j in (1, 2, 3, 8)] == [1, 2, 3, 3]


@needs_two_cpus
def test_worker_killed_once_rebuilds_the_pool_once(tmp_path, rebuilds):
    marker = str(tmp_path / "died")
    results = _within(60, _drain, _die_once,
                      [(x, marker) for x in range(8)], 2)
    assert results == SQUARES
    assert os.path.exists(marker)
    assert len(rebuilds) == 1


@needs_two_cpus
def test_worker_killed_every_time_raises_then_recovers(rebuilds):
    with pytest.raises(BrokenProcessPool):
        _within(60, _drain, _die, [(x,) for x in range(4)], 2)
    assert len(rebuilds) == 2
    assert _within(60, _drain, _square, TASKS, 2) == SQUARES


@needs_two_cpus
def test_worker_killed_mid_stream_resumes_without_duplicates(tmp_path,
                                                             rebuilds):
    """40 tasks at width 2 are 20 chunks of 2, at most 4 of them
    submitted and not yet yielded: task 30's chunk (15) is submitted
    only after 12 chunks were handed over, and the rebuilt pool resumes
    at the first chunk not yet yielded."""
    marker = str(tmp_path / "died")
    stream = pool.pool_map(_die_once, [(x, marker, 30) for x in range(40)], 2)
    head = _within(60, lambda: [next(stream) for _ in range(2)])
    assert not os.path.exists(marker)
    rest = _within(60, list, stream)
    assert head + rest == [x * x for x in range(40)]
    assert os.path.exists(marker)
    assert len(rebuilds) == 1


@needs_two_cpus
def test_error_in_a_chunk_reaches_the_parent_then_recovers(rebuilds):
    with pytest.raises(ValueError, match="task 5"):
        _within(60, _drain, _raise_at_five, TASKS, 2)
    assert _within(60, _drain, _square, TASKS, 2) == SQUARES
    assert rebuilds == []       # an exception in a task leaves the pool whole


class _IdlePool:
    """An executor whose workers never pick a task up: every chunk
    ``pool_map`` submits stays queued until it is cancelled."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(Future())
        return self.futures[-1]


class _InlinePool:
    """An executor that starts no process: a chunk runs in the test's
    own thread when the patched ``wait`` asks for the oldest one, and a
    cancelled chunk never runs."""

    def __init__(self):
        self.queued = []
        self.windows = []       # chunks in flight at each wait
        self.widths = []        # widths asked of ``get_pool``

    def submit(self, fn, *args):
        self.queued.append((Future(), fn, args))
        return self.queued[-1][0]

    def wait(self, futures, return_when=None):
        self.queued = [entry for entry in self.queued
                       if not entry[0].cancelled()]
        self.windows.append(len(self.queued))
        future, fn, args = self.queued.pop(0)
        assert future in futures
        future.set_result(fn(*args))
        return {future}, set()


@pytest.fixture
def inline_pool(monkeypatch):
    """``pool_map`` on an :class:`_InlinePool` instead of processes."""
    inline = _InlinePool()

    def get_pool(width):
        inline.widths.append(width)
        return inline

    monkeypatch.setattr(pool, "get_pool", get_pool)
    monkeypatch.setattr(pool, "wait", inline.wait)
    return inline


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def test_pool_and_window_stay_within_the_usable_cpus(monkeypatch, inline_pool):
    _cpus(monkeypatch, 2)
    tasks = [(x,) for x in range(168)]
    assert _drain(_square, tasks, 8) == [x * x for x in range(168)]
    assert inline_pool.widths == [2]
    assert max(inline_pool.windows) == 4        # 2 * width, not 2 * jobs


def test_warm_pool_spawns_nothing_on_one_usable_cpu(monkeypatch, inline_pool):
    _cpus(monkeypatch, 1)
    _within(10, pool.warm_pool, 2)              # an inline probe never resolves
    assert inline_pool.widths == []             # no pool wider than 1
    assert inline_pool.queued == []


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 168, 4200])
def test_chunks_run_every_task_once_in_order(monkeypatch, inline_pool,
                                             width, count):
    _cpus(monkeypatch, width)
    ran = []

    def record(x):
        ran.append(x)
        return -x

    tasks = [(x,) for x in range(count)]
    assert _drain(record, tasks, width) == [-x for x in range(count)]
    assert ran == list(range(count))
    chunks = len(inline_pool.windows)           # one wait per chunk
    if count <= 1:
        assert chunks == 0                      # in-process, no pool
    else:
        size = -(-count // (width * pool.CHUNKS_PER_WORKER))
        assert chunks == -(-count // size) <= width * pool.CHUNKS_PER_WORKER


def _interrupt_first_wait(monkeypatch):
    """``pool.wait`` raises ``KeyboardInterrupt`` on its first call."""
    real_wait = pool.wait
    calls = []

    def wait(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(pool, "wait", wait)


def test_interrupt_cancels_every_queued_chunk(monkeypatch):
    _cpus(monkeypatch, 2)
    idle = _IdlePool()
    monkeypatch.setattr(pool, "get_pool", lambda jobs: idle)
    _interrupt_first_wait(monkeypatch)
    tasks = [(x,) for x in range(12)]     # 12 chunks, more than the window of 4
    with pytest.raises(KeyboardInterrupt):
        next(pool.pool_map(_square, tasks, 2))
    assert len(idle.futures) == 4
    assert all(future.cancelled() for future in idle.futures)


def _stop_by_closing(stream):
    assert [next(stream) for _ in range(3)] == [0, 1, 4]
    stream.close()


def _stop_by_raising(stream):
    with pytest.raises(ValueError, match="fold failed"):
        for result in stream:
            if result == 4:
                raise ValueError("fold failed")


@pytest.mark.parametrize("stop", [_stop_by_closing, _stop_by_raising])
def test_a_consumer_that_stops_cancels_every_queued_chunk(monkeypatch,
                                                          inline_pool, stop):
    _cpus(monkeypatch, 2)
    tasks = [(x,) for x in range(40)]         # 20 chunks of 2, 4 in flight
    stop(pool.pool_map(_square, tasks, 2))
    assert len(inline_pool.queued) == 3       # the rest of the window
    assert all(future.cancelled() for future, _fn, _args in inline_pool.queued)
    assert _drain(_square, tasks, 2) == [x * x for x in range(40)]


@needs_two_cpus
def test_interrupt_leaves_the_pool_clean_then_recovers(monkeypatch):
    _interrupt_first_wait(monkeypatch)
    submitted = []
    real_pool = pool.get_pool(2)
    real_submit = real_pool.submit

    def submit(*args):
        submitted.append(real_submit(*args))
        return submitted[-1]

    monkeypatch.setattr(real_pool, "submit", submit)
    tasks = [(x,) for x in range(24)]
    with pytest.raises(KeyboardInterrupt):
        _drain(_square, tasks, 2)
    assert 0 < len(submitted) < len(tasks)
    for future in submitted:
        assert future.cancelled() or future.exception(timeout=30) is None
    monkeypatch.undo()
    assert (_within(60, _drain, _square, tasks, 2)
            == _drain(_square, tasks, 1))


@needs_two_cpus
def test_closing_mid_stream_leaves_the_pool_clean_then_recovers(monkeypatch):
    submitted = []
    real_pool = pool.get_pool(2)
    real_submit = real_pool.submit

    def submit(*args):
        submitted.append(real_submit(*args))
        return submitted[-1]

    monkeypatch.setattr(real_pool, "submit", submit)
    tasks = [(x,) for x in range(24)]         # 24 chunks of 1, 4 in flight
    stream = pool.pool_map(_square, tasks, 2)
    assert _within(60, lambda: [next(stream) for _ in range(3)]) == [0, 1, 4]
    stream.close()
    assert len(submitted) < len(tasks)
    for future in submitted:
        assert future.cancelled() or future.exception(timeout=30) is None
    monkeypatch.undo()
    assert _within(60, _drain, _square, tasks, 2) == _drain(_square, tasks, 1)


def test_campaign_parent_holds_a_window_of_outcomes(monkeypatch, inline_pool):
    """``run_fleet`` at jobs=2 keeps no outcome it has folded: at most
    ``2 * width`` chunks' worth are alive at once, counted with weak
    references when each trial returns (no RSS involved)."""
    from repro.fleet import campaign
    from repro.fleet.spec import FleetSpec

    _cpus(monkeypatch, 2)
    spec = FleetSpec().scaled(trials=8)
    tasks = len(spec.cells()) * spec.trials
    size = math.ceil(tasks / (2 * pool.CHUNKS_PER_WORKER))
    alive = []
    peak = []
    real_trial = campaign.run_trial

    def tracked_trial(*args):
        outcome = real_trial(*args)
        alive.append(weakref.ref(outcome))
        peak.append(sum(ref() is not None for ref in alive))
        return outcome

    monkeypatch.setattr(campaign, "run_trial", tracked_trial)
    report = campaign.run_fleet(spec, jobs=2)
    assert report.trials == len(alive) == tasks == 168
    assert inline_pool.widths and set(inline_pool.widths) == {2}
    assert max(peak) <= 2 * 2 * size


def test_a_campaign_whose_progress_raises_cancels_its_queued_chunks(
        monkeypatch, inline_pool):
    from repro.fleet.campaign import run_fleet
    from repro.fleet.spec import FleetSpec

    _cpus(monkeypatch, 2)

    def progress(line):
        raise KeyboardInterrupt(line)

    with pytest.raises(KeyboardInterrupt, match="fleet: 1/42 trials"):
        run_fleet(FleetSpec().scaled(trials=2), jobs=2, progress=progress)
    assert len(inline_pool.queued) == 3       # 21 chunks of 2, 4 in flight
    assert all(future.cancelled() for future, _fn, _args in inline_pool.queued)
