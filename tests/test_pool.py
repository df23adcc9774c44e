"""The persistent pool: how wide it may go, and how ``pool_map`` behaves
when a worker dies or a task raises."""

from __future__ import annotations

import os
import threading
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


def _die_once(x, marker):
    """Kill the worker running task 3, the first time only."""
    if x == 3:
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
    assert pool.pool_map(_pid, [(i,) for i in range(4)], 4) == [os.getpid()] * 4


def test_effective_jobs_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [pool.effective_jobs(j) for j in (1, 2, 3, 8)] == [1, 2, 3, 3]


@needs_two_cpus
def test_worker_killed_once_rebuilds_the_pool_once(tmp_path, rebuilds):
    marker = str(tmp_path / "died")
    results = _within(60, pool.pool_map, _die_once,
                      [(x, marker) for x in range(8)], 2)
    assert results == SQUARES
    assert os.path.exists(marker)
    assert len(rebuilds) == 1


@needs_two_cpus
def test_worker_killed_every_time_raises_then_recovers(rebuilds):
    with pytest.raises(BrokenProcessPool):
        _within(60, pool.pool_map, _die, [(x,) for x in range(4)], 2)
    assert len(rebuilds) == 2
    assert _within(60, pool.pool_map, _square, TASKS, 2) == SQUARES


@needs_two_cpus
def test_error_in_a_chunk_reaches_the_parent_then_recovers(rebuilds):
    with pytest.raises(ValueError, match="task 5"):
        _within(60, pool.pool_map, _raise_at_five, TASKS, 2, 2)
    assert _within(60, pool.pool_map, _square, TASKS, 2) == SQUARES
    assert rebuilds == []       # an exception in a task leaves the pool whole
