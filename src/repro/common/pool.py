"""Persistent worker pool.

Every parallel consumer in the tree (the fingerprinting matrix, the
crash-state explorer, the observation capture driver, the array
fingerprint, the fleet campaign) fans out through :func:`pool_map`.
The pool is **persistent** — created on first use, grown on demand,
reused across drivers and matrices in the same process, shut down
atexit.  Warm workers keep their per-process caches (memoized adapters
and the golden images hanging off them), so a repeat run pays neither
worker spawn nor golden rebuild.

Everything a task needs travels in its pickled arguments.  The largest
are the crash explorer's golden snapshots, about a megabyte each and
sent once per chunk; fingerprint workers build their own goldens from
the adapter recipe instead.

Submission is **streaming and bounded**: ``pool_map`` keeps at most a
small window of tasks in flight instead of submitting the whole matrix
up front, so arbitrarily long task lists never pile up serialized
arguments in the executor queue, while results still merge in
submission order (``jobs=N`` output is byte-identical to ``jobs=1``).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# -- the persistent pool ------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def effective_jobs(jobs: int) -> int:
    """Worker processes that can actually run concurrently on this
    machine: the CPUs this process may run on (its affinity mask where
    the platform has one, else the CPU count).  A pool wider than that
    adds IPC without adding concurrency; with one usable CPU any pool
    is pure overhead, so consumers use this to fall back to their
    in-process serial path — output is identical either way (``jobs=N``
    merges are defined to be byte-identical to ``jobs=1``), only the
    transport changes."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(jobs, cpus))


def get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared executor, sized for at least *jobs* workers.

    Grow-only: asking for fewer workers than the pool already has
    reuses it (``pool_map`` bounds in-flight tasks to the requested
    width, so a wider pool never over-parallelizes a narrower run).
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers >= jobs:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = ProcessPoolExecutor(max_workers=jobs)
    _pool_workers = jobs
    return _pool


def _spawn_probe() -> bool:
    return True


def warm_pool(jobs: int) -> None:
    """Force-spawn *jobs* workers now, so the first real batch pays no
    fork cost inside its timed region (benchmark drivers call this
    before starting the clock)."""
    pool = get_pool(jobs)
    for future in [pool.submit(_spawn_probe) for _ in range(jobs)]:
        future.result()


def shutdown_pool() -> None:
    """Tear the persistent pool down (atexit, and test isolation)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


# -- ordered, bounded, chunked map -------------------------------------------


def _run_chunk(worker: Callable[..., Any], chunk: Sequence[Tuple]) -> List[Any]:
    return [worker(*args) for args in chunk]


def pool_map(
    worker: Callable[..., Any],
    arg_tuples: Sequence[Tuple],
    jobs: int,
    chunksize: int = 1,
) -> List[Any]:
    """Apply *worker* to each argument tuple, ``jobs`` at a time.

    Results come back in submission order regardless of completion
    order, so callers' merges are deterministic: ``jobs=N`` output is
    identical to ``jobs=1``.  With ``jobs <= 1`` (or one task) the work
    runs in-process — no pool, no pickling requirement.

    *chunksize* groups consecutive tasks into one pool submission to
    amortize IPC for large matrices of small tasks.  Submission is
    streaming: at most ``2 * jobs`` chunks are in flight at once, so a
    huge task list never serializes all its arguments up front.
    """
    tasks = list(arg_tuples)
    if effective_jobs(jobs) <= 1 or len(tasks) <= 1:
        return [worker(*args) for args in tasks]
    chunksize = max(1, chunksize)
    chunks = [tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize)]
    for attempt in (0, 1):
        try:
            nested = _map_chunks(worker, chunks, jobs)
        except BrokenProcessPool:
            # A worker died (OOM kill, signal).  The persistent pool is
            # unusable after that; rebuild it once and retry — tasks are
            # pure functions of their arguments, so a retry is safe.
            shutdown_pool()
            if attempt:
                raise
            continue
        return [result for chunk in nested for result in chunk]
    raise AssertionError("unreachable")


def _map_chunks(
    worker: Callable[..., Any], chunks: List[List[Tuple]], jobs: int
) -> List[List[Any]]:
    pool = get_pool(jobs)
    window = max(2 * jobs, 4)
    results: List[Optional[List[Any]]] = [None] * len(chunks)
    in_flight: Dict[Any, int] = {}
    next_index = 0
    while next_index < len(chunks) or in_flight:
        while next_index < len(chunks) and len(in_flight) < window:
            future = pool.submit(_run_chunk, worker, chunks[next_index])
            in_flight[future] = next_index
            next_index += 1
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            results[in_flight.pop(future)] = future.result()
    return results  # type: ignore[return-value]
