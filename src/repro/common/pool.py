"""Persistent worker pool.

The fleet campaign (:func:`repro.fleet.campaign.run_fleet`) is the one
driver in the tree that fans out, through :func:`pool_map`.  The
fingerprint, crash, array and trace drivers run in-process: each of
their runs costs less than starting a pool (docs/performance.md).
The pool is **persistent** — created on first use, grown on demand,
reused across campaigns in the same process, shut down atexit — so a
repeat campaign pays no worker spawn.  Everything a task needs travels
in its pickled arguments, and results stream back in submission order
through a bounded window (``jobs=N`` output is byte-identical to
``jobs=1``).
"""

from __future__ import annotations

import atexit
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Any, Callable, Deque, Iterator, List, Optional, Sequence, Tuple

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
    """Force-spawn the workers a ``pool_map(..., jobs)`` would use now,
    so the first real batch pays no fork cost inside its timed region
    (benchmark drivers call this before starting the clock).  Spawns
    nothing where ``pool_map`` runs in-process (one usable CPU)."""
    width = effective_jobs(jobs)
    if width <= 1:
        return
    pool = get_pool(width)
    for future in [pool.submit(_spawn_probe) for _ in range(width)]:
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

#: Chunks a map gives each worker: fewer pay fewer pool round trips,
#: more leave less work running alone at the end (docs/performance.md).
CHUNKS_PER_WORKER = 16


def _run_chunk(worker: Callable[..., Any], chunk: Sequence[Tuple]) -> List[Any]:
    return [worker(*args) for args in chunk]


def pool_map(worker: Callable[..., Any], arg_tuples: Sequence[Tuple],
             jobs: int) -> Iterator[Any]:
    """Apply *worker* to each argument tuple, ``jobs`` at a time; a
    generator of the results in submission order.

    A result comes out as soon as its chunk and every earlier chunk are
    done, so callers fold as the map runs, deterministically.  With one
    usable CPU (or one task) the work runs in-process, one task a
    ``next`` — no pool, no pickling requirement.

    The pool is ``effective_jobs(jobs)`` wide; consecutive tasks travel
    in chunks of ``ceil(tasks / (width * CHUNKS_PER_WORKER))``, at most
    ``2 * width`` of them submitted and not yet yielded.  A consumer that
    stops early (raises, or closes the generator) cancels every chunk
    still queued.
    """
    tasks = list(arg_tuples)
    width = effective_jobs(jobs)
    if width <= 1 or len(tasks) <= 1:
        return (worker(*args) for args in tasks)
    size = -(-len(tasks) // (width * CHUNKS_PER_WORKER))
    return _stream(worker, [tasks[i:i + size]
                            for i in range(0, len(tasks), size)], width)


def _stream(worker: Callable[..., Any], chunks: List[List[Tuple]],
            width: int) -> Iterator[Any]:
    in_flight: Deque[Future] = deque()
    submit = _map_chunks(worker, chunks, width)
    yielded = 0             # chunks handed over whole
    rebuilt = False
    try:
        while yielded < len(chunks):
            try:
                in_flight.extend(islice(submit, 2 * width - len(in_flight)))
                wait((in_flight[0],))
                # An exhausted iterator lets go of its list, so the
                # parent keeps no result it has handed over.
                results = iter(in_flight.popleft().result())
            except BrokenProcessPool:
                # A worker died (OOM kill, signal) and the pool with it.
                # Rebuild it once and resume at the first chunk not yet
                # yielded: tasks are pure, so nothing comes out twice.
                in_flight.clear()
                shutdown_pool()
                if rebuilt:
                    raise
                rebuilt = True
                submit = _map_chunks(worker, chunks[yielded:], width)
                continue
            yield from results
            yielded += 1
    except BaseException:
        # An interrupt, a failed chunk, or a consumer that stopped
        # early: leave nothing of this map queued in the persistent pool.
        for future in in_flight:
            future.cancel()
        raise


def _map_chunks(worker: Callable[..., Any], chunks: List[List[Tuple]],
                width: int) -> Iterator[Future]:
    """Submit *chunks* to the ``width``-wide pool lazily, one a ``next``."""
    pool = get_pool(width)
    return (pool.submit(_run_chunk, worker, chunk) for chunk in chunks)
