"""One process map for the pipeline's parallel steps.

`parallel_map(fn, n, workers)` is `[fn(i) for i in range(n)]`, computed in up
to `workers` forked worker processes (POSIX ``fork``). The task reaches the
workers through a module global set before the pool forks, so nothing it
closes over (responses, audio, a vocabulary) is pickled; only each call's
result comes back. Fork copies the calling thread alone, so the caller must
be single-threaded when it calls this with more than one worker.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, TypeVar

T = TypeVar("T")

# The task of the pool being forked; read by `_run` in the workers.
_task: Callable[[int], object] | None = None


def _run(i: int) -> tuple[object, Exception | None]:
    """Worker side: the result of task `i`, or the exception it raised."""
    try:
        return _task(i), None
    except Exception as exc:    # raised in the parent, in input order
        return None, exc


def _fork_pool(processes: int):
    return multiprocessing.get_context("fork").Pool(processes)


def parallel_map(fn: Callable[[int], T], n: int, workers: int) -> list[T]:
    """`[fn(i) for i in range(n)]` over `min(workers, n)` forked processes.

    At `workers <= 1` or `n <= 1` it is that loop in this process. Otherwise
    every task runs, and the first exception in input order is raised, as
    the loop would raise it. The pool is closed and joined before this
    returns, so no worker outlives the call.
    """
    if workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    global _task
    _task = fn
    try:
        # Leaving the block early terminates and joins the workers.
        with _fork_pool(min(workers, n)) as pool:
            results = pool.map(_run, range(n), chunksize=1)
            pool.close()
            pool.join()
    finally:
        _task = None
    for _, error in results:
        if error is not None:
            raise error
    return [value for value, _ in results]
