"""One process map for the pipeline's parallel steps.

`parallel_map(fn, n, workers)` is `[fn(i) for i in range(n)]`, computed in up
to `workers` forked worker processes (POSIX ``fork``). The task reaches the
workers through a module global set before the pool forks, so nothing it
closes over (responses, a vocabulary) is pickled; only each call's
result comes back. Fork copies the calling thread alone, so the caller must
be single-threaded when it calls this with more than one worker. The pool is
a fork-context ``ProcessPoolExecutor``: in CPython 3.11 it forks every worker
before it starts its manager thread, and a worker that dies mid-task (the
OOM killer, say) raises ``BrokenProcessPool`` instead of hanging the map.
"""

from __future__ import annotations

from multiprocessing import get_context
from typing import Callable, TypeVar

T = TypeVar("T")

# The task of the pool being forked; read by `_run` in the workers.
_task: Callable[[int], object] | None = None


def _run(i: int) -> object:
    """Worker side: task `i` of the map that forked this worker."""
    return _task(i)


def _fork_pool(processes: int):
    # Imported here: the serial path never loads the executor (~1 MB RSS).
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(processes, mp_context=get_context("fork"))


def parallel_map(fn: Callable[[int], T], n: int, workers: int) -> list[T]:
    """`[fn(i) for i in range(n)]` over `min(workers, n)` forked processes.

    At `workers <= 1` or `n <= 1` it is that loop in this process. Otherwise
    the first exception in input order is raised, as the loop would raise
    it, and the tasks still queued are cancelled. The pool is shut down
    and its workers joined before this returns, so no worker outlives the
    call.
    """
    if workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    global _task
    _task = fn
    try:
        with _fork_pool(min(workers, n)) as pool:
            return list(pool.map(_run, range(n)))
    finally:
        _task = None
