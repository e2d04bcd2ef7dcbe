"""The one thread-pool map, used by feature extraction."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_tasks(fn, items: list, threads: int) -> list:
    """``[fn(item) for item in items]``, over ``threads`` threads when
    ``threads > 1``; results keep the order of ``items``."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
