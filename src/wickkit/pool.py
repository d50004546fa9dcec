"""The one thread-pool helper of the package."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def map_in_order(worker: Callable, items: Sequence, threads: int) -> list:
    """Apply ``worker`` to independent items, results in item order.

    Each item is computed by a self-contained sequential numpy routine, so
    the result list — and everything derived from it — is identical for any
    thread count; threads only change the wall-clock time.  Callers must not
    nest pools: a worker never calls this again with more than one thread.
    """
    if threads <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(worker, items))
