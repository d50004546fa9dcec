"""The one thread-pool helper of the package."""

from __future__ import annotations

import os
from typing import Callable, Sequence


def map_in_order(worker: Callable, items: Sequence, threads: int) -> list:
    """Apply ``worker`` to independent items, results in item order.

    Each item is computed by a self-contained sequential numpy routine, so
    the result list — and everything derived from it — is identical for any
    thread count; threads only change the wall-clock time.  Callers must not
    nest pools: a worker never calls this again with more than one thread.
    At most ``min(threads, len(items), os.cpu_count())`` workers start, so a
    large ``threads`` value costs no more threads than the machine has cores.
    One worker maps in the calling thread, and ``concurrent.futures`` is
    imported only when a pool starts, so a single-threaded run never loads it.
    """
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))
