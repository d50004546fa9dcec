"""Tests for the thread-pool helper: results in item order, and a capped worker count.

The cap is checked with a stub executor that records ``max_workers`` and maps
in the calling thread, so no test starts more threads than it names.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from wickkit import pool


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the worker count, maps sequentially."""

    started: list[int] = []

    def __init__(self, max_workers: int) -> None:
        RecordingExecutor.started.append(max_workers)

    def __enter__(self) -> RecordingExecutor:
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, worker, items):
        return map(worker, items)


@pytest.fixture
def executor(monkeypatch):
    RecordingExecutor.started = []
    # map_in_order imports the executor class when a pool starts, so it is patched where it is defined
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    return RecordingExecutor


@pytest.mark.parametrize(
    "threads, items, cores, workers",
    [
        (10**6, 10, 4, 4),  # a huge thread count is cut to the cores
        (3, 10, 4, 3),
        (8, 2, 4, 2),  # never more workers than items
        (2, 10, 2, 2),
        (10**6, 10**3, 64, 64),
    ],
)
def test_starts_at_most_threads_items_and_cores_workers(executor, monkeypatch, threads, items, cores, workers):
    monkeypatch.setattr(pool.os, "cpu_count", lambda: cores)
    assert pool.map_in_order(lambda x: 2 * x, range(items), threads) == [2 * x for x in range(items)]
    assert executor.started == [workers]


@pytest.mark.parametrize(
    "threads, items, cores",
    [(1, 10, 4), (4, 1, 4), (4, 0, 4), (10**6, 10, 1), (10**6, 10, None)],
)
def test_one_worker_runs_in_the_calling_thread(executor, monkeypatch, threads, items, cores):
    # os.cpu_count() is None when the core count is unknown: count one core
    monkeypatch.setattr(pool.os, "cpu_count", lambda: cores)
    assert pool.map_in_order(lambda x: x + 1, list(range(items)), threads) == list(range(1, items + 1))
    assert executor.started == []


def test_real_pool_keeps_item_order():
    assert pool.map_in_order(lambda x: x * x, list(range(7)), 2) == [x * x for x in range(7)]
