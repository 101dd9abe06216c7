"""The process pool that the enumeration engines spread their shards over."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")


def map_shards(fn: Callable[[Task], Result], tasks: Sequence[Task], threads: int) -> list[Result]:
    """[fn(task) for task in tasks], computed by `threads` worker processes.

    Workers are forked, so they start with the package already imported.
    Where the platform has no fork start method the shards run serially in
    this process instead; the results are the same either way.
    """
    # imported here: multiprocessing is a fifth of the package's import time,
    # and most commands never start a pool
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(task) for task in tasks]
    with context.Pool(threads) as pool:
        return pool.map(fn, tasks)
