"""The one way into a process pool: prefix shards of an enumeration walk."""

from __future__ import annotations

import os
from itertools import product
from math import prod
from typing import Callable, Sequence, TypeVar

from .errors import check_size

Result = TypeVar("Result")

# Smaller walks run serially, as a pool costs more: rooted trees pool from n = 7
# (7^5 Prufer sequences, 6^4 at n = 6), binary trees from n = 8 (11!! vs 9!!).
POOL_FROM = 10**4


def map_prefixes(fn: Callable[[tuple], Result], n: int, levels: Sequence[range], threads: int) -> list[Result]:
    """Partial results of fn((n, prefix)) over a walk taking one choice from
    each range of levels in turn, prefix fixing the first choices: one call
    fn((n, ())) when threads is 1 or the walk is small, else at least
    4 * threads shards for map_shards.  ValueError unless threads is a
    positive int."""
    check_size("threads", threads, name="threads")
    if threads == 1 or prod(map(len, levels)) < POOL_FROM:
        return [fn((n, ()))]
    cut = 1
    while prod(map(len, levels[:cut])) < 4 * threads and cut < len(levels):
        cut += 1
    return map_shards(fn, [(n, prefix) for prefix in product(*levels[:cut])], threads)


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_shards(fn: Callable[[tuple], Result], tasks: Sequence[tuple], threads: int) -> list[Result]:
    """[fn(task) for task in tasks] over min(threads, tasks, available CPUs)
    forked workers; serially in this process where that is one worker or the
    platform cannot fork.  A worker that dies raises BrokenProcessPool, a
    RuntimeError, instead of leaving the map waiting for its result."""
    workers = min(threads, len(tasks), available_cpus())
    if workers <= 1:  # a pool of one would only add a fork and the pickling
        return [fn(task) for task in tasks]
    # imported here: multiprocessing is a fifth of the package's import time,
    # and most commands never start a pool
    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, tasks))
