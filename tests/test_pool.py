"""The shard pool runs serially where the platform cannot fork, and the
engines start it only where it pays."""

import multiprocessing

import pytest

import gamma_forest._pool as pool
from gamma_forest import binary_trees, rooted_trees
from gamma_forest.binary_trees import joint_statistics
from gamma_forest.rooted_trees import descent_polynomial


def test_serial_fallback_without_fork(monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert pool.map_shards(abs, [-3, 1, -2], 2) == [3, 1, 2]
    assert descent_polynomial(7, threads=2) == descent_polynomial(7)
    assert joint_statistics(8, threads=2) == joint_statistics(8)


def test_small_n_runs_serially(monkeypatch):
    # below n = 7 (rooted) and n = 8 (binary) a pool costs more than the work
    def no_pool(fn, tasks, threads):
        raise AssertionError("pool started")

    serial = descent_polynomial(6), joint_statistics(7)
    monkeypatch.setattr(rooted_trees, "map_shards", no_pool)
    monkeypatch.setattr(binary_trees, "map_shards", no_pool)
    assert descent_polynomial(6, threads=2) == serial[0]
    assert joint_statistics(7, threads=2) == serial[1]
    with pytest.raises(AssertionError, match="pool started"):
        descent_polynomial(7, threads=2)
    with pytest.raises(AssertionError, match="pool started"):
        joint_statistics(8, threads=2)
