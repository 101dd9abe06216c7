"""The shard pool runs serially where the platform cannot fork."""

import multiprocessing

import gamma_forest._pool as pool
from gamma_forest.binary_trees import joint_statistics
from gamma_forest.rooted_trees import descent_polynomial


def test_serial_fallback_without_fork(monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert pool.map_shards(abs, [-3, 1, -2], 2) == [3, 1, 2]
    assert descent_polynomial(6, threads=2) == descent_polynomial(6)
    assert joint_statistics(7, threads=2) == joint_statistics(7)
