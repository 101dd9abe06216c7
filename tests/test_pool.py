"""The shard pool runs serially where the platform cannot fork or only one
worker would start, starts no more workers than there are tasks or available
CPUs, the engines start it only where it pays, a dead worker fails its check
instead of hanging the run, and the package imports multiprocessing only
when a pool starts."""

import concurrent.futures
import multiprocessing
import subprocess
import sys

import pytest

import gamma_forest._pool as pool
from gamma_forest.binary_trees import joint_statistics
from gamma_forest.rooted_trees import descent_polynomial


def no_pool(fn, tasks, threads):
    raise AssertionError("pool started")


def test_serial_fallback_without_fork(monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert pool.map_shards(abs, [-3, 1, -2], 2) == [3, 1, 2]
    assert descent_polynomial(7, threads=2) == descent_polynomial(7)
    assert joint_statistics(8, threads=2) == joint_statistics(8)


class RecordingContext:
    """A fork context whose Pool, standing in for ProcessPoolExecutor, records
    its size and maps serially, so that no process starts whatever size is
    asked for."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes, mp_context=None):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


def recording_context(monkeypatch):
    context = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", context.Pool)
    return context


@pytest.mark.parametrize(
    "threads, tasks, cpus, size",
    [(100_000, 3, 2, 2), (100_000, 3, 64, 3), (2, 10, 64, 2), (4, 10, 1, 1)],
)
def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch, threads, tasks, cpus, size):
    context = recording_context(monkeypatch)
    monkeypatch.setattr(pool, "available_cpus", lambda: cpus)
    assert pool.map_shards(abs, range(-tasks, 0), threads) == list(range(tasks, 0, -1))
    # a size of one runs the tasks in process: no Pool is made
    assert context.sizes == ([size] if size > 1 else [])


def test_huge_threads_value_starts_at_most_the_available_cpus(monkeypatch):
    # the shard cut still follows threads; only the worker count is bounded
    serial = descent_polynomial(7), joint_statistics(8)
    context = recording_context(monkeypatch)
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    assert descent_polynomial(7, threads=100_000) == serial[0]
    assert joint_statistics(8, threads=100_000) == serial[1]
    assert context.sizes == [2, 2]


def test_small_n_runs_serially(monkeypatch):
    # below n = 7 (rooted) and n = 8 (binary) a pool costs more than the work
    serial = descent_polynomial(6), joint_statistics(7)
    monkeypatch.setattr(pool, "map_shards", no_pool)
    assert descent_polynomial(6, threads=2) == serial[0]
    assert joint_statistics(7, threads=2) == serial[1]
    with pytest.raises(AssertionError, match="pool started"):
        descent_polynomial(7, threads=2)
    with pytest.raises(AssertionError, match="pool started"):
        joint_statistics(8, threads=2)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
@pytest.mark.parametrize(
    "engine, n",
    [
        (descent_polynomial, 1),
        (descent_polynomial, 4),
        (descent_polynomial, 7),
        (joint_statistics, 1),
        (joint_statistics, 4),
        (joint_statistics, 8),
    ],
    ids=["rooted-one", "rooted-small", "rooted-pooled", "binary-one", "binary-small", "binary-pooled"],
)
def test_rejects_threads_that_are_not_a_positive_int(monkeypatch, engine, n, bad):
    monkeypatch.setattr(pool, "map_shards", no_pool)
    with pytest.raises(ValueError, match="threads must be a positive integer"):
        engine(n, threads=bad)


def test_verify_without_a_pool_never_imports_multiprocessing():
    # a run that starts no pool does not pay for importing multiprocessing
    code = (
        "import sys\n"
        "from gamma_forest import cli\n"
        "rc = cli.main(['verify', '--suite', 'all', '--n-max', '6', '--threads', '2'])\n"
        "assert rc == 0, rc\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-2000:]


def test_dead_worker_fails_its_check_and_the_run_goes_on():
    # a real pool of two whose tasks exit in their worker, as the OOM killer
    # would end it; in a subprocess with a timeout, so that a hang fails here
    code = (
        "import multiprocessing, os\n"
        "from gamma_forest import _pool, cli, rooted_trees\n"
        "PARENT = os.getpid()\n"
        "chunk = rooted_trees._descent_chunk\n"
        "def exit_in_worker(args):\n"
        "    if os.getpid() != PARENT:\n"
        "        os._exit(9)\n"
        "    return chunk(args)\n"
        "rooted_trees._descent_chunk = exit_in_worker\n"
        "_pool.available_cpus = lambda: 2\n"
        "rc = cli.main(['verify', '--suite', 'all', '--n-max', '7', '--threads', '2'])\n"
        "assert rc == 1, rc\n"
        "rc = cli.main(['enumerate', '--family', 'rooted', '--n', '7', '--mode', 'histogram', '--threads', '2'])\n"
        "assert rc == 2, rc\n"
        "assert multiprocessing.active_children() == []\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    # only the one check that pools rooted trees fails, and all 189 report
    fail, total = [line for line in r.stdout.splitlines() if not line.startswith("PASS")]
    assert fail.startswith("FAIL drake.descent-vs-product n=7 ")
    assert "actual=error: A process in the process pool was terminated abruptly" in fail
    assert total == "TOTAL suite=all n_max=7 passed=188 failed=1 skipped=0"
    assert "\nerror: A process in the process pool was terminated abruptly" in r.stderr
