import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from stepargmin import rng


def _block(args, b, count):
    return np.array([(b, count)])


def _tagged(args, b, count):
    return np.array([(args, b, count)])


class Boom(RuntimeError):
    pass


def _raising(args, b, count):
    if b == args:
        raise Boom(f"block {b} failed")
    return np.array([(args, b, count)])


class LazyFuture(Future):
    """A future of RecordingPool: asking for its result runs the pool's
    queue in submission order up to this task, as one process would."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.run_until(self)
        return super().result(timeout)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, the block
    counts of each submitted task and the first block of each task that
    ran, and runs the tasks in this process, in submission order, only
    when a result is asked for or the pool shuts down."""

    sizes = []
    tasks = []
    ran = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)
        self.queue = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def submit(self, fn, *args):
        RecordingPool.tasks.append(len(args[-1]))
        future = LazyFuture(self)
        self.queue.append((future, fn, args))
        return future

    def run_until(self, future):
        while not future.done():
            task, fn, args = self.queue.pop(0)
            RecordingPool.ran.append(args[:3])
            try:
                task.set_result(fn(*args))
            except Exception as exc:
                task.set_exception(exc)

    def shutdown(self, wait=True, cancel_futures=False):
        for task, _, _ in self.queue:
            if cancel_futures:
                task.cancel()
            else:
                self.run_until(task)
        self.queue = []


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.sizes = []
    RecordingPool.tasks = []
    RecordingPool.ran = []
    monkeypatch.setattr(rng, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    return RecordingPool


def _expected(n_items, block, tag=None):
    blocks = [[b, min(block, n_items - b * block)] for b in range(-(-n_items // block))]
    return blocks if tag is None else [[tag, *row] for row in blocks]


def _one(worker, args, n_items, workers, block):
    return rng.run_chunks([(worker, args, n_items, block)], workers)[0]


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_items", [1, 6, 7, 8, 38])
    def test_each_block_once_in_order(self, workers, n_items):
        # blocks of 7: n_items 1, B - 1, B, B + 1 and 5B + 3, through the
        # real pool at two workers
        got = _one(_block, None, n_items, workers, 7)
        assert got.tolist() == _expected(n_items, 7)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_job_order(self, workers):
        # through the real pool: four jobs of different sizes, one of a
        # single cut block
        sizes = [(38, 7), (5, 8), (100, 3), (64, 64)]
        jobs = [(_tagged, tag, n_items, block) for tag, (n_items, block) in enumerate(sizes)]
        got = rng.run_chunks(jobs, workers)
        assert [g.tolist() for g in got] == [
            _expected(n_items, block, tag) for tag, (n_items, block) in enumerate(sizes)
        ]

    def test_jobs_share_one_pool(self, pool):
        jobs = [(_tagged, tag, 100 * (tag + 1), 10) for tag in range(3)]
        got = rng.run_chunks(jobs, 2)
        assert pool.sizes == [2]
        assert [g.tolist() for g in got] == [_expected(100 * (t + 1), 10, t) for t in range(3)]

    def test_pool_capped_by_cpus(self, pool):
        out = _one(_block, None, 1000, 64, 1)
        assert pool.sizes == [8]
        # the task split follows the worker count, not the pool size
        assert pool.tasks == [4] * 250
        assert out.tolist() == _expected(1000, 1)

    def test_pool_capped_by_chunks(self, pool):
        _one(_block, None, 3, 64, 1)
        assert pool.sizes == [3]
        _one(_block, None, 130, 64, 64)
        assert pool.sizes == [3, 3]
        # the cap counts the blocks of every job: 1 + 2 + 1
        rng.run_chunks([(_block, None, 5, 8), (_block, None, 9, 8), (_block, None, 1, 8)], 64)
        assert pool.sizes == [3, 3, 4]

    def test_one_chunk_runs_in_process(self, pool):
        assert _one(_block, None, 50, 4, 64).tolist() == [[0, 50]]
        assert pool.sizes == [] and pool.tasks == []

    def test_about_four_tasks_per_worker(self, pool):
        # 16 blocks of 64 at 2 workers: 8 tasks of 2 blocks; 40 blocks of
        # 1: 8 tasks of 5 blocks; 3 blocks: 3 tasks of 1 block
        jobs = [(_tagged, 0, 1000, 64), (_tagged, 1, 40, 1), (_tagged, 2, 3, 1)]
        out = rng.run_chunks(jobs, 2)
        assert pool.tasks == [2] * 8 + [5] * 8 + [1] * 3
        assert [o.tolist() for o in out] == [
            _expected(1000, 64, 0),
            _expected(40, 1, 1),
            _expected(3, 1, 2),
        ]

    def test_workers_below_one_rejected(self, pool):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                rng.run_chunks([(_block, None, 10, 1), (_block, None, 10, 1)], workers)
        assert pool.sizes == []

    def test_failure_cancels_queued_tasks(self, pool):
        # block 7 of the second job raises; it lies in that job's second
        # task of eight (40 blocks of 1, 5 per task), so the first job's 8
        # tasks and 2 of the second's run, and the 9 queued after it do not
        jobs = [(_tagged, -1, 1000, 64), (_raising, 7, 40, 1), (_tagged, -2, 3, 1)]
        with pytest.raises(Boom, match="^block 7 failed$"):
            rng.run_chunks(jobs, 2)
        assert len(pool.tasks) == 19
        assert pool.ran == [(_tagged, -1, 2 * t) for t in range(8)] + [
            (_raising, 7, 0),
            (_raising, 7, 5),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_without_fake_pool(self, workers):
        with pytest.raises(Boom, match="^block 2 failed$"):
            rng.run_chunks([(_tagged, 0, 10, 4), (_raising, 2, 10, 1)], workers)


def test_import_leaves_process_pools_unloaded():
    # the pool class is imported when a pool first starts, not with the CLI
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import stepargmin.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    src = str(Path(rng.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
