import numpy as np
import pytest

from stepargmin import rng


def _block(args, b, count):
    return np.array([(b, count)])


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and chunk size
    and runs the blocks in this process."""

    sizes = []
    chunksizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        RecordingPool.chunksizes.append(chunksize)
        return [fn(*a) for a in zip(*iterables)]


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.sizes = []
    RecordingPool.chunksizes = []
    monkeypatch.setattr(rng, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    return RecordingPool


def _expected(n_items, block):
    return [[b, min(block, n_items - b * block)] for b in range(-(-n_items // block))]


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_items", [1, 6, 7, 8, 38])
    def test_each_block_once_in_order(self, workers, n_items):
        # blocks of 7: n_items 1, B - 1, B, B + 1 and 5B + 3, through the
        # real pool at two workers
        got = rng.run_chunks(_block, None, n_items, workers, 7)
        assert got.tolist() == _expected(n_items, 7)

    def test_pool_capped_by_cpus(self, pool):
        out = rng.run_chunks(_block, None, 1000, 64, 1)
        assert pool.sizes == [8]
        assert out.tolist() == _expected(1000, 1)

    def test_pool_capped_by_chunks(self, pool):
        rng.run_chunks(_block, None, 3, 64, 1)
        assert pool.sizes == [3]
        rng.run_chunks(_block, None, 130, 64, 64)
        assert pool.sizes == [3, 3]

    def test_one_chunk_runs_in_process(self, pool):
        assert rng.run_chunks(_block, None, 50, 4, 64).tolist() == [[0, 50]]
        assert pool.sizes == []

    def test_about_four_tasks_per_worker(self, pool):
        # 16 blocks of 64 at 2 workers: 8 tasks of 2 blocks
        out = rng.run_chunks(_block, None, 1000, 2, 64)
        assert pool.chunksizes == [2]
        assert out.tolist() == _expected(1000, 64)

    def test_workers_below_one_rejected(self, pool):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                rng.run_chunks(_block, None, 10, workers, 1)
        assert pool.sizes == []
