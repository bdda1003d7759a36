import numpy as np
import pytest

from stepargmin import rng


def _span(args, lo, hi):
    return np.array([(lo, hi)] * (hi - lo))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs the
    chunks in this process."""

    sizes = []
    payloads = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        payloads = list(payloads)
        RecordingPool.payloads.extend(payloads)
        return [fn(p) for p in payloads]


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.sizes = []
    RecordingPool.payloads = []
    monkeypatch.setattr(rng, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    return RecordingPool


class TestRunChunks:
    def test_pool_capped_by_cpus(self, pool):
        out = rng.run_chunks(_span, None, 1000, workers=64)
        assert pool.sizes == [8]
        assert [lo for lo, _ in out] == sorted(lo for lo, _ in out)
        assert len(out) == 1000

    def test_pool_capped_by_chunks(self, pool):
        rng.run_chunks(_span, None, 3, workers=64)
        assert pool.sizes == [3]
        rng.run_chunks(_span, None, 130, workers=64, block=64)
        assert pool.sizes == [3, 3]

    def test_one_chunk_runs_in_process(self, pool):
        assert rng.run_chunks(_span, None, 50, workers=4, block=64).tolist() == [[0, 50]] * 50
        assert pool.sizes == []

    def test_chunk_edges_on_block_multiples(self, pool):
        rng.run_chunks(_span, None, 1000, workers=2, block=64)
        edges = [(lo, hi) for _, _, lo, hi in pool.payloads]
        assert edges[0][0] == 0 and edges[-1][1] == 1000
        assert all(lo % 64 == 0 for lo, _ in edges)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))

    def test_workers_below_one_rejected(self, pool):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                rng.run_chunks(_span, None, 10, workers=workers)
        assert pool.sizes == []
