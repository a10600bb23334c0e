"""Batch execution: pool sizing, result order and the bootstrap."""

import os

import numpy as np
import pytest

from weaktame import _batching
from weaktame._batching import bootstrap, half_width, run_batches


def _pid_and(x):
    return os.getpid(), x


@pytest.mark.parametrize(
    "workers, n_batches, pool_size", [(1, 10, 1), (4, 10, 4), (64, 3, 3), (10_000, 1, 1), (8, 0, 0)]
)
def test_pool_size_is_clamped_to_batch_count(monkeypatch, workers, n_batches, pool_size):
    # A recording stand-in for the pool, which maps in this process: a pool
    # of one process or none is never started, the batches run inline.
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(_batching, "ProcessPoolExecutor", RecordingPool)
    args = [(i, 3) for i in range(n_batches)]
    assert run_batches(divmod, args, workers) == [divmod(i, 3) for i in range(n_batches)]
    assert started == ([pool_size] if pool_size > 1 else [])


def test_single_batch_runs_inline_whatever_the_worker_count():
    assert run_batches(_pid_and, [(7,)], workers=64) == [(os.getpid(), 7)]
    assert run_batches(_pid_and, [], workers=64) == []


def reference_draws(n, seed, tag):
    # one (200, n) draw of resample indices from the (seed, tag) stream
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))
    return rng.integers(0, n, size=(200, n))


@pytest.mark.parametrize("chunk", [1, 7, 10, 1000])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_chunked_bootstrap_draws_the_one_block_resamples(n, chunk, monkeypatch):
    monkeypatch.setattr(_batching, "_BOOTSTRAP_CHUNK", chunk)
    blocks = []

    def statistic(take):
        blocks.append(len(take))
        return take

    assert np.array_equal(bootstrap(n, 3, 0xB007, statistic), reference_draws(n, 3, 0xB007))
    assert blocks[:-1] == [chunk] * (len(blocks) - 1) and 0 < blocks[-1] <= chunk
    assert sum(blocks) == 200


def test_half_width_of_each_column_is_that_of_the_column_alone():
    resampled = np.random.default_rng(1).standard_normal((200, 3))
    resampled[:20, 2] = np.inf  # the upper bound lies between two infs: NaN
    got = half_width(resampled)
    assert np.isnan(got[2])
    for column, value in zip(resampled.T, got):
        assert value.tobytes() == np.asarray(half_width(column)).tobytes()
        with np.errstate(invalid="ignore"):
            lo, hi = np.percentile(column, [2.5, 97.5])
            assert value.tobytes() == np.float64((hi - lo) / 2.0).tobytes()
