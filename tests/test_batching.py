"""Batch execution: pool sizing, who runs which batch, result order, errors
and the bootstrap."""

import multiprocessing
import os
from concurrent.futures import Future

import numpy as np
import pytest

from weaktame import _batching
from weaktame._batching import bootstrap, half_width, run_batches


def _pid_and(x):
    return os.getpid(), x


@pytest.mark.parametrize(
    "workers, n_batches, pool_size",
    [
        (1, 10, 0),
        (4, 10, 3),
        (64, 3, 2),
        (10_000, 1, 0),
        (8, 0, 0),
        (0, 5, 0),  # worker counts below one run inline
        (-3, 5, 0),
    ],
)
def test_pool_size_is_clamped_to_batch_count(monkeypatch, workers, n_batches, pool_size):
    # A recording stand-in for the pool, which runs each submitted batch in
    # this process: the caller is one of the workers, so the pool holds one
    # process fewer than the batches or workers, and one of none is never
    # started.
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(_batching, "ProcessPoolExecutor", RecordingPool)
    args = [(i, 3) for i in range(n_batches)]
    assert run_batches(divmod, args, workers) == [divmod(i, 3) for i in range(n_batches)]
    assert started == ([pool_size] if pool_size else [])


def test_single_batch_runs_inline_whatever_the_worker_count():
    assert run_batches(_pid_and, [(7,)], workers=64) == [(os.getpid(), 7)]
    assert run_batches(_pid_and, [], workers=64) == []


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_runs_every_workers_th_batch_and_the_pool_the_rest(workers):
    results = run_batches(_pid_and, [(i,) for i in range(7)], workers)
    assert [x for _, x in results] == list(range(7))
    inline = [i for i, (pid, _) in enumerate(results) if pid == os.getpid()]
    assert inline == list(range(0, 7, workers))
    pooled = {pid for i, (pid, _) in enumerate(results) if i % workers}
    assert 0 < len(pooled) <= workers - 1 and os.getpid() not in pooled
    assert multiprocessing.active_children() == []


def _fail_at(i, failing):
    if i in failing:
        raise ValueError(str(i))
    return i


@pytest.mark.parametrize(
    "failing, raised",
    [
        ({1}, "1"),  # a pooled batch only
        ({1, 2}, "1"),  # a pooled batch before one of the caller's
        ({0}, "0"),  # the caller's first batch
    ],
)
def test_the_lowest_failing_batch_raises_and_no_process_outlives_it(failing, raised):
    with pytest.raises(ValueError) as caught:
        run_batches(_fail_at, [(i, failing) for i in range(7)], workers=2)
    assert str(caught.value) == raised
    assert multiprocessing.active_children() == []


# The batches run by this process: a pooled batch appends to its child's copy.
CALLER_CALLS = []


def _record_and_fail_at(i, failing):
    CALLER_CALLS.append(i)
    return _fail_at(i, failing)


def test_the_caller_runs_none_of_its_batches_past_a_failure():
    # The caller waits on pooled batch 1 before it runs its own batch 2, so
    # batch 1's failure stops it after batch 0.
    CALLER_CALLS.clear()
    with pytest.raises(ValueError, match="^1$"):
        run_batches(_record_and_fail_at, [(i, {1}) for i in range(7)], workers=2)
    assert CALLER_CALLS == [0]
    assert multiprocessing.active_children() == []


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
