"""Batch execution: pool sizing and result order."""

import os

from weaktame import _batching
from weaktame._batching import run_batches


def test_pool_size_is_clamped_to_batch_count():
    assert _batching._pool_size(1, 10) == 1
    assert _batching._pool_size(4, 10) == 4
    assert _batching._pool_size(64, 3) == 3
    assert _batching._pool_size(10_000, 1) == 1
    assert _batching._pool_size(8, 0) == 0


def _pid_and(x):
    return os.getpid(), x


def test_single_batch_runs_inline_whatever_the_worker_count():
    assert run_batches(_pid_and, [(7,)], workers=64) == [(os.getpid(), 7)]
    assert run_batches(_pid_and, [], workers=64) == []
