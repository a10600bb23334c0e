"""Deterministic batch execution for Monte Carlo estimators.

Samples are split into contiguous fixed-size index ranges. Each batch is a
pure function of (seed, start index, count), batches are merged strictly in
index order, and any randomness beyond the sample streams (bootstrap draws)
lives in the parent process. Aggregates are therefore byte-identical for any
worker count. At N workers the parent runs every N-th batch itself beside a
pool of N - 1 processes: it walks the batches in index order, running its own
and waiting on the pool's, and stops at the first failure. Both estimators'
bootstraps run through ``bootstrap``, which draws its resamples a few at a
time, and report ``half_width``. The blocked loops of ``schemes`` and ``enkf``
size their blocks from _SCRATCH_BYTES.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .brownian import _stream_key

__all__ = ["batch_ranges", "bootstrap", "half_width", "run_batches"]

BOOTSTRAP_RESAMPLES = 200
# Resamples drawn and reduced per numpy call: a block holds this many (n,)
# rows of indices, and the statistic gathers as many copies of its data.
_BOOTSTRAP_CHUNK = 10
# Bytes of each scratch array of a blocked loop (512 KiB): a step-loop chunk
# holds max(1, _SCRATCH_BYTES // (8 * rows)) steps of every stacked row, and
# an EnKF noise block at most max(1, _SCRATCH_BYTES // (8 * J * J * K)) steps.
_SCRATCH_BYTES = 1 << 19


def batch_ranges(n_samples: int, batch_size: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) pairs covering sample indices 0..n_samples-1."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    return [
        (start, min(batch_size, n_samples - start))
        for start in range(0, n_samples, batch_size)
    ]


def bootstrap(n: int, seed: int, tag: int, statistic: Callable) -> np.ndarray:
    """``statistic`` of each of BOOTSTRAP_RESAMPLES resamples of n items.

    Resample b takes the items in row b of one (BOOTSTRAP_RESAMPLES, n) draw
    from [0, n) on the Philox stream keyed by (seed, tag). The rows are drawn
    _BOOTSTRAP_CHUNK at a time (the same integers), and ``statistic`` maps
    each such (chunk, n) block to one row per resample.
    """
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, tag)))
    starts = range(0, BOOTSTRAP_RESAMPLES, _BOOTSTRAP_CHUNK)
    sizes = (min(_BOOTSTRAP_CHUNK, BOOTSTRAP_RESAMPLES - b) for b in starts)
    with np.errstate(over="ignore"):  # resamples of huge values may sum to inf
        return np.concatenate([statistic(rng.integers(0, n, size=(c, n))) for c in sizes])


def half_width(resampled: np.ndarray) -> np.ndarray:
    """Half the width of the 95% percentile interval of each column of
    ``resampled`` (of the whole, if it is 1-d); inf samples make it inf or NaN."""
    with np.errstate(invalid="ignore"):
        lo, hi = np.percentile(resampled, [2.5, 97.5], axis=0)
        return (hi - lo) / 2.0


def run_batches(
    worker: Callable,
    args_per_batch: Sequence[tuple],
    workers: int = 1,
) -> list:
    """Apply ``worker`` to every argument tuple, results in submission order.

    The calling process is one of the ``workers``, which are never more than
    the batches (a fork-started pool launches all its processes up front): a
    pool of workers - 1 processes gets every batch whose index is not a
    multiple of ``workers``, and once all are submitted the caller walks the
    batches in index order, running its own and waiting on the pool's. One
    worker means no pool (easier tracebacks). The result order is that of
    ``args_per_batch``, which downstream order-dependent merges rely on. The
    walk stops at the first failure it meets, so the exception raised is that
    of the lowest-index batch that failed, the caller runs none of its later
    batches, and the pooled batches that had not started are cancelled.
    """
    workers = min(workers, len(args_per_batch))
    pool = ProcessPoolExecutor(max_workers=workers - 1) if workers > 1 else None
    try:
        futures = [
            pool.submit(worker, *args) if pool and i % workers else None
            for i, args in enumerate(args_per_batch)
        ]
        return [
            worker(*args) if future is None else future.result()
            for future, args in zip(futures, args_per_batch)
        ]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
