"""Deterministic batch execution for Monte Carlo estimators.

Samples are split into contiguous fixed-size index ranges. Each batch is a
pure function of (seed, start index, count), batches are merged strictly in
index order, and any randomness beyond the sample streams (bootstrap draws)
lives in the parent process. Aggregates are therefore byte-identical for any
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

__all__ = ["batch_ranges", "run_batches"]


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


def run_batches(
    worker: Callable,
    args_per_batch: Sequence[tuple],
    workers: int = 1,
) -> list:
    """Apply ``worker`` to every argument tuple, results in submission order.

    The pool gets one process per batch at most (see _pool_size); a single
    process runs inline (no pool, easier tracebacks). Either way the returned
    list order matches ``args_per_batch``, which is what downstream
    order-dependent merges rely on.
    """
    workers = _pool_size(workers, len(args_per_batch))
    if workers <= 1:
        return [worker(*args) for args in args_per_batch]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_star_apply, [(worker, args) for args in args_per_batch]))


def _pool_size(workers: int, n_batches: int) -> int:
    """Processes to start: the requested count, but no more than there are
    batches, since a fork-started pool launches all of them up front."""
    return min(workers, n_batches)


def _star_apply(packed):
    worker, args = packed
    return worker(*args)
