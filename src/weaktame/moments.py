"""A-priori moment estimation and the explicit-Euler divergence profile.

Monte Carlo estimates run over batches of coupled-free independent paths;
batches are fixed-size contiguous sample ranges so aggregates are worker-count
independent (see _batching). Saturated nodes are excluded from moment sums,
blown-up paths are counted, and the raw p-th powers are reported without
1/p normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from ._batching import batch_ranges, run_batches
from .brownian import TimeGrid, increment_block
from .schemes import NAIVE_EM, WEAK_TAMED_ENKF, SchemeSpec, integrate_increments, step

__all__ = [
    "MomentReport",
    "estimate_moments",
    "moment_table",
    "node_second_moments",
    "second_moment_recursion_check",
    "em_blowup_profile",
]

MOMENT_BATCH_SIZE = 512
BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0xB007


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moment summary at one (scheme, grid, p).

    sup_of_mean: max over nodes of the mean of |value|^p (alive samples);
    mean_of_sup: mean over samples of the per-path max of |value|^p;
    integral_term: mean of h * sum_nodes |value|^(p+2) / (1+h*value^2)^2;
    sup_of_mean_ci: 95% batch-bootstrap half-width of sup_of_mean.
    """

    p: float
    sup_of_mean: float
    mean_of_sup: float
    integral_term: float
    blowup_fraction: float
    n_samples: int
    sup_of_mean_ci: float


def _valid_mask(blow: np.ndarray, n_nodes: int) -> np.ndarray:
    nodes = np.arange(n_nodes, dtype=np.int64)
    return (blow[:, None] < 0) | (nodes[None, :] < blow[:, None])


def _moment_batch(
    spec: SchemeSpec,
    grid: TimeGrid,
    seed: int,
    start: int,
    count: int,
    u0: float,
    ps: tuple[float, ...],
    keep_endpoints: bool,
):
    """Pure per-batch accumulation; everything downstream is an ordered merge."""
    increments = increment_block(seed, start, count, grid)
    values, blow = integrate_increments(spec, grid.h, increments, u0)
    n_nodes = values.shape[1]
    valid = _valid_mask(blow, n_nodes)
    absv = np.abs(values)
    v2 = values * values
    h = grid.h

    node_sums = np.empty((len(ps), n_nodes), dtype=np.float64)
    sup_sums = np.empty(len(ps), dtype=np.float64)
    integral_sums = np.empty(len(ps), dtype=np.float64)
    masked_abs = np.where(valid, absv, 0.0)
    path_sup = masked_abs.max(axis=1)
    with np.errstate(all="ignore"):
        for i, p in enumerate(ps):
            powv = np.where(valid, absv**p, 0.0)
            node_sums[i] = powv.sum(axis=0)
            sup_sums[i] = float(np.sum(path_sup**p))
            # stable form of |v|^(p+2) / (1+h v^2)^2, overflow-free for
            # |v| up to the saturation sentinel
            base = absv / (1.0 + h * v2) ** (2.0 / (p + 2.0))
            term = np.where(valid, base ** (p + 2.0), 0.0)
            integral_sums[i] = float(h * term.sum())
    node_count = valid.sum(axis=0).astype(np.int64)
    blow_count = int((blow >= 0).sum())
    endpoints = absv[:, -1].copy() if keep_endpoints else None
    return node_sums, node_count, sup_sums, integral_sums, blow_count, endpoints


def _bootstrap_rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([int(seed) & (2**64 - 1), tag], dtype=np.uint64)
    return np.random.Generator(Philox(key=key))


def _sup_of_mean(node_sums: np.ndarray, node_count: np.ndarray) -> float:
    covered = node_count > 0
    with np.errstate(all="ignore"):
        means = node_sums[covered] / node_count[covered]
    return float(means.max())


def moment_table(
    spec: SchemeSpec,
    grid: TimeGrid,
    ps,
    n_samples: int,
    seed: int,
    u0: float = 1.0,
    workers: int = 1,
) -> list[MomentReport]:
    """MomentReports for several orders p from one simulation pass."""
    ps = tuple(float(p) for p in ps)
    if not ps or any(p <= 0 for p in ps):
        raise ValueError("moment orders must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    ranges = batch_ranges(n_samples, MOMENT_BATCH_SIZE)
    results = run_batches(
        _moment_batch,
        [(spec, grid, seed, start, count, u0, ps, False) for start, count in ranges],
        workers=workers,
    )
    batch_node_sums = np.stack([r[0] for r in results])  # (nb, P, N+1)
    batch_node_count = np.stack([r[1] for r in results])  # (nb, N+1)
    sup_sums = np.sum([r[2] for r in results], axis=0)
    integral_sums = np.sum([r[3] for r in results], axis=0)
    blow_total = sum(r[4] for r in results)

    node_sums = batch_node_sums.sum(axis=0)
    node_count = batch_node_count.sum(axis=0)

    n_batches = len(ranges)
    rng = _bootstrap_rng(seed, _BOOTSTRAP_TAG)
    draws = rng.integers(0, n_batches, size=(BOOTSTRAP_RESAMPLES, n_batches))

    reports = []
    for i, p in enumerate(ps):
        stat = _sup_of_mean(node_sums[i], node_count)
        resampled = np.empty(BOOTSTRAP_RESAMPLES, dtype=np.float64)
        for b in range(BOOTSTRAP_RESAMPLES):
            take = draws[b]
            resampled[b] = _sup_of_mean(
                batch_node_sums[take, i].sum(axis=0),
                batch_node_count[take].sum(axis=0),
            )
        with np.errstate(invalid="ignore"):  # inf moments: the half-width is NaN
            lo, hi = np.percentile(resampled, [2.5, 97.5])
        reports.append(
            MomentReport(
                p=p,
                sup_of_mean=stat,
                mean_of_sup=float(sup_sums[i] / n_samples),
                integral_term=float(integral_sums[i] / n_samples),
                blowup_fraction=blow_total / n_samples,
                n_samples=n_samples,
                sup_of_mean_ci=float((hi - lo) / 2.0),
            )
        )
    return reports


def estimate_moments(
    spec: SchemeSpec,
    grid: TimeGrid,
    p: float,
    n_samples: int,
    seed: int,
    u0: float = 1.0,
    workers: int = 1,
) -> MomentReport:
    """Single-order MomentReport; see moment_table for the field definitions."""
    return moment_table(spec, grid, (p,), n_samples, seed, u0=u0, workers=workers)[0]


def node_second_moments(
    spec: SchemeSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    u0: float = 1.0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node mean of value^2 with 95% batch-bootstrap half-widths."""
    ranges = batch_ranges(n_samples, MOMENT_BATCH_SIZE)
    results = run_batches(
        _moment_batch,
        [(spec, grid, seed, start, count, u0, (2.0,), False) for start, count in ranges],
        workers=workers,
    )
    batch_sums = np.stack([r[0][0] for r in results])  # (nb, N+1)
    batch_counts = np.stack([r[1] for r in results])
    sums = batch_sums.sum(axis=0)
    counts = batch_counts.sum(axis=0)
    if np.any(counts == 0):
        raise ValueError("every node needs at least one alive sample")
    means = sums / counts

    n_batches = len(ranges)
    rng = _bootstrap_rng(seed, _BOOTSTRAP_TAG + 1)
    draws = rng.integers(0, n_batches, size=(BOOTSTRAP_RESAMPLES, n_batches))
    resampled = np.empty((BOOTSTRAP_RESAMPLES, means.shape[0]), dtype=np.float64)
    for b in range(BOOTSTRAP_RESAMPLES):
        take = draws[b]
        resampled[b] = batch_sums[take].sum(axis=0) / batch_counts[take].sum(axis=0)
    lo, hi = np.percentile(resampled, [2.5, 97.5], axis=0)
    return means, (hi - lo) / 2.0


def second_moment_recursion_check(h: float, u: float, n_nodes: int = 64) -> float:
    """|Gauss-Hermite E[step^2] - u^2/(1+h u^2)| for the weak-tamed step."""
    h = float(h)
    u = float(u)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    if not np.isfinite(u):
        raise ValueError("u must be finite")
    if u == 0.0:
        return 0.0
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    z = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    stepped = np.array([step(WEAK_TAMED_ENKF, u, h, float(np.sqrt(h) * zi)) for zi in z])
    quadrature = float(np.sum(w * stepped**2))
    closed = u * u / (1.0 + h * u * u)
    return abs(quadrature - closed)


def em_blowup_profile(
    h_list,
    u0: float,
    n_samples: int,
    seed: int,
    horizon: float = 1.0,
    workers: int = 1,
) -> list[tuple[float, float, float]]:
    """Naive-EM endpoint statistics per step size.

    Each requested h is realized as the grid with round(horizon/h) steps; rows
    are (realized h, median |endpoint|, fraction of |endpoint| > 1e10).
    Saturated endpoints enter at the sentinel value.
    """
    if not np.isfinite(u0):
        raise ValueError("u0 must be finite")
    rows = []
    for h_req in h_list:
        h_req = float(h_req)
        if not np.isfinite(h_req) or h_req <= 0.0:
            raise ValueError(f"step sizes must be finite and positive, got {h_req!r}")
        n_steps = max(1, round(horizon / h_req))
        grid = TimeGrid(horizon, 0, n_steps)
        ranges = batch_ranges(n_samples, MOMENT_BATCH_SIZE)
        results = run_batches(
            _moment_batch,
            [
                (NAIVE_EM, grid, seed, start, count, u0, (2.0,), True)
                for start, count in ranges
            ],
            workers=workers,
        )
        endpoints = np.concatenate([r[5] for r in results])
        rows.append(
            (
                grid.h,
                float(np.median(endpoints)),
                float(np.mean(endpoints > 1e10)),
            )
        )
    return rows
