"""A-priori moment estimation and the explicit-Euler divergence profile.

Monte Carlo estimates run over batches of coupled-free independent paths;
batches are fixed-size contiguous sample ranges so aggregates are worker-count
independent (see _batching). moment_table runs every grid of a table from
one pass over the batches. Saturated nodes are excluded from moment sums,
blown-up paths are counted, and the raw p-th powers are reported without
1/p normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batching import batch_ranges, bootstrap, half_width, run_batches
from .brownian import TimeGrid, increment_block
from .schemes import (
    NAIVE_EM,
    WEAK_TAMED_ENKF,
    SchemeSpec,
    _integrate_blocks,
    integrate_increments,
)

__all__ = [
    "MomentReport",
    "moment_table",
    "node_second_moments",
    "second_moment_recursion_check",
    "em_blowup_profile",
]

MOMENT_BATCH_SIZE = 512
_BOOTSTRAP_TAG = 0xB007
_HERMITE_NODES = 64  # Gauss-Hermite nodes of the second-moment recursion check


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


def _moment_batch(h: float, values: np.ndarray, blow: np.ndarray, ps: tuple[float, ...]):
    """Pure per-batch accumulation of one grid's integrated rows (``values``
    is overwritten); everything downstream is an ordered merge.

    Each blown row is zeroed from its blow-up node on: |0|^p and the
    integral term at 0 are exactly the 0.0 that saturated nodes contribute.
    Node k counts the rows not blown up at or before k.
    """
    n_rows, n_nodes = values.shape
    blown = np.flatnonzero(blow >= 0)
    for row in blown:
        values[row, blow[row] :] = 0.0
    node_count = n_rows - np.cumsum(np.bincount(blow[blown], minlength=n_nodes))
    absv = np.abs(values, out=values)
    damping = absv * absv  # 1 + h*|v|^2, formed in place
    damping *= h
    damping += 1.0

    node_sums = np.empty((len(ps), n_nodes), dtype=np.float64)
    sup_sums = np.empty(len(ps), dtype=np.float64)
    integral_sums = np.empty(len(ps), dtype=np.float64)
    path_sup = absv.max(axis=1)
    work = np.empty_like(absv)  # one (rows, nodes) scratch array for every p
    with np.errstate(all="ignore"):
        for i, p in enumerate(ps):
            node_sums[i] = np.power(absv, p, out=work).sum(axis=0)
            sup_sums[i] = float(np.sum(path_sup**p))
            # stable form of |v|^(p+2) / (1+h v^2)^2, overflow-free for
            # |v| up to the saturation sentinel
            np.power(damping, 2.0 / (p + 2.0), out=work)
            np.divide(absv, work, out=work)
            integral_sums[i] = float(h * np.power(work, p + 2.0, out=work).sum())
    return node_sums, node_count, sup_sums, integral_sums, len(blown)


def _endpoint_batch(h: float, values: np.ndarray, blow: np.ndarray) -> np.ndarray:
    """|endpoint| of every row; saturated rows end at the sentinel."""
    return np.abs(values[:, -1])


def _every_grid_batch(
    batch, spec: SchemeSpec, grids, seed: int, start: int, count: int, u0: float, *extra
) -> list:
    """``batch(grid.h, values, blow, *extra)`` of one sample range on every
    grid, ``grids`` ordered by step count.

    Row i of a grid's increments is sqrt(h) times the first n_steps words of
    stream (seed, start + i), so every grid's increments are a prefix of the
    last grid's, scaled: the range is drawn once, unscaled, at the last grid,
    and one _integrate_blocks call steps every grid from its unscaled prefix
    and its sqrt(h), scaled as the step loop copies it in. The draw is then
    dropped and the grids reduced shortest first, each grid's values dropped
    once reduced, so the longest grid is reduced alone.
    """
    unscaled = increment_block(seed, start, count, grids[-1], scaled=False)
    paths = _integrate_blocks(
        spec, [(g.h, unscaled[:, : g.n_steps], u0, np.sqrt(g.h)) for g in grids]
    )
    del unscaled
    return [batch(grid.h, *paths.pop(0), *extra) for grid in grids]


def _batch_half_width(
    batch_sums: np.ndarray, batch_counts: np.ndarray, seed: int, tag: int, statistic
) -> np.ndarray:
    """95% batch-bootstrap half-width of ``statistic(sums, counts)``; each
    resample sums the batches it draws, in draw order."""

    def resample(take):
        return statistic(batch_sums[take].sum(axis=1), batch_counts[take].sum(axis=1))

    return half_width(bootstrap(len(batch_counts), seed, tag, resample))


def _sup_of_mean(node_sums: np.ndarray, node_count: np.ndarray) -> np.ndarray:
    """Max over covered nodes (last axis) of the per-node means.

    ``node_sums`` carries the moment orders on its second-to-last axis.
    """
    covered = (node_count > 0)[..., None, :]
    means = np.full(np.broadcast_shapes(node_sums.shape, covered.shape), -np.inf)
    np.divide(node_sums, node_count[..., None, :], out=means, where=covered)
    return means.max(axis=-1)


def _grid_batches(
    batch,
    spec: SchemeSpec,
    grids,
    n_samples: int,
    seed: int,
    u0: float,
    workers: int,
    *extra,
) -> list[list]:
    """Per-grid results of ``batch(grid.h, values, blow, *extra)`` on the
    grid's integrated rows, in batch order, from one run_batches call.

    There is one call per sample batch, and it runs every distinct grid from
    one draw at the longest grid (_every_grid_batch). So all calls cost the
    same, and a run of one batch (n_samples <= MOMENT_BATCH_SIZE) is one call
    in one process.
    """
    grids = list(grids)
    if not grids:
        return []
    distinct = sorted(dict.fromkeys(grids), key=lambda g: g.n_steps)
    results = run_batches(
        _every_grid_batch,
        [
            (batch, spec, distinct, seed, start, count, u0, *extra)
            for start, count in batch_ranges(n_samples, MOMENT_BATCH_SIZE)
        ],
        workers=workers,
    )
    by_grid = {grid: [r[k] for r in results] for k, grid in enumerate(distinct)}
    return [by_grid[grid] for grid in grids]


def _merge_moments(results, ps, n_samples: int, seed: int) -> list[MomentReport]:
    batch_node_sums = np.stack([r[0] for r in results])  # (nb, P, N+1)
    batch_node_count = np.stack([r[1] for r in results])  # (nb, N+1)
    sup_sums = np.sum([r[2] for r in results], axis=0)
    integral_sums = np.sum([r[3] for r in results], axis=0)
    blow_total = sum(r[4] for r in results)

    stats = _sup_of_mean(batch_node_sums.sum(axis=0), batch_node_count.sum(axis=0))
    # inf moments give a NaN half-width
    ci = _batch_half_width(batch_node_sums, batch_node_count, seed, _BOOTSTRAP_TAG, _sup_of_mean)
    return [
        MomentReport(
            p=p,
            sup_of_mean=float(stats[i]),
            mean_of_sup=float(sup_sums[i] / n_samples),
            integral_term=float(integral_sums[i] / n_samples),
            blowup_fraction=blow_total / n_samples,
            n_samples=n_samples,
            sup_of_mean_ci=float(ci[i]),
        )
        for i, p in enumerate(ps)
    ]


def moment_table(
    spec: SchemeSpec,
    grids,
    ps,
    n_samples: int,
    seed: int,
    u0: float = 1.0,
    workers: int = 1,
) -> list[list[MomentReport]]:
    """MomentReports for several orders p on every grid, in ``grids`` order,
    from one batch pass.

    One run_batches call (this process and one pool) gets one call per
    sample batch, which draws the batch once at the longest grid and runs
    every grid from that draw; each grid's reports equal those of a one-grid
    call.
    """
    ps = tuple(float(p) for p in ps)
    if not ps or not all(np.isfinite(p) and p > 0 for p in ps):
        raise ValueError("moment orders must be finite and positive")
    per_grid = _grid_batches(_moment_batch, spec, grids, n_samples, seed, u0, workers, ps)
    return [_merge_moments(results, ps, n_samples, seed) for results in per_grid]


def node_second_moments(
    spec: SchemeSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    u0: float = 1.0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node mean of value^2 with 95% batch-bootstrap half-widths."""
    (results,) = _grid_batches(_moment_batch, spec, (grid,), n_samples, seed, u0, workers, (2.0,))
    batch_sums = np.stack([r[0][0] for r in results])  # (nb, N+1)
    batch_counts = np.stack([r[1] for r in results])
    sums = batch_sums.sum(axis=0)
    counts = batch_counts.sum(axis=0)
    if np.any(counts == 0):
        raise ValueError("every node needs at least one alive sample")
    means = sums / counts
    return means, _batch_half_width(batch_sums, batch_counts, seed, _BOOTSTRAP_TAG + 1, np.divide)


def second_moment_recursion_check(h: float, u: float) -> float:
    """|Gauss-Hermite E[step^2] - u^2/(1+h u^2)| for the weak-tamed step."""
    h = float(h)
    u = float(u)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    nodes, weights = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    z = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    # one step from u for every node: a (_HERMITE_NODES, 1) batch of increments
    values, _ = integrate_increments(WEAK_TAMED_ENKF, h, (np.sqrt(h) * z)[:, None], u)
    stepped = values[:, 1]
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
    grids = []
    for h_req in h_list:
        h_req = float(h_req)
        if not np.isfinite(h_req) or h_req <= 0.0:
            raise ValueError(f"step sizes must be finite and positive, got {h_req!r}")
        steps = horizon / h_req
        if not np.isfinite(steps):
            raise ValueError(f"horizon / h is not finite for T = {horizon!r}, h = {h_req!r}")
        grids.append(TimeGrid(horizon, 0, max(1, round(steps))))
    per_grid = _grid_batches(_endpoint_batch, NAIVE_EM, grids, n_samples, seed, u0, workers)
    rows = []
    for grid, results in zip(grids, per_grid):
        endpoints = np.concatenate(results)
        rows.append(
            (
                grid.h,
                float(np.median(endpoints)),
                float(np.mean(endpoints > 1e10)),
            )
        )
    return rows
