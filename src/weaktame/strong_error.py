"""Coupled-path Monte Carlo for the two strong-error functionals.

One finest-level path per sample drives everything: the weak-tamed reference
trajectory on the reference grid, and each coarse-level run of the scheme
under study on block-summed increments. The coarse runs are carried back to
the reference grid by the frozen-coefficient interpolant, so errors compare
like-for-like at every reference node.

Functionals per level (e = interpolant - reference):
    eta_error   = (mean_samples max_nodes |e|^eta)^(1/eta)
    alpha_error = (max_nodes mean_samples |e|^alpha)^(1/alpha)

The reference is certified by running one level coarser and demanding that
its error stays below a tenth of the smallest measured error; failure warns
and is recorded, it does not abort the run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._batching import batch_ranges, bootstrap_rng, run_batches
from .brownian import TimeGrid, coarsen_increments, increment_block
from .schemes import (
    SATURATION_LIMIT,
    SchemeSpec,
    WEAK_TAMED_ENKF,
    integrate_increments,
    interpolant_increments,
)

__all__ = [
    "ErrorStats",
    "RateFit",
    "ReferenceCheck",
    "StrongErrorResult",
    "estimate_strong_error",
    "fit_rate",
]

ERROR_BATCH_SIZE = 256  # rows per merge unit
REFERENCE_EXTRA_LEVELS = 4
BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0x10C4
# Reference steps per time window, rounded down to whole coarsest cells: a
# (512, 1024) float64 block is 4 MiB. On a 2-CPU Xeon, 1024 timed 5-8 % faster
# than 2048 for 512- and 1024-row tasks.
_CHUNK_NODES = 1024
# Merge units per worker call. Wider calls spread the step loop's per-step
# Python cost over more rows; four keep a window's arrays small.
_MAX_TASK_UNITS = 4


@dataclass(frozen=True)
class ErrorStats:
    """Strong-error functionals at one level. ci_halfwidth is the 95%
    bootstrap half-width of log2(eta_error)."""

    level: int
    h: float
    eta: float
    alpha: float
    eta_error: float
    alpha_error: float
    ci_halfwidth: float
    n_samples: int
    blowup_count: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    theoretical_exponent: float


@dataclass(frozen=True)
class ReferenceCheck:
    """Self-consistency of the reference: error of the one-level-coarser
    weak-tamed run against the reference, compared to a tenth of the smallest
    measured error."""

    level: int
    eta_error: float
    alpha_error: float
    eta_threshold: float
    alpha_threshold: float
    passed: bool


@dataclass(frozen=True)
class StrongErrorResult:
    """Per-level ErrorStats plus the reference certification outcome;
    iterating it yields the ErrorStats."""

    stats: tuple[ErrorStats, ...]
    reference_check: ReferenceCheck | None

    def __iter__(self):
        return iter(self.stats)


def _error_task(
    work: tuple[tuple[int, SchemeSpec], ...],
    ref_grid: TimeGrid,
    eta: float,
    alpha: float,
    u0: float,
    seed: int,
    units: tuple[tuple[int, int], ...],
):
    """Error accumulation for contiguous merge units, streamed over time.

    ``work`` lists (level, scheme) pairs coarsest first, none finer than the
    reference. The task walks the reference grid in windows of whole coarsest
    cells (about _CHUNK_NODES reference steps). Per window it draws the
    window's increments and integrates the reference and every entry on from
    the row states the last window ended in. Then, one merge unit at a time,
    it interpolates each entry into one (unit rows, window + 1) buffer
    allocated once per task, and folds the unit's |interp - ref| into running
    row maxima, the unit's node sums and saturation flags while the block is
    still in cache. So nothing as wide as the reference grid is held but the
    node sums.

    Returns (sup_powers (len(work), rows), node_power_sums (units, len(work),
    Nref+1), blowups (units, len(work))), bitwise the same as reducing each
    unit alone at full width: the schemes, coarsening and interpolant act
    within a step or cell, max is exact, and a unit's column sums add its rows
    in the same order in any block at least two columns wide. A reference
    blow-up raises ValueError: only inputs that overflow float64 cause one.
    """
    first_row = units[0][0]
    n_rows = sum(count for _, count in units)
    bounds = [(start - first_row, start - first_row + count) for start, count in units]
    n_ref, h_ref = ref_grid.n_steps, ref_grid.h
    coarsest = 1 << (ref_grid.level - work[0][0])
    # n_ref is whole coarsest cells too, so the clamp only sizes the buffer.
    window = min(max(coarsest, (_CHUNK_NODES // coarsest) * coarsest), n_ref)

    ref_state = np.full(n_rows, np.float64(u0))
    states = np.full((len(work), n_rows), np.float64(u0))
    dead = np.zeros((len(work), n_rows), dtype=bool)
    saturated = np.zeros((len(work), n_rows), dtype=bool)
    sup_err = np.zeros((len(work), n_rows))
    node_power_sums = np.empty((len(units), len(work), n_ref + 1))
    unit_buffer = np.empty((max(count for _, count in units), window + 1))

    for n0 in range(0, n_ref, window):
        n1 = min(n0 + window, n_ref)
        fine = increment_block(
            seed, first_row, n_rows, ref_grid, first_step=n0, steps=n1 - n0
        )
        ref_values, ref_blow = integrate_increments(WEAK_TAMED_ENKF, h_ref, fine, ref_state)
        if (ref_blow >= 0).any():
            # A weak-tamed step moves |u| up by at most noise of order
            # 1/sqrt(h), so the reference leaves the range only from inputs
            # at float64's limits: h * u^2 overflows (the gain times h * u is
            # then 0 * inf = NaN), or |u0| starts above SATURATION_LIMIT.
            raise ValueError(
                f"inputs overflow float64: the weak-tamed reference at "
                f"h = {h_ref:g} left the range |u| <= {SATURATION_LIMIT:g}"
            )
        ref_state = ref_values[:, -1]
        # The window's last node is the next window's first; keep it once.
        stop = n1 + 1 - n0 if n1 == n_ref else n1 - n0
        # Finest entry first, each coarsened from the one just above it; the
        # pairwise halving in coarsen_increments makes that bitwise the same
        # as coarsening the reference increments directly.
        coarse_inc, coarse_level = fine, ref_grid.level
        for idx, (level, run_spec) in reversed(list(enumerate(work))):
            coarse_inc = coarsen_increments(coarse_inc, 1 << (coarse_level - level))
            coarse_level = level
            h_coarse = h_ref * (1 << (ref_grid.level - level))
            coarse_values, coarse_blow = integrate_increments(
                run_spec, h_coarse, coarse_inc, states[idx]
            )
            # A row that saturated in an earlier window stays frozen there.
            frozen = dead[idx]
            if frozen.any():
                coarse_values[frozen] = states[idx][frozen, None]
            frozen |= coarse_blow >= 0
            states[idx] = coarse_values[:, -1]
            # One merge unit at a time, so its block is still in cache from
            # the interpolant through the unit's column sums.
            for sums, (r0, r1) in zip(node_power_sums, bounds):
                interp, sat = interpolant_increments(
                    run_spec, coarse_values[r0:r1], h_coarse, fine[r0:r1], h_ref,
                    out=unit_buffer[: r1 - r0, : n1 - n0 + 1],
                )
                saturated[idx, r0:r1] |= sat
                err = interp[:, :stop]
                np.subtract(err, ref_values[r0:r1, :stop], out=err)
                np.abs(err, out=err)
                row_sup = sup_err[idx, r0:r1]
                np.maximum(row_sup, err.max(axis=1), out=row_sup)
                if alpha != 1.0:
                    err **= alpha
                sums[idx, n0 : n0 + stop] = err.sum(axis=0)

    blowups = np.array([(dead | saturated)[:, r0:r1].sum(axis=1) for r0, r1 in bounds])
    return sup_err**eta, node_power_sums, blowups


def _task_units(
    units: list[tuple[int, int]], workers: int
) -> list[tuple[tuple[int, int], ...]]:
    """Consecutive merge units grouped into tasks of equal size, the last
    possibly shorter: enough units per task to give every worker one task,
    at most _MAX_TASK_UNITS. Only the split depends on ``workers``; each
    unit's result does not."""
    size = min(_MAX_TASK_UNITS, -(-len(units) // max(1, workers)))
    return [tuple(units[i : i + size]) for i in range(0, len(units), size)]


def _merge_tasks(task_results: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's sup powers (len(work), M), the node sums (len(work),
    Nref+1) and blow-up counts (len(work),) from _error_task results in unit
    order. The node sums fold unit by unit into one running sum: bitwise the
    sum over a concatenation of every unit, which adds the outer axis in
    order, without that copy. So tasks must not pre-sum their own units."""
    sup_powers = np.concatenate([task[0] for task in task_results], axis=1)
    unit_sums = (sums for task in task_results for sums in task[1])
    node_power_sums = next(unit_sums).copy()
    for sums in unit_sums:
        node_power_sums += sums
    blowups = np.concatenate([task[2] for task in task_results]).sum(axis=0)
    return sup_powers, node_power_sums, blowups


def _bootstrap_ci_log2(values: np.ndarray, eta: float, seed: int, tag: int) -> float:
    """Half-width of the 95% bootstrap interval of log2((mean v)^{1/eta})."""
    if values.size == 0 or float(values.mean()) == 0.0:
        return 0.0
    rng = bootstrap_rng(seed, tag)
    draws = rng.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))
    means = values[draws].mean(axis=1)
    means = np.maximum(means, np.finfo(np.float64).tiny)
    logs = np.log2(means) / eta
    lo, hi = np.percentile(logs, [2.5, 97.5])
    return float((hi - lo) / 2.0)


def estimate_strong_error(
    spec: SchemeSpec,
    levels,
    eta: float = 0.5,
    alpha: float = 1.0,
    n_samples: int = 10_000,
    seed: int = 0,
    u0: float = 1.0,
    horizon: float = 1.0,
    workers: int = 1,
    check_reference: bool = True,
) -> StrongErrorResult:
    """Strong-error functionals of ``spec`` at each level against the shared
    weak-tamed reference at max(levels) + REFERENCE_EXTRA_LEVELS.

    The work list is the sorted levels under ``spec``, then, with
    ``check_reference``, the weak-tamed certification run one level below the
    reference. Samples are reduced in merge units of ERROR_BATCH_SIZE rows,
    and each worker call takes a task of consecutive units (see _task_units).
    Results are deterministic for fixed (seed, n_samples, levels) and
    independent of the worker count, which sets only how units are grouped
    into tasks.
    """
    levels = tuple(int(lvl) for lvl in levels)
    if not levels:
        raise ValueError("need at least one level")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if min(levels) < 0:
        raise ValueError("levels must be nonnegative")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"need 0 < alpha < 2, got {alpha}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")

    ref_level = max(levels) + REFERENCE_EXTRA_LEVELS
    ref_grid = TimeGrid(horizon, ref_level)
    work = tuple((level, spec) for level in sorted(levels))
    if check_reference:
        work += ((ref_level - 1, WEAK_TAMED_ENKF),)

    tasks = _task_units(batch_ranges(n_samples, ERROR_BATCH_SIZE), workers)
    task_results = run_batches(
        _error_task,
        [(work, ref_grid, eta, alpha, u0, seed, units) for units in tasks],
        workers=workers,
    )
    sup_powers, node_power_sums, blowups = _merge_tasks(task_results)
    eta_errors = [float(np.mean(row)) ** (1.0 / eta) for row in sup_powers]
    alpha_errors = [
        float(np.max(row) / n_samples) ** (1.0 / alpha) for row in node_power_sums
    ]

    stats = tuple(
        ErrorStats(
            level=level,
            h=horizon / (1 << level),
            eta=eta,
            alpha=alpha,
            eta_error=eta_errors[idx],
            alpha_error=alpha_errors[idx],
            ci_halfwidth=_bootstrap_ci_log2(
                sup_powers[idx], eta, seed, _BOOTSTRAP_TAG + level
            ),
            n_samples=n_samples,
            blowup_count=int(blowups[idx]),
        )
        for idx, (level, _) in enumerate(work[: len(levels)])
    )
    if not check_reference:
        return StrongErrorResult(stats, None)

    eta_floor = min(s.eta_error for s in stats)
    alpha_floor = min(s.alpha_error for s in stats)
    eta_threshold = eta_floor / 10.0
    alpha_threshold = alpha_floor / 10.0
    check = ReferenceCheck(
        level=ref_level - 1,
        eta_error=eta_errors[-1],
        alpha_error=alpha_errors[-1],
        eta_threshold=eta_threshold,
        alpha_threshold=alpha_threshold,
        passed=eta_errors[-1] <= eta_threshold and alpha_errors[-1] <= alpha_threshold,
    )
    if not check.passed:
        warnings.warn(
            "reference self-consistency check failed: one-level-coarser "
            f"errors ({check.eta_error:.3e}, {check.alpha_error:.3e}) exceed a "
            f"tenth of the smallest measured errors ({eta_floor:.3e}, "
            f"{alpha_floor:.3e}); treat absolute error values with care",
            stacklevel=2,
        )
    return StrongErrorResult(stats, check)


def fit_rate(stats, which: str, theoretical: float) -> RateFit:
    """Least-squares line through (log2 h, log2 error).

    ``which`` selects the functional: "uniform" fits eta_error, "pointwise"
    fits alpha_error. Zero errors are excluded; fewer than 4 surviving levels
    is an error, and otherwise the exclusion is warned about.
    """
    if which not in ("uniform", "pointwise"):
        raise ValueError(f'which must be "uniform" or "pointwise", got {which!r}')
    pairs = [
        (s.h, s.eta_error if which == "uniform" else s.alpha_error) for s in stats
    ]
    kept = [(h, e) for h, e in pairs if e > 0.0]
    # Too few levels is an error on its own; a warning before it would only
    # add lines to the one-line error.
    if len(kept) < 4:
        raise ValueError(f"need at least 4 positive-error levels, have {len(kept)}")
    dropped = len(pairs) - len(kept)
    if dropped:
        warnings.warn(
            f"excluded {dropped} level(s) with zero error from the rate fit",
            stacklevel=2,
        )
    log_h = np.log2([h for h, _ in kept])
    log_e = np.log2([e for _, e in kept])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    fitted = slope * log_h + intercept
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        theoretical_exponent=float(theoretical),
    )
