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
from numpy.random import Philox

from ._batching import batch_ranges, run_batches
from .brownian import TimeGrid, coarsen_increments, increment_block
from .schemes import (
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


class StrongErrorResult:
    """Per-level ErrorStats plus the reference certification outcome."""

    def __init__(self, stats, reference_check: ReferenceCheck | None):
        self.stats = tuple(stats)
        self.reference_check = reference_check

    def __len__(self) -> int:
        return len(self.stats)

    def __iter__(self):
        return iter(self.stats)

    def __getitem__(self, index):
        return self.stats[index]

    def __repr__(self) -> str:
        return f"StrongErrorResult({self.stats!r}, reference_check={self.reference_check!r})"


def _error_task(
    spec: SchemeSpec,
    levels: tuple[int, ...],
    ref_grid: TimeGrid,
    eta: float,
    alpha: float,
    u0: float,
    seed: int,
    units: tuple[tuple[int, int], ...],
    with_reference_check: bool,
):
    """Error accumulation for contiguous merge units, streamed over time.

    The task walks the reference grid in windows of whole coarsest cells
    (about _CHUNK_NODES reference steps). Per window it draws the window's
    increments, integrates the reference and every level on from the row
    states the last window ended in, and folds each level's |interp - ref|
    into running row maxima, per-unit node sums and saturation flags. So
    nothing as wide as the reference grid is held but the node sums.

    Returns, per unit and for each requested level plus (optionally) the
    certification level, (sup_powers (count,), node_power_sums (Nref+1,),
    blowups), bitwise the same as reducing the unit alone at full width: the
    schemes, coarsening and interpolant act within a step or cell, max is
    exact, and a unit's column sums add its rows in the same order in any
    block at least two columns wide. A reference blow-up is a hard failure
    by contract.
    """
    work: list[tuple[int, SchemeSpec]] = [(lvl, spec) for lvl in levels]
    if with_reference_check:
        work.append((ref_grid.level - 1, WEAK_TAMED_ENKF))
    # Finest level first, each coarsened from the one just above it; the
    # pairwise halving in coarsen_increments makes that bitwise the same as
    # coarsening the reference increments directly.
    order = sorted(range(len(work)), key=lambda i: -work[i][0])
    factors = [1 << (ref_grid.level - level) for level, _ in work]

    first_row = units[0][0]
    n_rows = sum(count for _, count in units)
    bounds = [(start - first_row, start - first_row + count) for start, count in units]
    n_ref, h_ref = ref_grid.n_steps, ref_grid.h
    coarsest = max(factors)
    window = max(coarsest, (_CHUNK_NODES // coarsest) * coarsest)

    ref_state = np.full(n_rows, np.float64(u0))
    states = [ref_state.copy() for _ in work]
    dead = [np.zeros(n_rows, dtype=bool) for _ in work]
    saturated = [np.zeros(n_rows, dtype=bool) for _ in work]
    sup_err = [np.zeros(n_rows) for _ in work]
    node_power_sums = [[np.empty(n_ref + 1) for _ in work] for _ in units]

    for n0 in range(0, n_ref, window):
        n1 = min(n0 + window, n_ref)
        fine = increment_block(
            seed, first_row, n_rows, ref_grid, first_step=n0, steps=n1 - n0
        )
        ref_values, ref_blow = integrate_increments(WEAK_TAMED_ENKF, h_ref, fine, ref_state)
        if (ref_blow >= 0).any():
            raise RuntimeError(
                "reference trajectory blew up; the weak-tamed reference is "
                "supposed to make this impossible"
            )
        ref_state = ref_values[:, -1]
        # The window's last node is the next window's first; keep it once.
        stop = n1 + 1 - n0 if n1 == n_ref else n1 - n0
        coarse_inc, coarse_factor = fine, 1
        for idx in order:
            run_spec, factor = work[idx][1], factors[idx]
            if factor != coarse_factor:
                coarse_inc = coarsen_increments(coarse_inc, factor // coarse_factor)
                coarse_factor = factor
            h_coarse = h_ref * factor
            coarse_values, coarse_blow = integrate_increments(
                run_spec, h_coarse, coarse_inc, states[idx]
            )
            # A row that saturated in an earlier window stays frozen there.
            frozen = dead[idx]
            if frozen.any():
                coarse_values[frozen] = states[idx][frozen, None]
            frozen |= coarse_blow >= 0
            states[idx] = coarse_values[:, -1]
            interp, sat = interpolant_increments(
                run_spec, coarse_values, h_coarse, fine, h_ref
            )
            saturated[idx] |= sat
            err = interp[:, :stop]
            np.subtract(err, ref_values[:, :stop], out=err)
            np.abs(err, out=err)
            np.maximum(sup_err[idx], err.max(axis=1), out=sup_err[idx])
            if alpha != 1.0:
                err **= alpha
            for sums, (r0, r1) in zip(node_power_sums, bounds):
                sums[idx][n0 : n0 + stop] = err[r0:r1].sum(axis=0)

    out = []
    for sums, (r0, r1) in zip(node_power_sums, bounds):
        unit = []
        for idx in range(len(work)):
            sup = sup_err[idx][r0:r1]
            sup_powers = np.sqrt(sup) if eta == 0.5 else sup**eta
            blowups = int((dead[idx][r0:r1] | saturated[idx][r0:r1]).sum())
            unit.append((sup_powers, sums[idx], blowups))
        out.append(unit)
    return out


def _task_units(
    units: list[tuple[int, int]], workers: int
) -> list[tuple[tuple[int, int], ...]]:
    """Consecutive merge units grouped into tasks of equal size, the last
    possibly shorter: enough units per task to give every worker one task,
    at most _MAX_TASK_UNITS. Only the split depends on ``workers``; each
    unit's result does not."""
    size = min(_MAX_TASK_UNITS, -(-len(units) // max(1, workers)))
    return [tuple(units[i : i + size]) for i in range(0, len(units), size)]


def _bootstrap_ci_log2(values: np.ndarray, eta: float, seed: int, tag: int) -> float:
    """Half-width of the 95% bootstrap interval of log2((mean v)^{1/eta})."""
    if values.size == 0 or float(values.mean()) == 0.0:
        return 0.0
    key = np.array([int(seed) & (2**64 - 1), tag], dtype=np.uint64)
    rng = np.random.Generator(Philox(key=key))
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
    reference_extra_levels: int = REFERENCE_EXTRA_LEVELS,
    check_reference: bool = True,
) -> StrongErrorResult:
    """Strong-error functionals of ``spec`` at each level against the shared
    weak-tamed reference at max(levels) + reference_extra_levels.

    Samples are reduced in merge units of ERROR_BATCH_SIZE rows, and each
    worker call takes a task of consecutive units (see _task_units). Results
    are deterministic for fixed (seed, n_samples, levels) and independent of
    the worker count, which sets only how units are grouped into tasks.
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
    if reference_extra_levels < 0:
        raise ValueError("reference_extra_levels must be nonnegative")

    ref_level = max(levels) + reference_extra_levels
    ref_grid = TimeGrid(horizon, ref_level)
    with_check = bool(check_reference) and ref_level >= 1
    sorted_levels = tuple(sorted(levels))

    tasks = _task_units(batch_ranges(n_samples, ERROR_BATCH_SIZE), workers)
    task_results = run_batches(
        _error_task,
        [
            (spec, sorted_levels, ref_grid, eta, alpha, u0, seed, units, with_check)
            for units in tasks
        ],
        workers=workers,
    )
    results = [unit for task in task_results for unit in task]

    n_work = len(sorted_levels) + (1 if with_check else 0)
    stats: list[ErrorStats] = []
    check_stats: tuple[float, float] | None = None
    for idx in range(n_work):
        sup_powers = np.concatenate([batch[idx][0] for batch in results])
        node_power_sums = np.sum([batch[idx][1] for batch in results], axis=0)
        blowups = sum(batch[idx][2] for batch in results)
        eta_error = float(np.mean(sup_powers)) ** (1.0 / eta)
        alpha_error = float(np.max(node_power_sums) / n_samples) ** (1.0 / alpha)
        if idx < len(sorted_levels):
            level = sorted_levels[idx]
            ci = _bootstrap_ci_log2(sup_powers, eta, seed, _BOOTSTRAP_TAG + level)
            stats.append(
                ErrorStats(
                    level=level,
                    h=horizon / (1 << level),
                    eta=eta,
                    alpha=alpha,
                    eta_error=eta_error,
                    alpha_error=alpha_error,
                    ci_halfwidth=ci,
                    n_samples=n_samples,
                    blowup_count=blowups,
                )
            )
        else:
            check_stats = (eta_error, alpha_error)

    reference_check = None
    if check_stats is not None:
        eta_floor = min(s.eta_error for s in stats)
        alpha_floor = min(s.alpha_error for s in stats)
        eta_threshold = eta_floor / 10.0
        alpha_threshold = alpha_floor / 10.0
        passed = (
            check_stats[0] <= eta_threshold and check_stats[1] <= alpha_threshold
        )
        reference_check = ReferenceCheck(
            level=ref_level - 1,
            eta_error=check_stats[0],
            alpha_error=check_stats[1],
            eta_threshold=eta_threshold,
            alpha_threshold=alpha_threshold,
            passed=passed,
        )
        if not passed:
            warnings.warn(
                "reference self-consistency check failed: one-level-coarser "
                f"errors ({check_stats[0]:.3e}, {check_stats[1]:.3e}) exceed a "
                f"tenth of the smallest measured errors ({eta_floor:.3e}, "
                f"{alpha_floor:.3e}); treat absolute error values with care",
                stacklevel=2,
            )
    return StrongErrorResult(stats, reference_check)


def fit_rate(stats, which: str, theoretical: float) -> RateFit:
    """Least-squares line through (log2 h, log2 error).

    ``which`` selects the functional: "uniform" fits eta_error, "pointwise"
    fits alpha_error. Zero errors are excluded with a warning; fewer than 4
    surviving levels is an error.
    """
    if which not in ("uniform", "pointwise"):
        raise ValueError(f'which must be "uniform" or "pointwise", got {which!r}')
    pairs = [
        (s.h, s.eta_error if which == "uniform" else s.alpha_error) for s in stats
    ]
    kept = [(h, e) for h, e in pairs if e > 0.0]
    dropped = len(pairs) - len(kept)
    if dropped:
        warnings.warn(
            f"excluded {dropped} level(s) with zero error from the rate fit",
            stacklevel=2,
        )
    if len(kept) < 4:
        raise ValueError(f"need at least 4 positive-error levels, have {len(kept)}")
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
