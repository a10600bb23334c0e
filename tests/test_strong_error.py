"""Strong-error estimation, reference certification, and rate fitting."""

import tracemalloc
import warnings

import numpy as np
import pytest

from weaktame import strong_error
from weaktame.brownian import TimeGrid, coarsen_increments, increment_block
from weaktame.schemes import (
    NAIVE_EM,
    WEAK_TAMED_ENKF,
    integrate_increments,
    interpolant_increments,
)
from weaktame.strong_error import ErrorStats, estimate_strong_error, fit_rate

LEVELS = (2, 3, 4, 5)


def small_run(**kw):
    kw.setdefault("check_reference", False)
    return estimate_strong_error(WEAK_TAMED_ENKF, LEVELS, n_samples=512, seed=3, **kw)


def test_small_run_shape_and_decay():
    res = small_run()
    assert len(res.stats) == len(LEVELS)
    assert res.reference_check is None
    for s, level in zip(res, LEVELS):
        assert s.level == level
        assert s.h == 2.0**-level
        assert s.eta == 0.5 and s.alpha == 1.0
        assert s.n_samples == 512
        assert s.blowup_count == 0
        assert s.eta_error > 0.0 and s.alpha_error > 0.0
        assert s.ci_halfwidth > 0.0
    for prev, cur in zip(res.stats, res.stats[1:]):
        assert cur.eta_error < prev.eta_error
        assert cur.alpha_error < prev.alpha_error


def test_determinism_and_level_order():
    a = small_run()
    b = small_run()
    assert a.stats == b.stats
    shuffled = estimate_strong_error(
        WEAK_TAMED_ENKF, (5, 3, 2, 4), n_samples=512, seed=3, check_reference=False
    )
    assert shuffled.stats == a.stats


def test_worker_count_invariant():
    assert small_run(workers=1).stats == small_run(workers=2).stats


def test_reference_certification_warns_on_short_stack():
    # 4 extra reference levels leave the certification error well above a
    # tenth of the finest measured error, so the check reports honestly
    with pytest.warns(UserWarning, match="reference self-consistency"):
        res = estimate_strong_error(
            WEAK_TAMED_ENKF, LEVELS, n_samples=512, seed=3
        )
    check = res.reference_check
    assert check is not None
    assert not check.passed
    assert check.level == max(LEVELS) + 4 - 1
    assert check.eta_threshold == min(s.eta_error for s in res) / 10.0
    assert check.alpha_threshold == min(s.alpha_error for s in res) / 10.0
    assert check.eta_error > check.eta_threshold


def reference_error_batch(work, ref_grid, eta, alpha, u0, seed, start, count):
    # The full-width engine: every level coarsened from the reference
    # increments, the interpolant and |error| built at full width.
    fine_increments = increment_block(seed, start, count, ref_grid)
    h_ref = ref_grid.h
    ref_values, _ = integrate_increments(WEAK_TAMED_ENKF, h_ref, fine_increments, u0)
    out = []
    for level, run_spec in work:
        factor = 1 << (ref_grid.level - level)
        if factor == 1:
            coarse_inc = fine_increments
        else:
            coarse_inc = coarsen_increments(fine_increments, factor)
        h_coarse = h_ref * factor
        coarse_values, coarse_blow = integrate_increments(
            run_spec, h_coarse, coarse_inc, u0
        )
        interp, interp_sat = interpolant_increments(
            run_spec, coarse_values, h_coarse, fine_increments, h_ref,
            out=np.empty((count, ref_grid.n_steps + 1)),
        )
        err = np.abs(interp - ref_values)
        sup_err = err.max(axis=1)
        if eta == 0.5:
            sup_powers = np.sqrt(sup_err)
        else:
            sup_powers = sup_err**eta
        if alpha == 1.0:
            node_power_sums = err.sum(axis=0)
        else:
            node_power_sums = (err**alpha).sum(axis=0)
        blowups = int(((coarse_blow >= 0) | interp_sat).sum())
        out.append((sup_powers, node_power_sums, blowups))
    return out


def certified_work(spec, levels, ref_grid):
    # the work list estimate_strong_error builds with check_reference
    return tuple((level, spec) for level in levels) + (
        (ref_grid.level - 1, WEAK_TAMED_ENKF),
    )


def assert_task_matches_reference(got, work, grid, eta, alpha, u0, units):
    # each unit's rows of the sup powers, its node sums and its blow-up
    # counts against that unit reduced alone at full width
    sup, sums, blowups = got
    assert sup.shape == (len(work), sum(count for _, count in units))
    assert sums.shape == (len(units), len(work), grid.n_steps + 1)
    assert blowups.shape == (len(units), len(work))
    r0 = 0
    for u, (start, count) in enumerate(units):
        want = reference_error_batch(work, grid, eta, alpha, u0, 1, start, count)
        for idx, (sup_ref, sums_ref, blow_ref) in enumerate(want):
            assert np.array_equal(sup[idx, r0 : r0 + count], sup_ref)
            assert np.array_equal(sums[u, idx], sums_ref)
            assert blowups[u, idx] == blow_ref
        r0 += count


@pytest.mark.parametrize("chunk_nodes", [2048, 96])
@pytest.mark.parametrize(
    "work, ref_level, eta, alpha, u0, start, count",
    [
        (certified_work(WEAK_TAMED_ENKF, (4, 5, 6, 7, 8), TimeGrid(1.0, 12)),
         12, 0.5, 1.0, 1.0, 0, 256),
        # blow-ups at levels 4..7, so saturated rows cross chunk boundaries
        (certified_work(NAIVE_EM, (4, 5, 6, 7, 8), TimeGrid(1.0, 12)),
         12, 0.5, 1.0, 3.0, 0, 256),
        (certified_work(WEAK_TAMED_ENKF, (4, 5, 6, 7, 8), TimeGrid(1.0, 12)),
         12, 0.25, 1.5, 1.0, 256, 100),
        # factor 1, and a check level that is also a requested level
        (tuple((level, WEAK_TAMED_ENKF) for level in (5, 6, 7, 7, 8)),
         8, 0.5, 1.0, 1.0, 0, 64),
    ],
    ids=["weak-tamed", "naive-em-blowups", "eta-alpha", "factor-one"],
)
def test_error_batch_matches_full_width_reference(
    monkeypatch, chunk_nodes, work, ref_level, eta, alpha, u0, start, count
):
    monkeypatch.setattr(strong_error, "_CHUNK_NODES", chunk_nodes)
    grid = TimeGrid(1.0, ref_level)
    units = ((start, count),)
    got = strong_error._error_task(work, grid, eta, alpha, u0, 1, units)
    assert_task_matches_reference(got, work, grid, eta, alpha, u0, units)
    if work[0][1] is NAIVE_EM:
        assert (got[2][0, :4] > 0).all()


@pytest.mark.parametrize(
    "chunk_nodes, window",
    # the window is whole coarsest cells (256 reference steps at level 4 of
    # a level-12 reference), never less than one
    [(strong_error._CHUNK_NODES, 1024), (2048, 2048), (600, 512), (96, 256)],
)
@pytest.mark.parametrize(
    "spec, u0, units",
    [
        (WEAK_TAMED_ENKF, 1.0, ((0, 256), (256, 256), (512, 100))),
        (NAIVE_EM, 3.0, ((256, 256), (512, 256))),
    ],
    ids=["weak-tamed-3-units", "naive-em-2-units"],
)
def test_streamed_task_matches_full_width_reference_per_unit(
    monkeypatch, chunk_nodes, window, spec, u0, units
):
    monkeypatch.setattr(strong_error, "_CHUNK_NODES", chunk_nodes)
    grid = TimeGrid(1.0, 12)
    work = certified_work(spec, (4, 5, 6, 7, 8), grid)
    got = strong_error._error_task(work, grid, 0.5, 1.0, u0, 1, units)
    assert_task_matches_reference(got, work, grid, 0.5, 1.0, u0, units)
    if spec is NAIVE_EM:
        # level-4 rows blow up before the last window and must stay frozen,
        # at both signs of the sentinel, through the windows after it
        inc = coarsen_increments(increment_block(1, 256, 512, grid), 256)
        values, blow = integrate_increments(NAIVE_EM, 1 / 16, inc, u0)
        blown = blow >= 0
        assert (blow[blown] * 256 < grid.n_steps - window).any()
        assert {-1.0, 1.0} <= set(np.sign(values[blown, -1]))


def test_streamed_levels_continue_the_full_width_trajectories(monkeypatch):
    # Stitch each level's per-window trajectories back together: they must
    # be the full-width ones, frozen sentinels of blown-up rows included.
    monkeypatch.setattr(strong_error, "_CHUNK_NODES", 96)  # one level-4 cell
    windows = {}

    def recording(spec, h, increments, u0):
        values, blow = integrate_increments(spec, h, increments, u0)
        windows.setdefault((spec.variant, h), []).append(values)
        return values, blow

    monkeypatch.setattr(strong_error, "integrate_increments", recording)
    grid = TimeGrid(1.0, 12)
    work = certified_work(NAIVE_EM, (4, 6, 8), grid)
    strong_error._error_task(work, grid, 0.5, 1.0, 3.0, 1, ((0, 64),))
    fine = increment_block(1, 0, 64, grid)
    for level, spec in work:
        h = 2.0**-level
        parts = windows[(spec.variant, h)]
        assert len(parts) == grid.n_steps // 256
        stitched = np.concatenate([parts[0][:, :1]] + [v[:, 1:] for v in parts], axis=1)
        want, blow = integrate_increments(spec, h, coarsen_increments(fine, 1 << (12 - level)), 3.0)
        assert np.array_equal(stitched, want)
        if level == 4:
            assert (blow >= 0).any()


def test_interpolant_saturation_counts_as_a_blowup(monkeypatch):
    # The weak-tamed rows never blow up in the scheme, so a row the
    # interpolant alone flags as saturated must still be counted, once.
    grid = TimeGrid(1.0, 9)
    work = certified_work(WEAK_TAMED_ENKF, (4, 5, 6), grid)
    units = ((0, 64), (64, 64))
    args = (work, grid, 0.5, 1.0, 1.0, 1, units)
    base = strong_error._error_task(*args)
    assert not base[2].any()

    level5_calls = []

    def one_row_saturated(spec, values, h, fine, h_fine, **kwargs):
        # called once per unit, units in order, within each window and entry
        interp, sat = interpolant_increments(spec, values, h, fine, h_fine, **kwargs)
        if h == 2.0**-5:
            level5_calls.append(h)
            if len(level5_calls) % len(units) == 0:
                sat = sat.copy()
                sat[6] = True  # row 6 of the second unit, values unchanged
        return interp, sat

    monkeypatch.setattr(strong_error, "interpolant_increments", one_row_saturated)
    got = strong_error._error_task(*args)
    assert np.array_equal(got[0], base[0]) and np.array_equal(got[1], base[1])
    expected = base[2].copy()
    expected[1, 1] += 1  # unit 1, work entry 1 (level 5)
    assert np.array_equal(got[2], expected)


def test_merge_folds_units_bitwise_at_uneven_tasks(monkeypatch):
    # 5 full units and one of 17 rows, grouped as 4 + 2, 3 + 3 and 2 + 2 + 2
    # units at 1, 2 and 3 workers: the running sum must equal the sum over
    # every unit's node sums concatenated, and not depend on the grouping.
    calls = []
    run_batches = strong_error.run_batches

    def recording(worker, args, workers):
        calls.append(run_batches(worker, args, workers=workers))
        return calls[-1]

    monkeypatch.setattr(strong_error, "run_batches", recording)
    merged, stats = [], []
    for workers in (1, 2, 3):
        res = estimate_strong_error(
            NAIVE_EM, LEVELS, n_samples=5 * 256 + 17, seed=3, u0=3.0, workers=workers
        )
        results = calls[-1]
        assert len(results) == {1: 2, 2: 2, 3: 3}[workers]
        sup, sums, blowups = strong_error._merge_tasks(results)
        want = np.concatenate([task[1] for task in results]).sum(axis=0)
        assert sums.tobytes() == want.tobytes()
        merged.append((sup.tobytes(), sums.tobytes(), blowups.tobytes()))
        stats.append((res.stats, res.reference_check))
    assert merged[0] == merged[1] == merged[2]
    assert stats[0] == stats[1] == stats[2]
    assert sum(s.blowup_count for s in stats[0][0]) > 0


def test_tasks_group_consecutive_units():
    units = strong_error.batch_ranges(1280, 256)
    assert strong_error._task_units(units, 1) == [tuple(units[:4]), tuple(units[4:])]
    assert strong_error._task_units(units, 2) == [tuple(units[:3]), tuple(units[3:])]
    assert strong_error._task_units(units, 3) == [tuple(units[i : i + 2]) for i in (0, 2, 4)]
    assert strong_error._task_units(units[:4], 2) == [tuple(units[:2]), tuple(units[2:4])]
    assert strong_error._task_units(units, 64) == [(u,) for u in units]


def test_task_memory_does_not_grow_with_the_reference_grid():
    # one 512-row task: its peak is window-sized arrays plus node sums, so
    # eight times the reference steps costs well under 1.5 times the memory
    def peak(ref_level):
        levels = tuple(range(ref_level - 6, ref_level - 3))
        tracemalloc.start()
        try:
            grid = TimeGrid(1.0, ref_level)
            strong_error._error_task(
                certified_work(WEAK_TAMED_ENKF, levels, grid), grid, 0.5, 1.0, 1.0, 0,
                ((0, 256), (256, 256)),
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(14) <= 1.5 * peak(11)


def test_window_is_clamped_to_the_reference_grid(monkeypatch):
    # Levels 0..3 have a 128-step reference grid, so the window is 128 steps
    # whatever _CHUNK_NODES asks for: the unit buffer is (256, 129), not
    # (256, _CHUNK_NODES + 1). At 10**8 nodes that used to be 191 GiB.
    grid = TimeGrid(1.0, 7)
    work = certified_work(WEAK_TAMED_ENKF, (0, 1, 2, 3), grid)

    def run():
        tracemalloc.start()
        try:
            got = strong_error._error_task(work, grid, 0.5, 1.0, 1.0, 0, ((0, 256),))
            return [a.tobytes() for a in got], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want, peak = run()
    # 1.62 MB measured on a 2-CPU Xeon with numpy 2.4.6, 3.45 MB unclamped
    assert peak < 256 * 1025 * 8
    monkeypatch.setattr(strong_error, "_CHUNK_NODES", 10**8)
    got, huge_peak = run()
    assert got == want
    assert huge_peak < 256 * 1025 * 8


def test_bootstrap_memory_stays_far_below_one_resample_block():
    # 200 resamples of 20,000 values drawn as one (200, M) index array and
    # gathered in one (200, M) block would hold 64 MB; drawn and reduced
    # _BOOTSTRAP_CHUNK rows at a time, about 3.2 MB
    values = np.random.default_rng(0).random(20_000)
    tracemalloc.start()
    try:
        half_width = strong_error._bootstrap_ci_log2(values, 0.5, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert half_width > 0.0
    assert peak < 8 * 2**20


def make_stats(errors_eta, errors_alpha, first_level=2):
    return [
        ErrorStats(
            level=first_level + i,
            h=2.0 ** -(first_level + i),
            eta=0.5,
            alpha=1.0,
            eta_error=e,
            alpha_error=a,
            ci_halfwidth=0.0,
            n_samples=10,
            blowup_count=0,
        )
        for i, (e, a) in enumerate(zip(errors_eta, errors_alpha))
    ]


def test_fit_rate_recovers_exact_slopes():
    ks = range(2, 7)
    stats = make_stats(
        [2.0 ** (-0.5 * k) for k in ks], [3.0 * 2.0 ** (-0.75 * k) for k in ks]
    )
    fit = fit_rate(stats, "uniform", 0.1)
    assert fit.slope == 0.5
    assert fit.r_squared == 1.0
    assert abs(fit.intercept) < 1e-12
    assert fit.theoretical_exponent == 0.1

    fit = fit_rate(stats, "pointwise", 0.5)
    assert abs(fit.slope - 0.75) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_rate_zero_error_exclusion():
    ks = range(2, 8)
    eta = [2.0 ** (-0.5 * k) for k in ks]
    alpha = list(eta)
    eta[0] = 0.0
    with pytest.warns(UserWarning, match="zero error"):
        fit = fit_rate(make_stats(eta, alpha), "uniform", 0.1)
    assert abs(fit.slope - 0.5) < 1e-12

    # too few levels left: the error alone, with no warning before it
    eta = [1.0, 0.5, 0.25, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 4"):
            fit_rate(make_stats(eta, eta), "uniform", 0.1)


def test_fit_rate_validation():
    stats = make_stats([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError, match="which"):
        fit_rate(stats, "sup", 0.1)
    with pytest.raises(ValueError, match="at least 4"):
        fit_rate(stats, "uniform", 0.1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(levels=()),
        dict(levels=(2, 2, 3, 4)),
        dict(levels=(-1, 0, 1, 2)),
        dict(eta=0.0),
        dict(eta=1.0),
        dict(alpha=0.0),
        dict(alpha=2.0),
        dict(n_samples=0),
    ],
)
def test_estimate_validation(kw):
    args = dict(levels=LEVELS, n_samples=16, seed=0, check_reference=False)
    args.update(kw)
    with pytest.raises(ValueError):
        estimate_strong_error(WEAK_TAMED_ENKF, **args)
