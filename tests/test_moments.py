"""Moment estimators, the recursion check, and the explicit-Euler profile."""

import tracemalloc

import numpy as np
import pytest

from weaktame import _batching, cli, moments
from weaktame.brownian import TimeGrid, increment_block
from weaktame.moments import (
    em_blowup_profile,
    moment_table,
    node_second_moments,
    second_moment_recursion_check,
)
from weaktame.schemes import (
    DRIFT_TAMED,
    NAIVE_EM,
    SATURATION_LIMIT,
    WEAK_TAMED_ENKF,
    integrate_increments,
)


def test_recursion_check_exact_points():
    # 64-node Gauss-Hermite integrates the rational integrand essentially exactly
    assert second_moment_recursion_check(1.0, 1.0) < 1e-12
    assert second_moment_recursion_check(0.25, -3.0) < 1e-12
    assert second_moment_recursion_check(1e-3, 0.5) < 1e-12


def test_recursion_check_grid():
    hs = [2.0**-k for k in range(0, 12, 3)]
    us = [-7.0, -1.0, -0.1, 0.0, 0.3, 2.0, 50.0]
    worst = max(second_moment_recursion_check(h, u) for h in hs for u in us)
    assert worst < 1e-10


def test_recursion_check_validation():
    with pytest.raises(ValueError):
        second_moment_recursion_check(0.0, 1.0)
    with pytest.raises(ValueError):
        second_moment_recursion_check(-0.5, 1.0)
    with pytest.raises(ValueError):
        second_moment_recursion_check(1.0, np.nan)


def test_weak_tamed_report_small():
    grid = TimeGrid(1.0, 3, 1)
    ((rep,),) = moment_table(WEAK_TAMED_ENKF, [grid], (2.0,), 1200, seed=5)
    # second moment decays from u0, so the node sup sits at t=0 and equals u0^2
    assert rep.sup_of_mean == 1.0
    assert rep.sup_of_mean_ci == 0.0
    assert rep.blowup_fraction == 0.0
    assert rep.n_samples == 1200
    assert rep.mean_of_sup >= rep.sup_of_mean
    assert 0.0 < rep.integral_term < 1.0


def test_naive_em_diverges_from_large_start():
    grid = TimeGrid(1.0, 0, 10)
    ((rep,),) = moment_table(NAIVE_EM, [grid], (2.0,), 600, seed=5, u0=10.0)
    assert rep.blowup_fraction > 0.99
    assert rep.sup_of_mean > 1e50
    assert rep.mean_of_sup > 1e50


def test_moment_table_validation():
    grid = TimeGrid(1.0, 2, 1)
    with pytest.raises(ValueError):
        moment_table(WEAK_TAMED_ENKF, [grid], (), 100, seed=0)
    with pytest.raises(ValueError):
        moment_table(WEAK_TAMED_ENKF, [grid], (1.0, -2.0), 100, seed=0)
    with pytest.raises(ValueError):
        moment_table(WEAK_TAMED_ENKF, [grid], (2.0,), 0, seed=0)


@pytest.mark.parametrize("ps", [(np.nan,), (1.0, np.inf), (-np.inf,)])
def test_non_finite_orders_are_rejected_before_simulating(ps, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating p")

    monkeypatch.setattr(moments, "run_batches", no_simulation)
    grids = [TimeGrid(1.0, 2, 1), TimeGrid(1.0, 3, 1)]
    with pytest.raises(ValueError, match="finite and positive"):
        moment_table(WEAK_TAMED_ENKF, grids[:1], ps, 100, seed=0)
    with pytest.raises(ValueError, match="finite and positive"):
        moment_table(WEAK_TAMED_ENKF, grids, ps, 100, seed=0)


def test_moment_table_matches_single_order_calls():
    grid = TimeGrid(1.0, 3, 1)
    (table,) = moment_table(WEAK_TAMED_ENKF, [grid], (1.0, 2.5), 1100, seed=17)
    for rep in table:
        ((solo,),) = moment_table(WEAK_TAMED_ENKF, [grid], (rep.p,), 1100, seed=17)
        assert solo == rep


def test_moment_table_worker_count_invariant():
    grid = TimeGrid(1.0, 3, 1)
    a = moment_table(WEAK_TAMED_ENKF, [grid], (1.0, 2.0), 1300, seed=3, workers=1)
    b = moment_table(WEAK_TAMED_ENKF, [grid], (1.0, 2.0), 1300, seed=3, workers=2)
    assert a == b


def test_node_second_moments_trend():
    means, ci = node_second_moments(WEAK_TAMED_ENKF, TimeGrid(1.0, 3, 1), 4096, seed=9)
    assert means.shape == (9,) and ci.shape == (9,)
    assert means[0] == 1.0
    assert ci[0] == 0.0
    assert np.all(means > 0.0)
    # decay up to adjacent-node CI slack
    assert np.all(np.diff(means) <= ci[1:] + ci[:-1])


def test_blowup_profile_rows():
    rows = em_blowup_profile([0.1], 10.0, 400, seed=11)
    assert len(rows) == 1
    h, median_abs, exceed = rows[0]
    assert h == 0.1
    assert median_abs == SATURATION_LIMIT
    assert exceed > 0.9

    rows = em_blowup_profile([2.0**-10], 1.0, 400, seed=11)
    h, median_abs, exceed = rows[0]
    assert h == 2.0**-10
    assert median_abs < 2.0
    assert exceed == 0.0


def test_blowup_profile_validation():
    with pytest.raises(ValueError):
        em_blowup_profile([0.0], 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        em_blowup_profile([0.1], np.inf, 10, seed=0)


# Test-local copies of the per-batch reduction and the bootstrap loops that
# moment_table and node_second_moments ran before the bootstrap was batched
# over resamples; the library must reproduce them bit for bit.


def reference_batch(spec, grid, seed, start, count, u0, ps):
    values, blow = integrate_increments(spec, grid.h, increment_block(seed, start, count, grid), u0)
    nodes = np.arange(values.shape[1])
    valid = (blow[:, None] < 0) | (nodes[None, :] < blow[:, None])
    absv = np.abs(values)
    v2 = values * values
    h = grid.h
    node_sums = np.empty((len(ps), values.shape[1]))
    sup_sums = np.empty(len(ps))
    integral_sums = np.empty(len(ps))
    path_sup = np.where(valid, absv, 0.0).max(axis=1)
    with np.errstate(all="ignore"):
        for i, p in enumerate(ps):
            node_sums[i] = np.where(valid, absv**p, 0.0).sum(axis=0)
            sup_sums[i] = float(np.sum(path_sup**p))
            base = absv / (1.0 + h * v2) ** (2.0 / (p + 2.0))
            integral_sums[i] = float(h * np.where(valid, base ** (p + 2.0), 0.0).sum())
    return node_sums, valid.sum(axis=0).astype(np.int64), sup_sums, integral_sums, int((blow >= 0).sum())


def reference_batches(spec, grid, n_samples, seed, u0, ps):
    return [
        reference_batch(spec, grid, seed, start, min(512, n_samples - start), u0, ps)
        for start in range(0, n_samples, 512)
    ]


def reference_draws(seed, tag, n_batches):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))
    return rng.integers(0, n_batches, size=(200, n_batches))


def reference_sup_of_mean(node_sums, node_count):
    covered = node_count > 0
    with np.errstate(all="ignore"):
        return float((node_sums[covered] / node_count[covered]).max())


def reference_moment_table(spec, grid, ps, n_samples, seed, u0):
    results = reference_batches(spec, grid, n_samples, seed, u0, ps)
    batch_node_sums = np.stack([r[0] for r in results])
    batch_node_count = np.stack([r[1] for r in results])
    sup_sums = np.sum([r[2] for r in results], axis=0)
    integral_sums = np.sum([r[3] for r in results], axis=0)
    blow_total = sum(r[4] for r in results)
    node_sums = batch_node_sums.sum(axis=0)
    node_count = batch_node_count.sum(axis=0)
    draws = reference_draws(seed, 0xB007, len(results))
    reports = []
    for i, p in enumerate(ps):
        resampled = np.empty(200)
        for b in range(200):
            take = draws[b]
            with np.errstate(over="ignore"):
                resampled[b] = reference_sup_of_mean(
                    batch_node_sums[take, i].sum(axis=0), batch_node_count[take].sum(axis=0)
                )
        with np.errstate(invalid="ignore"):
            lo, hi = np.percentile(resampled, [2.5, 97.5])
        reports.append(
            moments.MomentReport(
                p=p,
                sup_of_mean=reference_sup_of_mean(node_sums[i], node_count),
                mean_of_sup=float(sup_sums[i] / n_samples),
                integral_term=float(integral_sums[i] / n_samples),
                blowup_fraction=blow_total / n_samples,
                n_samples=n_samples,
                sup_of_mean_ci=float((hi - lo) / 2.0),
            )
        )
    return reports


def reference_node_second_moments(spec, grid, n_samples, seed, u0):
    results = reference_batches(spec, grid, n_samples, seed, u0, (2.0,))
    batch_sums = np.stack([r[0][0] for r in results])
    batch_counts = np.stack([r[1] for r in results])
    means = batch_sums.sum(axis=0) / batch_counts.sum(axis=0)
    draws = reference_draws(seed, 0xB007 + 1, len(results))
    resampled = np.empty((200, means.shape[0]))
    for b in range(200):
        take = draws[b]
        resampled[b] = batch_sums[take].sum(axis=0) / batch_counts[take].sum(axis=0)
    lo, hi = np.percentile(resampled, [2.5, 97.5], axis=0)
    return means, (hi - lo) / 2.0


BOOTSTRAP_CASES = [
    # (scheme, u0, samples, level): 1, 2 and 9 batches of at most 512 rows
    (spec, u0, n, 5)
    for spec, u0 in [(WEAK_TAMED_ENKF, 3.0), (NAIVE_EM, 3.0)]
    for n in (512, 1000, 4400)
] + [
    # Blow-ups among the 1000 rows at seed 11: every row at node 1; 83 % at
    # node 1, the last node of a one-step grid; 20 % at nodes 6 to 8, 86
    # rows at the last; every row, at nodes 5 to 8, none alive at the last.
    (NAIVE_EM, 1e51, 1000, 5),
    (DRIFT_TAMED, 2.2e75, 1000, 0),
    (NAIVE_EM, 3.0, 1000, 3),
    (NAIVE_EM, 10.0, 1000, 3),
]


def bootstrap_case_id(spec, u0, n_samples, level):
    case = f"{spec.label}-{n_samples}"
    return case if (u0, level) == (3.0, 5) else f"{case}-u0={u0:g}-level{level}"


@pytest.mark.parametrize(
    "spec, u0, n_samples, level",
    BOOTSTRAP_CASES,
    ids=[bootstrap_case_id(*c) for c in BOOTSTRAP_CASES],
)
def test_batched_bootstrap_matches_the_per_resample_loop(spec, u0, n_samples, level):
    grid = TimeGrid(1.0, level, 1)
    seed = 11
    ps = (1.0, 2.0, 2.5)
    (got,) = moment_table(spec, [grid], ps, n_samples, seed, u0=u0)
    want = reference_moment_table(spec, grid, ps, n_samples, seed, u0)
    # repr compares every field, sup_of_mean_ci included, NaN and -0.0 too
    assert repr(got) == repr(want)
    if spec is not WEAK_TAMED_ENKF:
        assert got[0].blowup_fraction > 0.0

    counts = sum(r[1] for r in reference_batches(spec, grid, n_samples, seed, u0, (2.0,)))
    if not counts.all():
        # a node no row reaches has no second moment
        with pytest.raises(ValueError, match="at least one alive sample"):
            node_second_moments(spec, grid, n_samples, seed, u0=u0)
        return
    means, half_widths = node_second_moments(spec, grid, n_samples, seed, u0=u0)
    want_means, want_half_widths = reference_node_second_moments(spec, grid, n_samples, seed, u0)
    assert np.array_equal(means, want_means)
    assert np.array_equal(half_widths, want_half_widths)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_pass_over_grids_matches_per_grid_tables(workers):
    # unsorted levels with one repeated, as from --levels 6,4,6
    grids = [TimeGrid(1.0, level, 1) for level in (6, 4, 6)]
    ps = (1.0, 2.0)
    tables = moment_table(NAIVE_EM, grids, ps, 1100, seed=5, u0=3.0, workers=workers)
    singles = [moment_table(NAIVE_EM, [g], ps, 1100, seed=5, u0=3.0)[0] for g in grids]
    assert repr(tables) == repr(singles)
    assert tables[0][0].blowup_fraction > 0.0


def test_no_grids_give_no_tables():
    assert moment_table(NAIVE_EM, [], (1.0,), 10, seed=0) == []
    assert em_blowup_profile([], 3.0, 10, seed=0) == []


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_moments_cli_runs_every_level_in_one_inline_batch_pass(monkeypatch, capsys):
    calls = []

    def counting_run_batches(worker, args_per_batch, workers=1):
        # (batch, spec, grids, seed, start, count, u0, *extra) per call
        calls.append([(a[4], a[5], [g.n_steps for g in a[2]]) for a in args_per_batch])
        return _batching.run_batches(worker, args_per_batch, workers)

    monkeypatch.setattr(moments, "run_batches", counting_run_batches)
    monkeypatch.setattr(_batching, "ProcessPoolExecutor", _no_pool)
    argv = ["moments", "--levels", "1..7", "--M", "600", "--seed", "2", "--workers", "1"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    # one call per batch, each carrying every level, longest grid last
    every_level = [1 << level for level in range(1, 8)]
    assert calls[0] == [(0, 512, every_level), (512, 88, every_level)]
    lines = capsys.readouterr().out.splitlines()
    assert [float(ln.split(",")[1]) for ln in lines[1::3]] == [2.0**-k for k in range(1, 8)]


def test_moments_cli_makes_one_moment_table_call_with_every_grid(monkeypatch, capsys):
    calls = []
    library_moment_table = moments.moment_table

    def counting_moment_table(spec, grids, *args, **kwargs):
        calls.append([g.n_steps for g in grids])
        return library_moment_table(spec, grids, *args, **kwargs)

    monkeypatch.setattr(moments, "moment_table", counting_moment_table)
    argv = ["moments", "--levels", "6,4,6", "--M", "100", "--seed", "2", "--workers", "1"]
    assert cli.main(argv) == 0
    assert calls == [[64, 16, 64]]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3


def test_blowup_profile_runs_every_step_size_in_one_pass(monkeypatch):
    hs = [0.1, 0.3, 0.05, 0.1]
    singles = [em_blowup_profile([h], 3.0, 700, seed=8) for h in hs]
    calls = []

    def counting_run_batches(worker, args_per_batch, workers=1):
        calls.append([[g.n_steps for g in args[2]] for args in args_per_batch])
        return _batching.run_batches(worker, args_per_batch, workers)

    monkeypatch.setattr(moments, "run_batches", counting_run_batches)
    rows = em_blowup_profile(hs, 3.0, 700, seed=8)
    # one call per batch, each carrying the three distinct grids
    assert calls == [[[3, 10, 20], [3, 10, 20]]]
    assert repr(rows) == repr([r for (r,) in singles])


def test_every_grid_batch_memory_stays_at_the_longest_grid_alone():
    # one 512-row batch at levels 4..10. tracemalloc peaks measured on a 2-CPU
    # Xeon with numpy 2.4.6: 16.06 MiB for the level-10 grid alone, its draw
    # held to the end; 16.71 MiB for every grid stepped in one loop, the
    # longest draw scaled in place and dropped before the reductions.
    grids = [TimeGrid(1.0, level, 1) for level in range(4, 11)]
    ps = (1.0, 2.0, 2.5)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    finest = grids[-1]

    def finest_alone():
        increments = increment_block(0, 0, 512, finest)  # held to the end
        values, blow = integrate_increments(WEAK_TAMED_ENKF, finest.h, increments, 1.0)
        moments._moment_batch(finest.h, values, blow, ps)

    alone = peak(finest_alone)
    every = peak(
        lambda: moments._every_grid_batch(
            moments._moment_batch, WEAK_TAMED_ENKF, grids, 0, 0, 512, 1.0, ps
        )
    )
    assert every <= 1.1 * alone
