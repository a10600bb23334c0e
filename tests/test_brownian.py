import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaktame.brownian import (
    BrownianPath,
    TimeGrid,
    coarsen,
    coarsen_increments,
    dump_path,
    increment_block,
    load_path,
    sample_path,
    standard_normals,
)


def test_grid_normalizes_to_odd_base():
    assert TimeGrid(1.0, 1, 1024) == TimeGrid(1.0, 11, 1)
    assert TimeGrid(1.0, 0, 12) == TimeGrid(1.0, 2, 3)
    g = TimeGrid(1.0, 0, 12)
    assert g.base == 3 and g.level == 2
    assert g.n_steps == 12


def test_grid_h_and_times():
    g = TimeGrid(2.0, 3, 1)
    assert g.n_steps == 8
    assert g.h == 0.25
    t = g.times()
    assert t[0] == 0.0 and t[-1] == 2.0
    assert np.allclose(np.diff(t), g.h)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(horizon=0.0),
        dict(horizon=-1.0),
        dict(horizon=np.inf),
        dict(level=-1),
        dict(base=0),
    ],
)
def test_grid_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        TimeGrid(**{"horizon": 1.0, "level": 0, "base": 1, **kwargs})


def test_refine_coarsen_round_trip():
    g = TimeGrid(1.0, 4, 3)
    assert g.refined(2).coarsened(2) == g
    assert g.refined(2).n_steps == 4 * g.n_steps
    with pytest.raises(ValueError):
        g.coarsened(5)  # only 4 levels to give


@given(st.integers(0, 20), st.integers(1, 1000))
def test_grid_normalization_preserves_step_count(level, base):
    g = TimeGrid(1.0, level, base)
    assert g.base % 2 == 1
    assert g.n_steps == base * 2**level


def test_standard_normals_deterministic_and_split():
    a = standard_normals(7, 0, 100)
    assert np.array_equal(a, standard_normals(7, 0, 100))
    assert not np.array_equal(a, standard_normals(7, 1, 100))
    assert not np.array_equal(a, standard_normals(8, 0, 100))
    assert standard_normals(7, 0, 0).shape == (0,)


def test_standard_normals_rough_moments():
    x = standard_normals(123, 5, 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert np.all(np.isfinite(x))


def test_sample_path_matches_block():
    grid = TimeGrid(1.0, 5, 1)
    block = increment_block(3, 10, 4, grid)
    assert block.shape == (4, grid.n_steps)
    for i in range(4):
        path = sample_path(3, 10 + i, grid)
        assert np.array_equal(path.increments, block[i])
        assert path.grid == grid


@pytest.mark.parametrize("seed, first_index", [(3, 10), (2**64 - 1, 2**40)])
@pytest.mark.parametrize("first_step, steps", [(0, 100), (4, 64), (2048, 2048), (4092, 4)])
def test_increment_block_window_is_a_slice_of_the_full_rows(
    seed, first_index, first_step, steps
):
    # the reference rows come from one freshly keyed Philox per sample
    grid = TimeGrid(1.0, 12, 1)
    window = increment_block(seed, first_index, 3, grid, first_step=first_step, steps=steps)
    assert window.shape == (3, steps)
    for i in range(3):
        full = sample_path(seed, first_index + i, grid).increments
        assert np.array_equal(window[i], full[first_step : first_step + steps])


@pytest.mark.parametrize(
    "first_step, steps",
    [(2, 8), (-4, 8), (0, 0), (32, 1)],
    ids=["unaligned", "negative", "empty", "past-end"],
)
def test_increment_block_rejects_bad_windows(first_step, steps):
    with pytest.raises(ValueError):
        increment_block(0, 0, 2, TimeGrid(1.0, 5, 1), first_step=first_step, steps=steps)


def test_path_values_are_cumsum():
    grid = TimeGrid(1.0, 3, 1)
    path = sample_path(0, 0, grid)
    vals = path.values()
    assert vals[0] == 0.0
    assert np.array_equal(vals[1:], np.cumsum(path.increments))


def test_increment_variance_scales_with_h():
    grid = TimeGrid(1.0, 4, 1)
    block = increment_block(11, 0, 2000, grid)
    assert abs(block.var() / grid.h - 1.0) < 0.05


def test_coarsen_increments_pairwise_sums():
    # spec'd example: [0.3, -0.4, 0.5, 0.2] by 2 -> [-0.1, 0.7]
    out = coarsen_increments(np.array([[0.3, -0.4, 0.5, 0.2]]), 2)
    assert out.shape == (1, 2)
    assert out[0, 0] == 0.3 + -0.4
    assert out[0, 1] == 0.5 + 0.2
    np.testing.assert_allclose(out[0], [-0.1, 0.7])


def test_coarsen_increments_power_of_two_is_staged_pairwise():
    # the strong-error engine coarsens each level from the one above it
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2048))
    staged = x
    for k in range(1, 11):
        staged = coarsen_increments(staged, 2)
        assert np.array_equal(staged, coarsen_increments(x, 2**k))
    assert np.array_equal(
        coarsen_increments(coarsen_increments(x, 8), 16), coarsen_increments(x, 128)
    )


def _reshape_sum_coarsen(x, factor):
    # block sums as reshape(..., 2).sum(-1) halvings, then one odd block sum
    while factor % 2 == 0:
        x = x.reshape(*x.shape[:-1], -1, 2).sum(axis=-1)
        factor //= 2
    if factor > 1:
        x = x.reshape(*x.shape[:-1], -1, factor).sum(axis=-1)
    return x


@pytest.mark.parametrize("factor", [2**k for k in range(1, 11)] + [3, 6])
def test_coarsen_increments_matches_reshape_sum(factor):
    rng = np.random.default_rng(factor)
    x = rng.normal(size=(4, 3 * 2048))
    assert np.array_equal(coarsen_increments(x, factor), _reshape_sum_coarsen(x, factor))
    assert np.array_equal(
        coarsen_increments(x[1], factor), _reshape_sum_coarsen(x[1], factor)
    )


def test_coarsen_path_drops_levels():
    fine = sample_path(5, 2, TimeGrid(1.0, 6, 1))
    coarse = coarsen(fine, 4)
    assert coarse.grid == TimeGrid(1.0, 4, 1)
    assert coarse.increments.shape == (16,)
    assert np.array_equal(
        coarse.increments, coarsen_increments(fine.increments[None, :], 4)[0]
    )


def test_coarsen_rejects_non_divisor():
    path = sample_path(5, 2, TimeGrid(1.0, 2, 3))  # 12 steps
    with pytest.raises(ValueError):
        coarsen(path, 5)


def test_dump_load_round_trip_bits():
    path = sample_path(17, 23, TimeGrid(2.5, 4, 3))
    buf = io.BytesIO()
    dump_path(path, buf)
    buf.seek(0)
    back = load_path(buf)
    assert back.grid == path.grid
    assert np.array_equal(back.increments, path.increments)


def test_load_rejects_foreign_bytes():
    with pytest.raises(ValueError):
        load_path(io.BytesIO(b"not a path dump at all....."))


def test_paths_compare_by_identity_not_value():
    # eq=False: distinct objects with equal content stay distinct
    a = sample_path(1, 1, TimeGrid(1.0, 2, 1))
    b = sample_path(1, 1, TimeGrid(1.0, 2, 1))
    assert a != b
    assert np.array_equal(a.increments, b.increments)


def test_manual_path_construction_validates():
    grid = TimeGrid(1.0, 2, 1)
    with pytest.raises(ValueError):
        BrownianPath(grid=grid, increments=np.zeros(3))  # needs 4
