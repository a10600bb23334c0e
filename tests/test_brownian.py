import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaktame.brownian import (
    TimeGrid,
    coarsen_increments,
    increment_block,
    standard_normals,
)


def sample_path(seed, sample_index, grid):
    """Reference increments of one sample, from one freshly keyed Philox."""
    return np.sqrt(grid.h) * standard_normals(seed, sample_index, grid.n_steps)


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
    t = np.arange(g.n_steps + 1) * g.h
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
        # no float64 array holds 2**60 + 1 nodes (numpy caps arrays at intp.max bytes)
        dict(level=60),
        dict(level=1, base=3 << 58),
    ],
)
def test_grid_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        TimeGrid(**{"horizon": 1.0, "level": 0, "base": 1, **kwargs})


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
    empty = standard_normals(7, 0, 0)
    assert empty.shape == (0,) and empty.dtype == np.float64


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
        assert np.array_equal(sample_path(3, 10 + i, grid), block[i])


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
        full = sample_path(seed, first_index + i, grid)
        assert np.array_equal(window[i], full[first_step : first_step + steps])


@pytest.mark.parametrize(
    "seed, stream, message",
    [
        (-1, 0, "seed must be in [0, 2**64), got -1"),
        (2**64, 0, f"seed must be in [0, 2**64), got {2**64}"),
        (0, -1, "stream index must be in [0, 2**64), got -1"),
        (0, 2**64, f"stream index must be in [0, 2**64), got {2**64}"),
    ],
)
def test_seeds_and_streams_outside_64_bits_are_rejected(seed, stream, message):
    # they used to be reduced modulo 2**64: seed -1 drew seed 2**64 - 1's words
    with pytest.raises(ValueError) as exc:
        standard_normals(seed, stream, 4)
    assert str(exc.value) == message
    with pytest.raises(ValueError):
        increment_block(seed, stream, 2, TimeGrid(1.0, 3))


@pytest.mark.parametrize(
    "first_step, steps",
    [(2, 8), (-4, 8), (0, 0), (32, 1)],
    ids=["unaligned", "negative", "empty", "past-end"],
)
def test_increment_block_rejects_bad_windows(first_step, steps):
    with pytest.raises(ValueError):
        increment_block(0, 0, 2, TimeGrid(1.0, 5, 1), first_step=first_step, steps=steps)


@pytest.mark.parametrize("start", [0, 1000])
@pytest.mark.parametrize(
    "grids",
    [
        [TimeGrid(1.0, level, 1) for level in range(4, 11)],
        [TimeGrid(1.0, 0, n) for n in (10, 20, 40)],  # the blowup profile's h
    ],
    ids=["levels-4..10", "steps-10,20,40"],
)
def test_every_grid_is_a_scaled_prefix_of_the_longest_unscaled_draw(grids, start):
    # the moment engine draws a batch once at its longest grid and slices it
    unscaled = increment_block(4, start, 5, grids[-1], scaled=False)
    assert unscaled.shape == (5, grids[-1].n_steps)
    for grid in grids:
        prefix = unscaled[:, : grid.n_steps] * np.sqrt(grid.h)
        assert np.array_equal(prefix, increment_block(4, start, 5, grid))


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
    # block sums as reshape(..., 2).sum(-1) halvings
    while factor > 1:
        x = x.reshape(*x.shape[:-1], -1, 2).sum(axis=-1)
        factor //= 2
    return x


@pytest.mark.parametrize("factor", [2**k for k in range(11)])
def test_coarsen_increments_matches_reshape_sum(factor):
    rng = np.random.default_rng(factor)
    x = rng.normal(size=(4, 3 * 2048))
    assert np.array_equal(coarsen_increments(x, factor), _reshape_sum_coarsen(x, factor))
    assert np.array_equal(
        coarsen_increments(x[1], factor), _reshape_sum_coarsen(x[1], factor)
    )


def test_coarsen_rejects_non_divisor():
    increments = sample_path(5, 2, TimeGrid(1.0, 2, 3))  # 12 steps
    with pytest.raises(ValueError, match="does not divide"):
        coarsen_increments(increments, 8)
    with pytest.raises(ValueError, match="power of two"):
        coarsen_increments(increments, 0)


@pytest.mark.parametrize("factor", [3, 6, 12, -2])
def test_coarsen_rejects_factors_that_are_not_powers_of_two(factor):
    # every factor divides the 12 steps but is no power of two
    increments = sample_path(5, 2, TimeGrid(1.0, 2, 3))
    with pytest.raises(ValueError, match="power of two"):
        coarsen_increments(increments, factor)
