import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaktame import _batching, schemes
from weaktame.brownian import TimeGrid, coarsen_increments, increment_block
from weaktame.schemes import (
    DRIFT_TAMED,
    INCREMENT_TAMED,
    NAIVE_EM,
    SATURATION_LIMIT,
    WEAK_TAMED_ENKF,
    SchemeSpec,
    _frozen_coefficients,
    _integrate_blocks,
    _raw_update,
    integrate_increments,
    interpolant_increments,
    regularized_em,
)

ALL_SPECS = [NAIVE_EM, WEAK_TAMED_ENKF, DRIFT_TAMED, INCREMENT_TAMED, regularized_em(0.25)]


def step(spec, u, h, dw):
    """One step of the batch engine from u, as a (1, 1) batch."""
    values, _ = integrate_increments(spec, h, np.array([[dw]]), u)
    return float(values[0, 1])


def scalar_step(spec, u, h, dw):
    """Each scheme's update in Python floats, in the engine's operation order."""
    u2 = u * u
    if spec.variant in ("weak_tamed_enkf", "regularized_em"):
        eps = h if spec.variant == "weak_tamed_enkf" else spec.epsilon
        gain = u2 / (eps * u2 + 1.0)
        return (u + gain * (-(h * u))) + gain * dw
    if spec.variant == "naive_em":
        return (u + -(h * (u2 * u))) + u2 * dw
    if spec.variant == "drift_tamed":
        t = -(h * (u2 * u))
        return (u + t / (1.0 + abs(t))) + u2 * dw
    incr = -(h * (u2 * u)) + u2 * dw
    return u + incr / max(1.0, abs(incr))


def row(seed, sample_index, grid):
    """The increments of one sample as a (1, N) batch."""
    return increment_block(seed, sample_index, 1, grid)


def test_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec("heun")
    with pytest.raises(ValueError):
        SchemeSpec("regularized_em")  # epsilon required
    with pytest.raises(ValueError):
        SchemeSpec("regularized_em", -1.0)
    with pytest.raises(ValueError):
        SchemeSpec("naive_em", 0.5)  # takes no epsilon
    assert regularized_em(0.25).epsilon == 0.25
    assert "0.25" in regularized_em(0.25).label


def test_step_pinned_values():
    assert step(WEAK_TAMED_ENKF, 1.0, 1.0, 0.0) == 0.5
    assert step(NAIVE_EM, 10.0, 0.1, 0.0) == -90.0
    assert step(WEAK_TAMED_ENKF, 2.0, 0.25, 0.5) == 2.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_zero_is_fixed_point(spec):
    assert step(spec, 0.0, 0.125, 0.7) == 0.0


def test_step_validates_inputs():
    with pytest.raises(ValueError):
        step(WEAK_TAMED_ENKF, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        step(WEAK_TAMED_ENKF, np.nan, 0.1, 0.0)
    # u0 must lie in the range; the sentinel itself does
    with pytest.raises(ValueError, match="range"):
        integrate_increments(WEAK_TAMED_ENKF, 0.1, np.zeros((2, 3)), [0.5, -1e151])
    values, _ = integrate_increments(WEAK_TAMED_ENKF, 0.1, np.zeros((1, 1)), -SATURATION_LIMIT)
    assert values[0, 0] == -SATURATION_LIMIT
    # a non-finite increment is a blow-up, saturated rather than raised
    assert step(WEAK_TAMED_ENKF, 1.0, 0.1, np.inf) == SATURATION_LIMIT


def test_comparator_closed_forms():
    u, h, dw = 1.5, 0.125, -0.3
    cube = u**3
    assert step(DRIFT_TAMED, u, h, dw) == pytest.approx(
        u - h * cube / (1.0 + h * cube) + u * u * dw, rel=1e-15
    )
    incr = -h * cube + u * u * dw
    assert step(INCREMENT_TAMED, u, h, dw) == pytest.approx(
        u + incr / max(1.0, abs(incr)), rel=1e-15
    )
    # a huge increment is cut to modulus one
    assert step(INCREMENT_TAMED, 100.0, 0.5, 0.0) == 99.0


@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(1e-6, 4.0, allow_nan=False),
)
def test_weak_tamed_deterministic_contraction(u, h):
    out = step(WEAK_TAMED_ENKF, u, h, 0.0)
    assert abs(out) <= abs(u) * (1 + 1e-12) + 1e-300
    assert abs(out) <= 1.0 / (2.0 * np.sqrt(h)) * (1 + 1e-12)


def test_weak_tamed_equals_regularized_at_eps_h():
    grid = TimeGrid(1.0, 6, 1)
    increments = row(9, 0, grid)
    wt, wt_blow = integrate_increments(WEAK_TAMED_ENKF, grid.h, increments, 1.3)
    reg, reg_blow = integrate_increments(regularized_em(grid.h), grid.h, increments, 1.3)
    assert np.array_equal(wt, reg)
    assert np.array_equal(wt_blow, reg_blow)


def test_integrate_matches_scalar_step_loop():
    grid = TimeGrid(1.0, 4, 1)
    increments = row(2, 5, grid)
    for spec in ALL_SPECS:
        values, blow = integrate_increments(spec, grid.h, increments, 0.8)
        u = 0.8
        for n, dw in enumerate(increments[0].tolist()):
            u = scalar_step(spec, u, grid.h, dw)
            assert values[0, n + 1] == u
        assert blow[0] == -1


def test_integrate_rejects_grid_mismatch():
    # increments and u0 must agree on the batch shape
    increments = row(2, 5, TimeGrid(1.0, 4, 1))
    with pytest.raises(ValueError):
        integrate_increments(WEAK_TAMED_ENKF, 1 / 16, increments, np.ones(2))
    with pytest.raises(ValueError):
        integrate_increments(WEAK_TAMED_ENKF, 1 / 16, increments[0], 1.0)


def test_zero_initial_condition_stays_zero():
    grid = TimeGrid(1.0, 5, 1)
    increments = row(0, 1, grid)
    for spec in ALL_SPECS:
        assert not integrate_increments(spec, grid.h, increments, 0.0)[0].any()


def test_naive_em_blowup_flagged_and_saturated():
    quiet = np.zeros((1, 10))  # h = 0.1 on [0, 1]
    values, blow = integrate_increments(NAIVE_EM, 0.1, quiet, 10.0)
    assert abs(values[0, 3]) > 1e10
    assert blow[0] > 0
    tail = values[0, blow[0] :]
    assert np.all(np.abs(tail) == SATURATION_LIMIT)
    # weak-tamed on the same path stays tame
    wt, wt_blow = integrate_increments(WEAK_TAMED_ENKF, 0.1, quiet, 10.0)
    assert wt_blow[0] == -1
    assert np.abs(wt).max() == 10.0


def test_naive_em_expands_above_threshold():
    # |u0| > sqrt(2/h) forces |u1| > |u0| on the quiet path
    h = 0.1
    u0 = np.sqrt(2.0 / h) + 0.5
    assert abs(step(NAIVE_EM, u0, h, 0.0)) > u0


def test_batch_engine_freezes_dead_rows():
    increments = np.array([[0.0] * 6, [0.0] * 6])
    values, blow = integrate_increments(NAIVE_EM, 0.1, increments, np.array([10.0, 1.0]))
    assert blow[0] > 0 and blow[1] == -1
    assert np.all(values[0, blow[0] :] == values[0, blow[0]])
    # the healthy row is bit-equal to its solo integration
    solo, _ = integrate_increments(NAIVE_EM, 0.1, increments[1:], 1.0)
    assert np.array_equal(values[1], solo[0])


def test_batch_engine_clamps_overflow_to_sentinel():
    increments = np.array([[0.0] * 8])
    values, blow = integrate_increments(NAIVE_EM, 0.5, increments, -6.0)
    assert blow[0] > 0
    assert np.all(np.isfinite(values))
    assert np.abs(values[0]).max() == SATURATION_LIMIT


def test_batch_engine_repairs_nan_with_previous_sign():
    # an increment-carried NaN poisons the update; the sentinel inherits the
    # sign of the previous value instead of the NaN
    increments = np.array([[0.1, np.nan, 0.1, 0.1]])
    values, blow = integrate_increments(WEAK_TAMED_ENKF, 0.25, increments, -1.5)
    assert blow[0] == 2
    assert values[0, 2] == -SATURATION_LIMIT  # previous value was negative
    assert np.all(values[0, 2:] == -SATURATION_LIMIT)


def test_interpolant_identity_at_factor_one():
    grid = TimeGrid(1.0, 4, 1)
    increments = row(4, 7, grid)
    values, _ = integrate_increments(WEAK_TAMED_ENKF, grid.h, increments, 1.0)
    same, saturated = interpolant_increments(
        WEAK_TAMED_ENKF, values, grid.h, increments, grid.h
    )
    assert np.array_equal(same, values)
    assert not saturated[0]


def test_interpolant_copies_coarse_nodes_bitwise():
    fine_grid = TimeGrid(1.0, 6, 1)
    fine = row(8, 3, fine_grid)
    coarse = coarsen_increments(fine, 4)
    h_coarse = 4 * fine_grid.h
    for spec in ALL_SPECS:
        values, _ = integrate_increments(spec, h_coarse, coarse, 1.1)
        interp, _ = interpolant_increments(spec, values, h_coarse, fine, fine_grid.h)
        assert interp.shape == (1, fine_grid.n_steps + 1)
        assert np.array_equal(interp[:, ::4], values)


def test_interpolant_zero_noise_midpoint():
    # one coarse step split in two: midpoint = v0 + (h/2) f(v0) with the
    # weak-tamed frozen drift f(v) = -v^3/(1 + h_coarse v^2)
    quiet_fine = np.zeros((1, 2))
    v0 = 1.4
    coarse, _ = integrate_increments(
        WEAK_TAMED_ENKF, 1.0, coarsen_increments(quiet_fine, 2), v0
    )
    interp, _ = interpolant_increments(WEAK_TAMED_ENKF, coarse, 1.0, quiet_fine, 0.5)
    frozen_drift = -(v0**3) / (1.0 + 1.0 * v0**2)
    assert interp[0, 1] == pytest.approx(v0 + 0.5 * frozen_drift, rel=1e-15)


def test_interpolant_inherits_coarse_blowup():
    quiet = np.zeros((1, 10))  # fine h = 0.1, coarse h = 0.2
    coarse, blow = integrate_increments(NAIVE_EM, 0.2, coarsen_increments(quiet, 2), 10.0)
    assert blow[0] > 0
    interp, saturated = interpolant_increments(NAIVE_EM, coarse, 0.2, quiet, 0.1)
    assert saturated[0]
    assert np.all(np.abs(interp[0, 2 * blow[0] :]) == SATURATION_LIMIT)


@pytest.mark.parametrize("factor", [2, 8])  # both interpolant branches
def test_interpolant_nan_takes_the_sign_of_its_cells_left_coarse_node(factor):
    coarse = np.array([[1.0, -1.0, 2.0]])
    fine = np.full((1, 2 * factor), 0.1)
    fine[0, factor] = np.nan  # the second cell's first fine step
    interp, saturated = interpolant_increments(NAIVE_EM, coarse, 1.0, fine, 1.0 / factor)
    assert saturated[0]
    assert np.isfinite(interp[0, : factor + 1]).all() and interp[0, factor] == -1.0
    assert np.all(interp[0, factor + 1 : 2 * factor] == -SATURATION_LIMIT)
    assert interp[0, 2 * factor] == 2.0


def stepwise_integrate(spec, h, increments, u0):
    """The step loop with a range check after every step, as a reference for
    the chunked check in integrate_increments."""
    n_batch, n_steps = increments.shape
    values = np.empty((n_batch, n_steps + 1))
    values[:, 0] = u0
    blow = np.full(n_batch, -1, dtype=np.int64)
    alive = np.ones(n_batch, dtype=bool)
    any_dead = False
    v = values[:, 0]
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            w = _raw_update(spec.variant, spec.epsilon, v, h, increments[:, n])
            ok = np.abs(w) <= SATURATION_LIMIT
            if not ok.all():
                newly = ~ok & alive
                clamped = np.clip(w, -SATURATION_LIMIT, SATURATION_LIMIT)
                clamped = np.where(np.isnan(w), np.copysign(SATURATION_LIMIT, v), clamped)
                w = np.where(newly, clamped, w)
                blow[newly] = n + 1
                if any_dead:
                    w = np.where(alive, w, v)
                alive &= ok
                any_dead = True
            elif any_dead:
                w = np.where(alive, w, v)
            values[:, n + 1] = w
            v = w
    return values, blow


@pytest.mark.parametrize("chunk", [1, 3, 64, None])
@pytest.mark.parametrize("n_steps", [1, 64, 65, 700])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_chunked_range_check_matches_the_stepwise_loop(monkeypatch, spec, n_steps, chunk):
    # A non-finite increment at step index k blows its row up at node k + 1.
    # Chunks of `chunk` steps start at the multiples of it: the positions hit
    # the first steps, both sides of the boundaries at 3, 6, 63, 64 and 128,
    # and a later chunk. u0 = +-10 and +-1e100 make naive_em blow up on its
    # own; u0 = +-1e150, the sentinel, blows naive_em and the two tamed
    # comparators up at the first step, while the regularized kernels stay in
    # range. The u0 come three times, once per bad increment. Unpatched
    # (chunk None), the budget holds every call in one chunk.
    u0 = np.tile([0.5, -0.5, 10.0, -10.0, 1e100, -1e100, 1e150, -1e150], 3)
    if chunk is not None:
        monkeypatch.setattr(_batching, "_SCRATCH_BYTES", 8 * len(u0) * chunk)
    scratch_steps = set()

    def recording(variant, eps, u, h, dw):
        scratch_steps.add(dw.base.shape[0])  # dw is a row of the time-major scratch
        return _raw_update(variant, eps, u, h, dw)

    monkeypatch.setattr(schemes, "_raw_update", recording)
    bad = np.repeat([np.inf, -np.inf, np.nan], len(u0) // 3)
    h = 0.05
    rng = np.random.default_rng(n_steps)
    for position in (None, 0, 1, 2, 3, 5, 6, 63, 64, 127, 128, 299):
        if position is not None and position >= n_steps:
            continue
        increments = np.sqrt(h) * rng.standard_normal((len(u0), n_steps))
        if position is not None:
            increments[::2, position] = bad[::2]  # every other row
        values, blow = integrate_increments(spec, h, increments, u0)
        want, want_blow = stepwise_integrate(spec, h, increments, u0)
        assert values.tobytes() == want.tobytes()
        assert blow.tobytes() == want_blow.tobytes()
        if position is not None:
            # u0 = 0.5 stays in range till then
            assert blow[u0 == 0.5].tolist() == [position + 1] * 3
    assert scratch_steps == {min(chunk or n_steps, n_steps)}


@pytest.mark.parametrize(
    "n_steps, blow_node", [(1, 1), (40, 2), (40, 5), (700, 64), (700, 65), (700, 300)]
)
def test_a_loop_that_leaves_the_range_redoes_at_most_the_steps_taken(
    monkeypatch, n_steps, blow_node
):
    # Each step is taken once; a row that leaves the range is saturated
    # after its chunk, so no step is redone.
    calls = []

    def counting(*args):
        calls.append(None)
        return _raw_update(*args)

    monkeypatch.setattr(schemes, "_raw_update", counting)
    increments = np.full((1, n_steps), 0.01)
    increments[0, blow_node - 1] = np.inf
    _, blow = integrate_increments(WEAK_TAMED_ENKF, 0.05, increments, 0.5)
    assert blow[0] == blow_node
    assert len(calls) == n_steps


# Step counts of the stacked blocks, in the order passed: equal counts, one
# step, and counts on both sides of the range check's 64-step cap.
STACKED_STEPS = [20, 1, 1024, 64, 3, 65, 10, 40, 64, 10]


@pytest.mark.parametrize("blow_block", [None, 1, 2, 7])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_stacked_blocks_match_one_call_per_block(monkeypatch, spec, blow_block):
    # Block k has its own h, rows (one row in block 3) and u0 (per row in
    # the odd blocks). With blow_block set, that block alone gets a
    # non-finite increment in its second row; naive_em rows near u0 = 2
    # may blow up on their own.
    rng = np.random.default_rng(len(STACKED_STEPS) if blow_block is None else blow_block)
    blocks = []
    for k, n_steps in enumerate(STACKED_STEPS):
        rows = 1 if k == 3 else 2 + k % 3
        h = 1.0 / (n_steps + k)
        increments = np.sqrt(h) * rng.standard_normal((rows, n_steps))
        u0 = rng.uniform(-2.0, 2.0, rows) if k % 2 else 0.75
        if k == blow_block:
            increments[1, n_steps // 2] = np.inf
        blocks.append((h, increments, u0))
    calls = []

    def counting(*args):
        calls.append(None)
        return _raw_update(*args)

    monkeypatch.setattr(schemes, "_raw_update", counting)
    stacked = _integrate_blocks(spec, blocks)
    monkeypatch.undo()
    assert len(stacked) == len(blocks)
    # one update per step of the longest block, blow-up or not
    assert len(calls) == max(STACKED_STEPS)
    for (h, increments, u0), (values, blow) in zip(blocks, stacked):
        want, want_blow = integrate_increments(spec, h, increments, u0)
        assert values.tobytes() == want.tobytes()
        assert blow.tobytes() == want_blow.tobytes()
    if blow_block is not None:
        assert stacked[blow_block][1][1] == STACKED_STEPS[blow_block] // 2 + 1
        if spec != NAIVE_EM:
            assert [(b >= 0).any() for _, b in stacked] == [
                k == blow_block for k in range(len(blocks))
            ]


@pytest.mark.parametrize("chunk", [3, 64])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_stacked_rows_that_leave_the_range_in_the_chunk_their_block_ends(
    monkeypatch, spec, chunk
):
    # Blocks of 130, 70 and 65 steps, each with a row that leaves the range
    # at its block's last step and one that leaves it two steps before. At a
    # chunk of 64 the shorter blocks end in the chunk [64, 128), the 65-step
    # block at that chunk's first step; at 3 both end inside a chunk.
    monkeypatch.setattr(_batching, "_SCRATCH_BYTES", 8 * 9 * chunk)  # 9 rows
    rng = np.random.default_rng(chunk)
    blocks = []
    for n_steps in (130, 70, 65):
        h = 1.0 / n_steps
        increments = np.sqrt(h) * rng.standard_normal((3, n_steps))
        increments[0, -1] = np.nan
        increments[1, -3] = -np.inf
        blocks.append((h, increments, rng.uniform(-1.0, 1.0, 3)))
    for (h, increments, u0), (values, blow) in zip(blocks, _integrate_blocks(spec, blocks)):
        want, want_blow = stepwise_integrate(spec, h, increments, u0)
        assert values.tobytes() == want.tobytes()
        assert blow.tobytes() == want_blow.tobytes()
        n_steps = increments.shape[1]
        assert blow[:2].tolist() == [n_steps, n_steps - 2]


def test_stacked_blocks_of_no_steps_or_no_rows():
    # a block of no steps and a block of no rows ride along unchanged
    long = np.full((2, 70), 0.1)
    blocks = [(0.1, np.empty((3, 0)), 1.5), (0.1, long, 1.0), (0.2, np.empty((0, 5)), 1.0)]
    values = _integrate_blocks(WEAK_TAMED_ENKF, blocks)
    want, _ = integrate_increments(WEAK_TAMED_ENKF, 0.1, long, 1.0)
    assert values[0][0].tolist() == [[1.5]] * 3 and values[0][1].tolist() == [-1] * 3
    assert values[1][0].tobytes() == want.tobytes()
    assert values[2][0].shape == (0, 6) and values[2][1].shape == (0,)


def broadcast_interpolant_nodes(spec, coarse_values, h_coarse, fine, h_fine):
    """Every interpolant node as (v + offset*f) + s*partial on 3-d broadcasts,
    without saturation, as a reference."""
    n_batch, nf = fine.shape
    nc = coarse_values.shape[1] - 1
    factor = nf // nc
    v = coarse_values[:, :-1, None]
    with np.errstate(all="ignore"):
        f, s = _frozen_coefficients(spec.variant, spec.epsilon, h_coarse, v)
        partial = np.cumsum(fine.reshape(n_batch, nc, factor)[:, :, :-1], axis=2)
        offsets = h_fine * np.arange(1, factor, dtype=np.float64)
        inner = (v + offsets * f) + s * partial
    cells = np.concatenate([v, inner], axis=2).reshape(n_batch, nf)
    return np.concatenate([cells, coarse_values[:, -1:]], axis=1)


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5, 8, 16, 1024])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_interpolant_into_a_buffer_matches_the_allocating_call(spec, factor):
    nc = max(1, 64 // factor)
    h_fine = 1.0 / (nc * factor)
    h_coarse = factor * h_fine
    fine = increment_block(5, 0, 6, TimeGrid(1.0, 0, nc * factor))
    coarse, _ = integrate_increments(spec, h_coarse, coarsen_increments(fine, factor), 1.2)
    want = broadcast_interpolant_nodes(spec, coarse, h_coarse, fine, h_fine)
    # a wider buffer, written through a view of its leading block
    buf = np.full((8, nc * factor + 5), np.pi)
    out = buf[:6, : nc * factor + 1]
    got, sat = interpolant_increments(spec, coarse, h_coarse, fine, h_fine, out=out)
    alloc, alloc_sat = interpolant_increments(spec, coarse, h_coarse, fine, h_fine)
    assert got is out and not sat.any() and not alloc_sat.any()
    assert got.tobytes() == alloc.tobytes() == want.tobytes()
    assert (buf[6:] == np.pi).all() and (buf[:, nc * factor + 1 :] == np.pi).all()

    # one saturated row: the clamped values are a new array, still right
    coarse[1, -1] = 2 * SATURATION_LIMIT
    got, sat = interpolant_increments(spec, coarse, h_coarse, fine, h_fine, out=out)
    alloc, alloc_sat = interpolant_increments(spec, coarse, h_coarse, fine, h_fine)
    assert got is not out
    assert sat.tolist() == alloc_sat.tolist() == [False, True, False, False, False, False]
    assert got.tobytes() == alloc.tobytes()
    assert got[1, -1] == SATURATION_LIMIT
    unsaturated = [0, 2, 3, 4, 5]
    assert got[unsaturated].tobytes() == want[unsaturated].tobytes()


def test_interpolant_rejects_a_mismatched_buffer():
    fine = np.zeros((2, 8))
    coarse = np.ones((2, 3))
    with pytest.raises(ValueError, match="out must be"):
        interpolant_increments(NAIVE_EM, coarse, 0.5, fine, 0.125, out=np.empty((2, 8)))
    with pytest.raises(ValueError, match="out must be"):
        interpolant_increments(NAIVE_EM, coarse, 0.5, fine, 0.125, out=np.empty((9, 2)).T)
