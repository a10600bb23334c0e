import tracemalloc

import numpy as np
import pytest

from weaktame import _batching, enkf
from weaktame.brownian import standard_normals
from weaktame.enkf import (
    EnsembleState,
    enkf_step,
    reduce_to_q,
    run_chain,
    sym_sqrt,
)
from weaktame.reports import enkf_csv
from weaktame.schemes import WEAK_TAMED_ENKF, integrate_increments


def format_float(x):
    # 17 significant digits round-trip any float64
    return "%.17g" % float(x)


def scalar_pair_state(q0, mean0=0.0, h=0.25):
    # anomalies supplied directly so antisymmetry is exact in floating point
    return EnsembleState(
        mean=np.array([mean0]),
        anomalies=np.array([[q0], [-q0]]),
        forward_map=np.eye(1),
        observation=np.zeros(1),
        noise_cov=np.eye(1),
        h=h,
    )


def cov_operators(state):
    # empirical covariances (Cpp: K x K, Cup: d x K) with 1/J normalization,
    # from the carried anomalies as the update forms them
    mapped = state.anomalies @ state.forward_map.T
    j = state.n_members
    return (mapped.T @ mapped) / j, (state.anomalies.T @ mapped) / j


def spread(anomalies):
    # root mean squared anomaly norm of one iterate
    return float(np.sqrt(np.mean(np.sum(anomalies**2, axis=1))))


def test_state_validation():
    good = scalar_pair_state(1.0)
    assert good.n_members == 2 and good.dim == 1 and good.obs_dim == 1
    with pytest.raises(ValueError):
        EnsembleState(
            mean=np.array([0.0]),
            anomalies=np.array([[1.0]]),  # J=1
            forward_map=np.eye(1),
            observation=np.zeros(1),
            noise_cov=np.eye(1),
            h=0.1,
        )
    with pytest.raises(ValueError):
        EnsembleState(
            mean=np.array([0.0]),
            anomalies=np.array([[1.0], [-1.0]]),
            forward_map=np.eye(1),
            observation=np.zeros(2),  # K mismatch
            noise_cov=np.eye(1),
            h=0.1,
        )
    with pytest.raises(ValueError):
        scalar_pair_state(1.0, h=-0.1)


@pytest.mark.parametrize("d, k, message", [(0, 1, "state"), (1, 0, "observation")])
def test_state_needs_a_state_and_an_observation_dimension(d, k, message):
    # a 0-dimensional state would run a chain of empty iterates, and K = 0
    # would fail later, inside sym_sqrt
    with pytest.raises(ValueError, match=f"^{message} dimension must be >= 1$"):
        EnsembleState(
            mean=np.zeros(d),
            anomalies=np.ones((2, d)),
            forward_map=np.ones((k, d)),
            observation=np.zeros(k),
            noise_cov=np.eye(k),
            h=0.1,
        )


def test_from_particles_round_trip():
    particles = np.array([[1.0, 2.0], [3.0, 0.0], [5.0, 4.0]])
    state = EnsembleState.from_particles(
        particles,
        forward_map=np.eye(2),
        observation=np.zeros(2),
        noise_cov=np.eye(2),
        h=0.1,
    )
    np.testing.assert_allclose(state.mean + state.anomalies, particles)
    np.testing.assert_allclose(state.anomalies.sum(axis=0), 0.0, atol=1e-15)


def test_cov_operators_pinned_example():
    # particles {1, 3}, G = 1: Cpp = Cup = ((1-2)^2 + (3-2)^2)/2 = 1
    state = EnsembleState.from_particles(
        np.array([[1.0], [3.0]]),
        forward_map=np.eye(1),
        observation=np.zeros(1),
        noise_cov=np.eye(1),
        h=0.1,
    )
    cpp, cup = cov_operators(state)
    assert cpp[0, 0] == 1.0
    assert cup[0, 0] == 1.0


def test_cov_operators_zero_spread():
    state = EnsembleState.from_particles(
        np.array([[2.0], [2.0], [2.0]]),
        forward_map=np.eye(1),
        observation=np.ones(1),
        noise_cov=np.eye(1),
        h=0.1,
    )
    cpp, cup = cov_operators(state)
    assert not cpp.any() and not cup.any()


def test_cpp_positive_semidefinite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = EnsembleState.from_particles(
            rng.normal(size=(6, 3)),
            forward_map=rng.normal(size=(2, 3)),
            observation=np.zeros(2),
            noise_cov=np.eye(2),
            h=0.5,
        )
        cpp, _ = cov_operators(state)
        assert np.all(np.linalg.eigvalsh(cpp) > -1e-12)
        np.testing.assert_allclose(cpp, cpp.T)


def test_zero_spread_step_is_noop():
    state = EnsembleState.from_particles(
        np.array([[2.0], [2.0]]),
        forward_map=np.eye(1),
        observation=np.ones(1),
        noise_cov=np.eye(1),
        h=0.25,
    )
    out = enkf_step(state, np.array([[0.7], [-1.2]]))
    assert np.array_equal(out.mean, state.mean)
    assert np.array_equal(out.anomalies, state.anomalies)


def test_h_zero_step_is_noop():
    state = scalar_pair_state(1.5, mean0=0.3, h=0.0)
    out = enkf_step(state, np.array([[0.7], [-1.2]]))
    assert np.array_equal(out.mean, state.mean)
    assert np.array_equal(out.anomalies, state.anomalies)


def test_sym_sqrt_squares_back():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    spd = a @ a.T + 4.0 * np.eye(4)
    root = sym_sqrt(spd)
    np.testing.assert_allclose(root @ root, spd, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        sym_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite
    with pytest.raises(ValueError):
        sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_reduction_identity_bit_exact_small():
    # 40 chains x 200 steps; the full-scale version is acceptance criterion 2
    h = 0.125
    n_steps = 200
    for chain in range(40):
        q0 = float(standard_normals(500, chain, 1)[0]) + 1.5
        state = scalar_pair_state(q0, h=h)
        q_seq = reduce_to_q(run_chain(state, n_steps, seed=600, chain_index=chain))

        draws = standard_normals(600, chain, n_steps * 2).reshape(n_steps, 2, 1)
        dw = np.sqrt(h) * ((draws[:, 0, 0] - draws[:, 1, 0]) / 2.0)
        values, blow = integrate_increments(WEAK_TAMED_ENKF, h, dw[None, :], q0)
        assert blow[0] == -1
        assert np.array_equal(q_seq, values[0])


def test_anomaly_antisymmetry_is_invariant():
    anomalies = run_chain(scalar_pair_state(2.0), 100, seed=7).anomalies
    assert np.array_equal(anomalies[:, 0, 0], -anomalies[:, 1, 0])


def test_mean_update_recursion():
    # displayed mean recursion: m+ = m + gain*(h*(y - m)) + gain*sqrt(h)*zeta_bar
    # with gain = q^2/(h q^2 + 1), for G = 1, Gamma = 1, d = K = 1
    h = 0.25
    state = scalar_pair_state(1.2, mean0=0.4, h=h)
    zeta = np.array([[0.3], [-0.9]])
    out = enkf_step(state, zeta)
    q = 1.2
    gain = q * q / (h * q * q + 1.0)
    zeta_bar = zeta.mean()
    expected = 0.4 + gain * (h * (0.0 - 0.4)) + gain * (np.sqrt(h) * zeta_bar)
    assert abs(out.mean[0] - expected) < 1e-12


def test_subspace_property_linear_forward_map():
    rng = np.random.default_rng(3)
    particles = rng.normal(size=(4, 3))
    state = EnsembleState.from_particles(
        particles,
        forward_map=rng.normal(size=(2, 3)),
        observation=rng.normal(size=2),
        noise_cov=np.eye(2),
        h=0.2,
    )
    # affine span of 4 particles in R^3: translate by the initial mean and
    # check containment in the anomaly row space
    basis = state.anomalies
    projector = basis.T @ np.linalg.pinv(basis.T)
    chain = run_chain(state, 50, seed=21)
    for mean, anomalies in zip(chain.means, chain.anomalies):
        for particle in mean + anomalies:
            offset = particle - state.mean
            reconstruction = projector @ offset
            assert np.linalg.norm(reconstruction - offset) <= 1e-10 * (
                1.0 + np.linalg.norm(offset)
            )


def test_q_second_moment_trend():
    # ensemble collapse: E q_n^2 is non-increasing under the scalar recursion
    n_chains, n_steps = 300, 60
    sq = np.zeros((n_chains, n_steps + 1))
    for chain in range(n_chains):
        pair = run_chain(scalar_pair_state(1.0, h=0.125), n_steps, seed=900, chain_index=chain)
        sq[chain] = reduce_to_q(pair) ** 2
    mean_sq = sq.mean(axis=0)
    assert mean_sq[-1] < mean_sq[0]
    # allow Monte Carlo wiggle per step but demand the trend
    assert np.all(np.diff(mean_sq) < 0.05)


def test_reduce_to_q_requires_scalar_pair():
    state = EnsembleState.from_particles(
        np.zeros((3, 1)) + [[1.0], [2.0], [3.0]],
        forward_map=np.eye(1),
        observation=np.zeros(1),
        noise_cov=np.eye(1),
        h=0.1,
    )
    with pytest.raises(ValueError):
        reduce_to_q(run_chain(state, 3, seed=1))


@pytest.mark.parametrize("n_steps", [0, 1, 7])
def test_chain_length_counts_the_initial_iterate(n_steps):
    state = general_state(5, 3, 2, True)
    chain = run_chain(state, n_steps, seed=2)
    assert len(chain) == n_steps + 1
    assert chain.means.shape == (n_steps + 1, 3)
    assert chain.anomalies.shape == (n_steps + 1, 5, 3)
    assert chain.initial is state
    assert np.array_equal(chain.means[0], state.mean)
    assert np.array_equal(chain.anomalies[0], state.anomalies)


def test_run_chain_deterministic():
    a = run_chain(scalar_pair_state(1.0), 20, seed=4, chain_index=9)
    b = run_chain(scalar_pair_state(1.0), 20, seed=4, chain_index=9)
    assert np.array_equal(reduce_to_q(a), reduce_to_q(b))
    c = run_chain(scalar_pair_state(1.0), 20, seed=4, chain_index=10)
    assert not np.array_equal(reduce_to_q(a), reduce_to_q(c))


def overflowing_pair():
    # h * Cpp overflows at the first step, so the gain is inf / inf
    return scalar_pair_state(1e160, h=0.1)


def overflowing_general():
    anomalies = np.linspace(-1.0, 1.0, 15).reshape(5, 3) * 1e160
    return EnsembleState(
        mean=np.zeros(3),
        anomalies=anomalies - anomalies.mean(axis=0),
        forward_map=np.eye(2, 3),
        observation=np.zeros(2),
        noise_cov=np.eye(2),
        h=0.1,
    )


def overflowing_mean():
    # the innovation y - G m overflows; the anomaly update never reads it
    state = scalar_pair_state(1.0, mean0=-1.7e308)
    return EnsembleState(
        mean=state.mean,
        anomalies=state.anomalies,
        forward_map=state.forward_map,
        observation=np.array([1.7e308]),
        noise_cov=state.noise_cov,
        h=state.h,
    )


@pytest.mark.parametrize(
    "make, field",
    [(overflowing_pair, "anomalies"), (overflowing_general, "anomalies"), (overflowing_mean, "mean")],
)
def test_leaving_the_finite_range_raises_the_validation_error(make, field):
    state = make()
    message = f"^{field} must be finite$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            run_chain(state, 5, seed=1)
        with pytest.raises(ValueError, match=message):
            enkf_step(state, np.zeros((state.n_members, state.obs_dim)))


@pytest.mark.parametrize("j, d", [(2, 1), (5, 3), (9, 4), (17, 2), (33, 8)])
def test_enkf_csv_spread_equals_per_state_spread_bitwise(j, d):
    k = min(d, 2)
    state = EnsembleState.from_particles(
        np.random.default_rng(j).normal(size=(j, d)),
        forward_map=np.eye(k, d),
        observation=np.zeros(k),
        noise_cov=np.eye(k),
        h=0.1,
    )
    chain = run_chain(state, 30, seed=2)
    lines = enkf_csv(chain).splitlines()
    column = lines[0].split(",").index("spread")
    assert [line.split(",")[column] for line in lines[1:]] == [
        format_float(spread(a)) for a in chain.anomalies
    ]


def reference_gain(cpp, cup, noise_cov, h):
    system = h * cpp + noise_cov
    if system.shape == (1, 1):
        return cup / system[0, 0]
    return np.linalg.solve(system, cup.T).T


def reference_advance(mean, anomalies, perturbations, state, sqrt_noise):
    # one update as a single step forms it, perturbation terms included
    forward_map, h = state.forward_map, state.h
    sqrt_h = np.sqrt(h)
    j = anomalies.shape[0]
    mapped = anomalies @ forward_map.T
    cpp = (mapped.T @ mapped) / j
    cup = (anomalies.T @ mapped) / j
    gain = reference_gain(cpp, cup, state.noise_cov, h)
    innovation = state.observation - forward_map @ mean
    zeta_bar = perturbations.sum(axis=0) / j
    new_mean = (mean + gain @ (h * innovation)) + gain @ (sqrt_h * (sqrt_noise @ zeta_bar))
    delta = (perturbations[:, None, :] - perturbations[None, :, :]).sum(axis=1) / j
    drift_term = (-(h * mapped)) @ gain.T
    noise_term = (sqrt_h * (delta @ sqrt_noise.T)) @ gain.T
    return new_mean, (anomalies + drift_term) + noise_term


def general_state(j, d, k, spd, h=0.1):
    # spd: a non-identity SPD noise_cov, a non-identity G and y != 0
    rng = np.random.default_rng(100 * j + 10 * d + k)
    if spd:
        a = rng.normal(size=(k, k))
        noise_cov = a @ a.T + k * np.eye(k)
        noise_cov = (noise_cov + noise_cov.T) / 2.0
        forward_map, observation = rng.normal(size=(k, d)), rng.normal(size=k)
    else:
        noise_cov, forward_map, observation = np.eye(k), np.eye(k, d), np.zeros(k)
    return EnsembleState.from_particles(
        rng.normal(size=(j, d)), forward_map, observation, noise_cov, h
    )


STEPPED_CASES = [
    (2, 1, 1, False), (3, 1, 1, False), (5, 3, 2, False), (9, 1, 1, False),
    (17, 2, 1, False), (40, 1, 1, False), (40, 3, 2, False),
    (5, 3, 2, True), (6, 2, 3, True), (33, 5, 1, True), (40, 4, 3, True), (64, 2, 3, True),
]


@pytest.mark.parametrize("j, d, k, spd", STEPPED_CASES)
def test_run_chain_equals_single_steps_bitwise(j, d, k, spd):
    state = general_state(j, d, k, spd)
    n_steps = 60
    if j >= 40:  # long enough to span several stacked noise blocks
        assert n_steps > _batching._SCRATCH_BYTES // (8 * j * j * k)
    chain = run_chain(state, n_steps, seed=8, chain_index=j)
    draws = standard_normals(8, j, n_steps * j * k).reshape(n_steps, j, k)
    sqrt_noise = sym_sqrt(state.noise_cov)
    mean, anomalies = state.mean, state.anomalies
    for n in range(n_steps):
        mean, anomalies = reference_advance(mean, anomalies, draws[n], state, sqrt_noise)
        assert np.array_equal(chain.means[n + 1], mean)
        assert np.array_equal(chain.anomalies[n + 1], anomalies)


@pytest.mark.parametrize("j, d, k, spd", STEPPED_CASES)
def test_enkf_step_equals_one_step_chain(j, d, k, spd):
    state = general_state(j, d, k, spd)
    draws = standard_normals(3, 1, j * k).reshape(j, k)
    stepped = enkf_step(state, draws)
    chained = run_chain(state, 1, seed=3, chain_index=1)
    assert np.array_equal(stepped.mean, chained.means[1])
    assert np.array_equal(stepped.anomalies, chained.anomalies[1])


def test_run_chain_memory_does_not_grow_with_the_noise_stack():
    # J = 40, d = 3, K = 2 over 2000 steps. tracemalloc peak measured on a
    # 2-CPU Xeon with numpy 2.4.6: 3.94 MiB when each step formed its own
    # noise terms, 3.95 MiB with blocked stacks; one stack over the whole
    # chain (its (2000, 40, 40, 2) pairwise intermediate) took 53.2 MiB.
    state = general_state(40, 3, 2, False)
    tracemalloc.start()
    try:
        run_chain(state, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 3.94 * 2**20


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enkf_csv_misfit_equals_per_row_solve(k):
    state = general_state(6, 4, k, True)
    chain = run_chain(state, 40, seed=5)
    lines = enkf_csv(chain).splitlines()
    column = lines[0].split(",").index("misfit")
    root = sym_sqrt(state.noise_cov)
    expected = []
    for mean in chain.means:
        residual = state.observation - state.forward_map @ mean
        expected.append(format_float(np.linalg.norm(np.linalg.solve(root, residual))))
    assert [line.split(",")[column] for line in lines[1:]] == expected


def first_error_of_checked_loop(state, draws):
    # (iterate, message) of the first non-finite iterate when every step is
    # checked, anomalies before mean, or None if all stay finite
    sqrt_noise = sym_sqrt(state.noise_cov)
    mean, anomalies = state.mean, state.anomalies
    with np.errstate(all="ignore"):
        for n, perturbations in enumerate(draws, start=1):
            mean, anomalies = reference_advance(mean, anomalies, perturbations, state, sqrt_noise)
            if not np.isfinite(anomalies).all():
                return n, "anomalies must be finite"
            if not np.isfinite(mean).all():
                return n, "mean must be finite"
    return None


def run_chain_error(state, draws, monkeypatch):
    # run_chain's ValueError message when it consumes ``draws``
    monkeypatch.setattr(enkf, "standard_normals", lambda seed, index, n: draws.ravel().copy())
    with pytest.raises(ValueError) as info:
        run_chain(state, len(draws), seed=0)
    return str(info.value)


def poison(perturbations, kind):
    # Make one step's (J, K) draws overflow in component 0 so that the mean
    # term (all members equal: zeta_bar overflows, the centering is 0), the
    # anomaly term (+-huge: zeta_bar is 0, the centering overflows) or both
    # (inf: zeta_bar is inf, the centering NaN) leave the finite range.
    column = np.zeros(len(perturbations))
    if kind == "mean":
        column[:] = 1e308
    elif kind == "anomalies":
        column[:2] = 1e308, -1e308
    else:
        column[:] = np.inf
    perturbations[:, 0] = column


NOISE_BLOCKS = ["3 steps", 1, 10**8]

# (step offset, kind) of each poisoned step, and the field that must fail
POISONED = {
    "both": ([(0, "both")], "anomalies"),
    "anomalies": ([(0, "anomalies")], "anomalies"),
    "mean": ([(0, "mean")], "mean"),
    "mean, then anomalies": ([(0, "mean"), (1, "anomalies")], "mean"),
}


def set_noise_block(monkeypatch, floats, state):
    # "3 steps" caps the noise blocks at 3 steps: iterates 1, 2-3, 4-6, 7-9, ...
    if floats == "3 steps":
        floats = 3 * state.n_members**2 * state.obs_dim
    monkeypatch.setattr(_batching, "_SCRATCH_BYTES", 8 * floats)


@pytest.mark.parametrize(
    "floats, blocks", [("3 steps", [1, 2, 3, 3, 3]), (1, [1] * 12), (10**8, [1, 2, 4, 5])]
)
def test_noise_blocks_double_up_to_the_scratch_budget(floats, blocks, monkeypatch):
    state = general_state(3, 2, 2, True)
    set_noise_block(monkeypatch, floats, state)
    sizes = []
    noise_terms = enkf._noise_terms

    def recording(block, sqrt_noise, h):
        sizes.append(len(block))
        return noise_terms(block, sqrt_noise, h)

    monkeypatch.setattr(enkf, "_noise_terms", recording)
    run_chain(state, 12, seed=4)
    assert sizes == blocks


@pytest.mark.parametrize("floats", NOISE_BLOCKS)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", list(POISONED))
@pytest.mark.parametrize("iterate", [1, 7, 8, 9])
def test_block_check_raises_the_error_of_the_first_non_finite_iterate(
    iterate, kind, k, floats, monkeypatch
):
    # the first non-finite iterate at step 1, and at the first, middle and
    # last row of the 3-step block 7-9
    state = scalar_pair_state(1.0) if k == 1 else general_state(3, 2, 2, True)
    set_noise_block(monkeypatch, floats, state)
    n_steps = 12
    draws = standard_normals(4, k, n_steps * state.n_members * k).reshape(n_steps, -1, k)
    steps, field = POISONED[kind]
    for offset, what in steps:
        poison(draws[iterate - 1 + offset], what)
    expected = first_error_of_checked_loop(state, draws)
    assert expected == (iterate, f"{field} must be finite")
    assert run_chain_error(state, draws, monkeypatch) == expected[1]


def overflowing_mean_k2():
    # overflowing_mean's shape with K = d = 2: the innovation overflows in
    # component 0 at the first step
    return EnsembleState(
        mean=np.array([-1.7e308, 0.0]),
        anomalies=np.array([[1.0, 0.5], [-1.0, -0.5]]),
        forward_map=np.eye(2),
        observation=np.array([1.7e308, 0.0]),
        noise_cov=np.eye(2),
        h=0.25,
    )


@pytest.mark.parametrize("floats", NOISE_BLOCKS)
@pytest.mark.parametrize(
    "make", [overflowing_pair, overflowing_general, overflowing_mean, overflowing_mean_k2]
)
def test_overflow_raises_the_error_of_the_checked_loop(make, floats, monkeypatch):
    state = make()
    set_noise_block(monkeypatch, floats, state)
    n_steps = 7
    draws = standard_normals(1, 0, n_steps * state.n_members * state.obs_dim)
    draws = draws.reshape(n_steps, state.n_members, state.obs_dim)
    expected = first_error_of_checked_loop(state, draws)
    assert expected is not None and expected[0] == 1
    assert run_chain_error(state, draws, monkeypatch) == expected[1]


def test_a_chain_that_leaves_the_range_at_step_1_stops_within_two_steps(monkeypatch):
    # 16384 steps are one noise block at the J = 2, K = 1 cap; the chain is
    # non-finite at step 1, and blocks of 1, 2, 4, ... steps stop it there
    state = overflowing_pair()
    n_steps = 16384
    assert _batching._SCRATCH_BYTES // (8 * 2 * 2 * 1) == n_steps
    draws = standard_normals(1, 0, n_steps * 2).reshape(n_steps, 2, 1)
    expected = first_error_of_checked_loop(state, draws)
    assert expected == (1, "anomalies must be finite")
    rows = []
    noise_terms = enkf._noise_terms

    def counting_noise_terms(block, sqrt_noise, h):
        rows.append(len(block))
        return noise_terms(block, sqrt_noise, h)

    monkeypatch.setattr(enkf, "_noise_terms", counting_noise_terms)
    assert run_chain_error(state, draws, monkeypatch) == expected[1]
    assert 1 <= sum(rows) <= 2


def test_a_singular_innovation_system_ends_the_chain_with_the_finiteness_error():
    # mapped rows +-(c, c) make h Cpp = h c^2 [[1, 1], [1, 1]]; with h c^2 =
    # 1e17 > 2^53 adding Gamma = I rounds away, so the system is exactly
    # singular. The solve gives NaN, not LinAlgError.
    state = EnsembleState(
        mean=np.zeros(2),
        anomalies=np.array([[1e9, 1e9], [-1e9, -1e9]]),
        forward_map=np.eye(2),
        observation=np.zeros(2),
        noise_cov=np.eye(2),
        h=0.1,
    )
    system = state.h * ((state.anomalies.T @ state.anomalies) / 2) + state.noise_cov
    assert system[0, 0] == system[0, 1] == system[1, 0] == system[1, 1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(system, np.eye(2))
    with pytest.raises(ValueError, match="^anomalies must be finite$"):
        run_chain(state, 5, seed=1)
