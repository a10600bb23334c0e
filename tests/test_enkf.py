import numpy as np
import pytest

from weaktame.brownian import standard_normals
from weaktame.enkf import (
    EnsembleState,
    enkf_step,
    reduce_to_q,
    run_chain,
    sym_sqrt,
)
from weaktame.reports import enkf_csv, format_float
from weaktame.schemes import WEAK_TAMED_ENKF, integrate_increments


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


def spread(state):
    # root mean squared anomaly norm of one state
    return float(np.sqrt(np.mean(np.sum(state.anomalies**2, axis=1))))


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
        states = run_chain(state, n_steps, seed=600, chain_index=chain)
        q_seq = reduce_to_q(states)

        draws = standard_normals(600, chain, n_steps * 2).reshape(n_steps, 2, 1)
        dw = np.sqrt(h) * ((draws[:, 0, 0] - draws[:, 1, 0]) / 2.0)
        values, blow = integrate_increments(WEAK_TAMED_ENKF, h, dw[None, :], q0)
        assert blow[0] == -1
        assert np.array_equal(q_seq, values[0])


def test_anomaly_antisymmetry_is_invariant():
    states = run_chain(scalar_pair_state(2.0), 100, seed=7)
    for state in states:
        assert state.anomalies[0, 0] == -state.anomalies[1, 0]


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
    for it in run_chain(state, 50, seed=21):
        for particle in it.mean + it.anomalies:
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
        states = run_chain(scalar_pair_state(1.0, h=0.125), n_steps, seed=900, chain_index=chain)
        sq[chain] = reduce_to_q(states) ** 2
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
        reduce_to_q([state])


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
    states = run_chain(state, 30, seed=2)
    lines = enkf_csv(states).splitlines()
    column = lines[0].split(",").index("spread")
    assert [line.split(",")[column] for line in lines[1:]] == [
        format_float(spread(s)) for s in states
    ]
