import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaktame.coeffs import (
    _regularized_pair,
    _validated,
    difference_damping,
    difference_noise_gain,
    identity_sweep,
    one_sided_identity_residual,
)

# Test-local references for the paper's Lipschitz bounds on the regularized
# coefficients; the package itself needs only _regularized_pair.
# Drift differences obey |f(xi)-f(z)| <= DRIFT_LIP_FACTOR * t_tilde * |xi-z|;
# diffusion differences obey |s(xi)-s(z)| <= DIFFUSION_LIP_FACTOR * sqrt(t_tilde) * |xi-z|.
# The diffusion constant is sharp (the ratio tends to 1 as eps*u^2 -> 0).
DRIFT_LIP_FACTOR = 2.0
DIFFUSION_LIP_FACTOR = np.sqrt(2.0)

# Allowance for rounding in the measured differences: a difference of two
# function values carries at most a few ulps of their magnitudes, which
# matters when xi and z are nearly equal and the true difference underflows
# toward that noise floor.
_ULP_SLACK = 8.0 * np.finfo(np.float64).eps


def drift(u, epsilon):
    """Regularized drift -u^3 / (1 + eps*u^2); eps=0 gives the raw cubic."""
    u = _validated("u", u)
    epsilon = _validated("epsilon", epsilon, nonneg=True)
    return _regularized_pair(u, epsilon)[0]


def diffusion(u, epsilon):
    """Regularized diffusion u^2 / (1 + eps*u^2)."""
    u = _validated("u", u)
    epsilon = _validated("epsilon", epsilon, nonneg=True)
    return _regularized_pair(u, epsilon)[1]


def t_tilde(a, b, epsilon):
    """Truncated magnitude min(1/eps, a^2 + b^2) used by the Lipschitz bounds."""
    a = _validated("a", a)
    b = _validated("b", b)
    epsilon = _validated("epsilon", epsilon, nonneg=True, allow_zero=False)
    return np.minimum(1.0 / epsilon, a * a + b * b)


def lipschitz_bound_check(xi, z, epsilon):
    """Check both coefficient differences against their t_tilde bounds.

    Returns a (drift_ok, diffusion_ok) pair; with array inputs each entry is a
    boolean array. A few-ulp absolute allowance on the measured differences
    keeps near-diagonal rounding noise from producing false negatives.
    """
    xi = _validated("xi", xi)
    z = _validated("z", z)
    epsilon = _validated("epsilon", epsilon, nonneg=True, allow_zero=False)
    tt = t_tilde(xi, z, epsilon)
    gap = np.abs(xi - z)

    f_xi = drift(xi, epsilon)
    f_z = drift(z, epsilon)
    f_noise = _ULP_SLACK * (np.abs(f_xi) + np.abs(f_z))
    drift_ok = np.abs(f_xi - f_z) <= DRIFT_LIP_FACTOR * tt * gap + f_noise

    s_xi = diffusion(xi, epsilon)
    s_z = diffusion(z, epsilon)
    s_noise = _ULP_SLACK * (np.abs(s_xi) + np.abs(s_z))
    diffusion_ok = np.abs(s_xi - s_z) <= DIFFUSION_LIP_FACTOR * np.sqrt(tt) * gap + s_noise

    if np.isscalar(drift_ok) or drift_ok.ndim == 0:
        return bool(drift_ok), bool(diffusion_ok)
    return drift_ok, diffusion_ok


vals = st.floats(-1e3, 1e3, allow_nan=False)
eps_vals = st.floats(1e-6, 1.0, allow_nan=False)


def test_coefficient_values():
    assert drift(1.0, 1.0) == -0.5
    assert diffusion(1.0, 1.0) == 0.5
    assert drift(2.0, 0.25) == -4.0
    assert drift(0.0, 0.3) == 0.0
    # eps=0 recovers the raw SDE coefficients
    assert drift(3.0, 0.0) == -27.0
    assert diffusion(3.0, 0.0) == 9.0


def test_coefficients_broadcast():
    u = np.array([0.0, 1.0, -2.0])
    out = drift(u, 1.0)
    assert out.shape == (3,)
    assert out[2] == -(-2.0) ** 3 / (1.0 + 4.0)


def test_t_tilde_truncates():
    assert t_tilde(1.0, 1.0, 1.0) == 1.0  # min(1, 2)
    assert t_tilde(1.0, 1.0, 0.1) == 2.0  # min(10, 2)
    assert t_tilde(0.0, 0.0, 0.5) == 0.0


def test_rejects_nonfinite_and_zero_eps():
    with pytest.raises(ValueError):
        drift(np.inf, 1.0)
    with pytest.raises(ValueError):
        drift(1.0, -0.5)
    with pytest.raises(ValueError):
        t_tilde(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        one_sided_identity_residual(1.0, 1.0, 0.0)


def test_difference_factorizations_exact_algebra():
    # f(u)-f(v) = -(u-v) g_f and sigma(u)-sigma(v) = (u-v) g_s, checked
    # loosely by direct subtraction (the direct form carries rounding noise)
    rng = np.random.default_rng(42)
    u = rng.uniform(-50, 50, 500)
    v = rng.uniform(-50, 50, 500)
    eps = np.exp(rng.uniform(np.log(1e-6), 0.0, 500))
    lhs_f = drift(u, eps) - drift(v, eps)
    rhs_f = -(u - v) * difference_damping(u, v, eps)
    np.testing.assert_allclose(lhs_f, rhs_f, rtol=1e-9, atol=1e-9)
    lhs_s = diffusion(u, eps) - diffusion(v, eps)
    rhs_s = (u - v) * difference_noise_gain(u, v, eps)
    np.testing.assert_allclose(lhs_s, rhs_s, rtol=1e-9, atol=1e-9)


def test_identity_pinned_point():
    # at (v, w, eps) = (1, -1, 1): lhs = (v-w)^2 (g_s^2/2 - g_f) with
    # g_s = 0, g_f = (1 - 1 + 1 + 1)/4 = 1/2, so lhs = -2; residual 0 there
    v, w, eps = 1.0, -1.0, 1.0
    gap2 = (v - w) ** 2
    lhs = gap2 * (0.5 * difference_noise_gain(v, w, eps) ** 2 - difference_damping(v, w, eps))
    assert lhs == -2.0
    assert one_sided_identity_residual(v, w, eps) < 1e-15


@given(vals, vals, eps_vals)
def test_identity_residual_small_everywhere(v, w, eps):
    assert one_sided_identity_residual(v, w, eps) < 1e-12


def test_identity_sweep_matches_direct_evaluation():
    worst, mean = identity_sweep(20_000, seed=3)
    assert 0.0 <= mean <= worst < 1e-12
    # deterministic in the seed
    assert identity_sweep(20_000, seed=3) == (worst, mean)
    assert identity_sweep(20_000, seed=4) != (worst, mean)


def test_identity_sweep_rejects_bad_count():
    with pytest.raises(ValueError):
        identity_sweep(0, seed=1)


@given(vals, vals, eps_vals)
@settings(max_examples=200)
def test_lipschitz_bounds_hold(xi, z, eps):
    drift_ok, diffusion_ok = lipschitz_bound_check(xi, z, eps)
    assert drift_ok and diffusion_ok


def test_lipschitz_bounds_hold_on_arrays():
    rng = np.random.default_rng(7)
    xi = rng.uniform(-1e3, 1e3, 50_000)
    z = rng.uniform(-1e3, 1e3, 50_000)
    eps = np.exp(rng.uniform(np.log(1e-6), 0.0, 50_000))
    drift_ok, diffusion_ok = lipschitz_bound_check(xi, z, eps)
    assert drift_ok.all() and diffusion_ok.all()


def test_diffusion_constant_is_near_sharp():
    # ratio |sigma(xi)-sigma(z)| / (sqrt(T~)|xi-z|) approaches sqrt(2) from
    # below as eps*u^2 -> 0; the constant cannot be lowered much
    eps = 1e-6
    xi, z = 1.0, 1.0 + 1e-3
    measured = abs(diffusion(xi, eps) - diffusion(z, eps))
    bound_core = np.sqrt(t_tilde(xi, z, eps)) * abs(xi - z)
    ratio = measured / bound_core
    assert 0.95 * np.sqrt(2.0) < ratio <= DIFFUSION_LIP_FACTOR * (1 + 1e-9)


def test_drift_constant_not_tight_but_valid():
    # measured drift ratios stay clearly inside the factor-2 bound
    rng = np.random.default_rng(11)
    xi = rng.uniform(-100, 100, 20_000)
    z = rng.uniform(-100, 100, 20_000)
    eps = np.exp(rng.uniform(np.log(1e-6), 0.0, 20_000))
    gap = np.abs(xi - z)
    keep = gap > 1e-6
    ratio = np.abs(drift(xi, eps) - drift(z, eps))[keep] / (
        t_tilde(xi, z, eps) * gap
    )[keep]
    assert ratio.max() < DRIFT_LIP_FACTOR
    assert ratio.max() > 0.5  # the bound is used, not slack by orders
