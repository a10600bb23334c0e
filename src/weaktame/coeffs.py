"""Regularized SDE coefficients and the algebraic identities behind them.

The model drift is -u^3 and the diffusion is u^2; dividing both by
1 + eps*u^2 gives the globally Lipschitz family these functions evaluate.
All operations accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import numpy as np

from .brownian import _stream_key

__all__ = [
    "drift",
    "diffusion",
    "t_tilde",
    "one_sided_identity_residual",
    "identity_sweep",
    "lipschitz_bound_check",
    "difference_damping",
    "difference_noise_gain",
]

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


def _validated(name: str, x, *, allow_zero: bool = True, nonneg: bool = False):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if nonneg and np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    if not allow_zero and np.any(arr == 0.0):
        raise ValueError(f"{name} must be nonzero")
    return arr


def _regularized_pair(u, epsilon):
    """Unvalidated (drift, diffusion) pair -u^3/(1+eps*u^2), u^2/(1+eps*u^2).

    The one place the regularized coefficients are written; drift,
    diffusion and the schemes' frozen-coefficient interpolant all use it.
    """
    u2 = u * u
    den = 1.0 + epsilon * u2
    return -(u2 * u) / den, u2 / den


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


def one_sided_identity_residual(v, w, epsilon):
    """Relative residual of the one-sided Lipschitz closed form.

    Compares (f(v)-f(w))(v-w) + (1/2)(sigma(v)-sigma(w))^2 against
    -((v-w)^2/2) * (v^2 + w^2 + 2*eps*v^2*w^2 + (v+w)^2*(1-1/D)) / D
    with D = (1+eps*v^2)(1+eps*w^2), normalized by 1 + |lhs|.

    The coefficient differences on the left are evaluated through their exact
    factorizations (difference_damping / difference_noise_gain); direct
    subtraction of near-equal coefficient values loses up to |f|*eps_machine
    absolute, which near the diagonal at |v| ~ 1e3 swamps a 1e-12 relative
    tolerance. The factored left side and the closed-form right side remain
    independent expressions.
    """
    v = _validated("v", v)
    w = _validated("w", w)
    epsilon = _validated("epsilon", epsilon, nonneg=True, allow_zero=False)
    gap2 = (v - w) ** 2
    g_f = difference_damping(v, w, epsilon)
    g_s = difference_noise_gain(v, w, epsilon)
    lhs = gap2 * (0.5 * g_s * g_s - g_f)
    v2 = v * v
    w2 = w * w
    dprod = (1.0 + epsilon * v2) * (1.0 + epsilon * w2)
    numer = v2 + w2 + 2.0 * epsilon * v2 * w2 + (v + w) ** 2 * (1.0 - 1.0 / dprod)
    rhs = -0.5 * gap2 * numer / dprod
    return np.abs(lhs - rhs) / (1.0 + np.abs(lhs))


def difference_damping(u, v, epsilon):
    """Factor g with f(u) - f(v) = -(u - v) * g(u, v).

    g = (v^2 + v*u + u^2 + eps*v^2*u^2) / ((1+eps*v^2)(1+eps*u^2)).
    """
    u = _validated("u", u)
    v = _validated("v", v)
    epsilon = _validated("epsilon", epsilon, nonneg=True)
    u2 = u * u
    v2 = v * v
    return (v2 + v * u + u2 + epsilon * v2 * u2) / (
        (1.0 + epsilon * v2) * (1.0 + epsilon * u2)
    )


def difference_noise_gain(u, v, epsilon):
    """Factor g with sigma(u) - sigma(v) = (u - v) * g(u, v).

    g = (u + v) / ((1+eps*v^2)(1+eps*u^2)).
    """
    u = _validated("u", u)
    v = _validated("v", v)
    epsilon = _validated("epsilon", epsilon, nonneg=True)
    return (u + v) / ((1.0 + epsilon * v * v) * (1.0 + epsilon * u * u))


def identity_sweep(n_samples: int, seed: int) -> tuple[float, float]:
    """Randomized residual sweep of the one-sided difference identity.

    Draws (v, w) uniform on [-1e3, 1e3] and epsilon log-uniform on
    [1e-6, 1], evaluated in chunks. Returns (max residual, mean residual).
    """
    n_samples = int(n_samples)
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, 0x51D3)))
    worst = 0.0
    total = 0.0
    done = 0
    while done < n_samples:
        count = min(250_000, n_samples - done)
        v = rng.uniform(-1e3, 1e3, size=count)
        w = rng.uniform(-1e3, 1e3, size=count)
        eps = np.exp(rng.uniform(np.log(1e-6), 0.0, size=count))
        res = one_sided_identity_residual(v, w, eps)
        worst = max(worst, float(res.max()))
        total += float(res.sum())
        done += count
    return worst, total / n_samples


def lipschitz_bound_check(xi, z, epsilon):
    """Check both coefficient differences against their t_tilde bounds.

    Returns a (drift_ok, diffusion_ok) pair; with array inputs each entry is a
    boolean array. A few-ulp absolute allowance on the measured differences
    keeps near-diagonal rounding noise from producing false negatives.
    """
    xi = _validated("xi", xi)
    z = _validated("z", z)
    epsilon = _validated(
        "epsilon", epsilon, nonneg=True, allow_zero=False
    )
    tt = t_tilde(xi, z, epsilon)
    gap = np.abs(xi - z)

    f_xi = drift(xi, epsilon)
    f_z = drift(z, epsilon)
    f_noise = _ULP_SLACK * (np.abs(f_xi) + np.abs(f_z))
    drift_ok = np.abs(f_xi - f_z) <= DRIFT_LIP_FACTOR * tt * gap + f_noise

    s_xi = diffusion(xi, epsilon)
    s_z = diffusion(z, epsilon)
    s_noise = _ULP_SLACK * (np.abs(s_xi) + np.abs(s_z))
    diffusion_ok = (
        np.abs(s_xi - s_z)
        <= DIFFUSION_LIP_FACTOR * np.sqrt(tt) * gap + s_noise
    )

    if np.isscalar(drift_ok) or drift_ok.ndim == 0:
        return bool(drift_ok), bool(diffusion_ok)
    return drift_ok, diffusion_ok
