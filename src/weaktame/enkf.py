"""Ensemble Kalman inversion with perturbed observations, linear forward map.

One discrete update per particle:

    u+ = u + h*Cup*(h*Cpp+Gamma)^-1 (y - G u) + sqrt(h)*Cup*(h*Cpp+Gamma)^-1 Gamma^(1/2) zeta

An EnsembleState carries (mean, anomalies) rather than raw particles, and
the inverse problem (G, y, Gamma, h) the update reads. The two-particle
reduction to the scalar weak-tamed scheme is a statement about deviations
from the mean, and carrying deviations makes their antisymmetry an exact
fixed point of the floating-point iteration. Noise enters the anomaly update
through pairwise centering, which is bitwise antisymmetric for J=2; together
with a scalar-division fast path for 1x1 solves, the reduced q-sequence
reproduces schemes.integrate_increments(WEAK_TAMED_ENKF, ...) bit for bit.

States built with from_particles center at the rounded particle mean and are
not guaranteed to keep exact antisymmetry; the reduction identity is exact
for states whose anomalies are supplied directly.

A chain is one EnsembleChain: its iterates are the rows of one mean and one
anomaly array. _chain is the one step loop; run_chain runs it on replayable
draws, and enkf_step is its one-step case. The noise terms depend on the
perturbations alone, so _chain forms them for blocks of steps (1, 2, 4, ...
steps, up to _batching._SCRATCH_BYTES of pairwise differences, or one step's
if that is more), and each step forms only the gain and the two updates.
Finiteness is checked once per block, on its new rows, and the ValueError
raised is the one of the first non-finite iterate. An exactly singular
innovation system (for SPD Gamma only when h Cpp swamps Gamma in floating
point) gives a NaN gain, so it ends the chain with that error too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _batching
from .brownian import standard_normals

__all__ = [
    "EnsembleState",
    "sym_sqrt",
    "EnsembleChain",
    "enkf_step",
    "run_chain",
    "reduce_to_q",
]


def _as_matrix(name: str, x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """Ensemble (mean, anomalies) plus the inverse problem it evolves under.

    The particles are the rows of mean + anomalies. forward_map has shape
    (K, d) and acts as u -> forward_map @ u; observation lives in R^K;
    noise_cov is a symmetric positive-definite K x K matrix; h >= 0 (h = 0 is
    the documented no-op step). The update reads the problem from here, so
    it is validated once, when the state is built.
    """

    mean: np.ndarray
    anomalies: np.ndarray
    forward_map: np.ndarray
    observation: np.ndarray
    noise_cov: np.ndarray
    h: float

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError(f"mean must be 1-d, got shape {mean.shape}")
        d = mean.shape[0]
        if d < 1:
            raise ValueError("state dimension must be >= 1")
        anomalies = _as_matrix("anomalies", self.anomalies, cols=d)
        if anomalies.shape[0] < 2:
            raise ValueError("need at least 2 ensemble members")
        forward_map = _as_matrix("forward_map", self.forward_map, cols=d)
        k = forward_map.shape[0]
        if k < 1:
            raise ValueError("observation dimension must be >= 1")
        observation = np.ascontiguousarray(self.observation, dtype=np.float64)
        if observation.shape != (k,):
            raise ValueError(f"observation must have shape ({k},), got {observation.shape}")
        noise_cov = _as_matrix("noise_cov", self.noise_cov, rows=k, cols=k)
        h = float(self.h)
        if not np.isfinite(h) or h < 0.0:
            raise ValueError(f"h must be finite and nonnegative, got {h!r}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "anomalies", anomalies)
        object.__setattr__(self, "forward_map", forward_map)
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "noise_cov", noise_cov)
        object.__setattr__(self, "h", h)

    @property
    def n_members(self) -> int:
        return self.anomalies.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.forward_map.shape[0]

    @classmethod
    def from_particles(
        cls, particles, forward_map, observation, noise_cov, h: float
    ) -> "EnsembleState":
        particles = _as_matrix("particles", particles)
        mean = particles.mean(axis=0)
        return cls(
            mean=mean,
            anomalies=particles - mean,
            forward_map=forward_map,
            observation=observation,
            noise_cov=noise_cov,
            h=h,
        )


@dataclass(frozen=True, eq=False)
class EnsembleChain:
    """A chain's n_steps + 1 iterates (its len): iterate n is (means[n],
    anomalies[n]) of the (n_steps+1, d) and (n_steps+1, J, d) arrays. Row 0
    is ``initial``, whose inverse problem every iterate shares."""

    initial: EnsembleState
    means: np.ndarray
    anomalies: np.ndarray

    def __len__(self) -> int:
        return self.means.shape[0]


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix via eigendecomposition."""
    matrix = _as_matrix("matrix", matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=0.0):
        raise ValueError("matrix must be exactly symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if eigenvalues.min() <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {eigenvalues.min()})")
    return (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T


# The gufunc np.linalg.solve dispatches to: the same LAPACK gesv, so bitwise
# the same, without the wrapper's per-call array conversion, type resolution
# and errstate (timeit on a 2-CPU Xeon, 2 x 2 system with 3 right-hand sides:
# 2.8 against 9.5 us). Under the step loop's errstate an exactly singular
# system gives NaN instead of raising, and the finiteness check reports it.
_solve = np.linalg._umath_linalg.solve


def _noise_terms(
    draws: np.ndarray, sqrt_noise: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbation terms of a (steps, J, K) block of N(0,1) draws.

    Returns the mean-noise term sqrt(h) Gamma^(1/2) zeta_bar as (steps, K) and
    the anomaly-noise term sqrt(h) delta Gamma^(1/2) as (steps, J, K), where
    sqrt_noise = sym_sqrt(Gamma), zeta_bar is each step's member mean and
    delta_j = (1/J) sum_k (zeta_j - zeta_k) its pairwise centering. Each row
    is bitwise the product a single step forms on its own (J, K) draws.
    """
    sqrt_h = np.sqrt(h)
    j = draws.shape[1]
    zeta_bar = draws.sum(axis=1) / j
    # sqrt_noise @ zeta_bar row by row; the zeta_bar @ sqrt_noise.T form
    # sums in another order for K >= 2.
    noise_mean = sqrt_h * (sqrt_noise @ zeta_bar[..., None])[..., 0]
    # Pairwise centering: equal to zeta_j - zeta_bar in exact arithmetic,
    # but bitwise antisymmetric for J = 2, which the reduction identity needs.
    delta = (draws[:, :, None, :] - draws[:, None, :, :]).sum(axis=2) / j
    return noise_mean, sqrt_h * (delta @ sqrt_noise.T)


def _chain(initial: EnsembleState, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, anomalies) of ``initial`` and the len(draws) updates that a
    (steps, J, K) stack of N(0,1) draws drives: the one step loop.

    A step's operation order makes the J = 2 reduction bit-exact, so keep it
    as written. Each noise block is stepped unchecked, then its new rows are
    checked finite; the first that is not raises the ValueError EnsembleState
    validation would, for the anomalies before the mean of the same step.
    """
    n_steps, j, k = draws.shape
    forward_map, observation = initial.forward_map, initial.observation
    forward_map_t, noise_cov, h = forward_map.T, initial.noise_cov, initial.h
    sqrt_noise = sym_sqrt(noise_cov)
    # steps whose (steps, J, J, K) pairwise differences fill the budget
    cap = max(1, _batching._SCRATCH_BYTES // (8 * j * j * k))
    means = np.empty((n_steps + 1, initial.dim))
    anomalies = np.empty((n_steps + 1, j, initial.dim))
    means[0], anomalies[0] = initial.mean, initial.anomalies
    # Non-finite values ride to the end of their block, where the check
    # raises; numpy's warnings on the way there would only repeat it. Blocks
    # start at one step and double up to the cap, so a chain that leaves the
    # finite range is stepped past it by no more steps than it took before.
    start, block = 0, 1
    with np.errstate(all="ignore"):
        while start < n_steps:
            stop = min(start + block, n_steps)
            block = min(2 * block, cap)
            noise_mean, noise_pre = _noise_terms(draws[start:stop], sqrt_noise, h)
            new_means, new_anomalies = means[start + 1:stop + 1], anomalies[start + 1:stop + 1]
            mean, anomaly = means[start], anomalies[start]
            for noise_m, noise_p, mean_out, anomaly_out in zip(
                noise_mean, noise_pre, new_means, new_anomalies
            ):
                mapped = anomaly @ forward_map_t
                # Empirical covariances Cpp (K x K) and Cup (d x K), 1/J
                # normalization, and the gain Cup (h Cpp + Gamma)^-1.
                system = h * ((mapped.T @ mapped) / j) + noise_cov
                cup = (anomaly.T @ mapped) / j
                if k == 1:
                    gain = cup / system  # a 1 x 1 system is one division
                    gain_t = gain.T
                else:
                    gain_t = _solve(system, cup.T, signature="dd->d")
                    gain = gain_t.T
                innovation = observation - forward_map @ mean
                np.add(mean + gain @ (h * innovation), gain @ noise_m, out=mean_out)
                np.add(anomaly + (-(h * mapped)) @ gain_t, noise_p @ gain_t, out=anomaly_out)
                mean, anomaly = mean_out, anomaly_out
            finite_anomalies = np.isfinite(new_anomalies).all(axis=(1, 2))
            finite = finite_anomalies & np.isfinite(new_means).all(axis=1)
            if not finite.all():
                field = "mean" if finite_anomalies[finite.argmin()] else "anomalies"
                raise ValueError(f"{field} must be finite")
            start = stop
    return means, anomalies


def enkf_step(state: EnsembleState, perturbations: np.ndarray) -> EnsembleState:
    """One perturbed-observations update; one N(0,1) K-vector per member."""
    perturbations = _as_matrix(
        "perturbations", perturbations, rows=state.n_members, cols=state.obs_dim
    )
    means, anomalies = _chain(state, perturbations[None])
    return replace(state, mean=means[1], anomalies=anomalies[1])


def run_chain(
    initial: EnsembleState, n_steps: int, seed: int, chain_index: int = 0
) -> EnsembleChain:
    """Apply the enkf_step update n_steps times with replayable perturbations.

    Perturbations come from the same counter-based stream family as the
    Brownian module, keyed by (seed, chain_index), consumed in
    (step, member, component) order.

    ``initial`` is validated once, when it is constructed; each later
    iterate is only checked finite, and the first that is not raises
    ValueError, without numpy floating-point warnings before it.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    j, k = initial.n_members, initial.obs_dim
    draws = standard_normals(seed, chain_index, n_steps * j * k).reshape(n_steps, j, k)
    return EnsembleChain(initial, *_chain(initial, draws))


def reduce_to_q(chain: EnsembleChain) -> np.ndarray:
    """Deviation coordinate q_n = u_n^(1) - mean_n for 2-member scalar ensembles."""
    if chain.anomalies.shape[1:] != (2, 1):
        raise ValueError("reduction requires J=2 ensemble members and d=1")
    return chain.anomalies[:, 0, 0].copy()
