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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import standard_normals

__all__ = [
    "EnsembleState",
    "sym_sqrt",
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
        anomalies = _as_matrix("anomalies", self.anomalies, cols=d)
        if anomalies.shape[0] < 2:
            raise ValueError("need at least 2 ensemble members")
        forward_map = _as_matrix("forward_map", self.forward_map, cols=d)
        k = forward_map.shape[0]
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


def _gain(cpp: np.ndarray, cup: np.ndarray, noise_cov: np.ndarray, h: float) -> np.ndarray:
    """Kalman-style gain Cup (h Cpp + Gamma)^-1 via linear solve, no inversion."""
    system = h * cpp + noise_cov
    if system.shape == (1, 1):
        return cup / system[0, 0]  # keeps 1-d problems to a single division
    try:
        return np.linalg.solve(system, cup.T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD guard
        raise ValueError(f"singular innovation system: {exc}") from exc


def _advance(
    mean: np.ndarray, anomalies: np.ndarray, perturbations: np.ndarray,
    state: EnsembleState, sqrt_noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One perturbed-observations update of raw (mean, anomalies) arrays under
    the inverse problem of ``state``; sqrt_noise is sym_sqrt(state.noise_cov).

    The one copy of the step arithmetic: its operation order makes the J = 2
    reduction bit-exact, so keep it as written. Raises the ValueError that
    EnsembleState validation would if the new arrays are not finite.
    """
    forward_map, h = state.forward_map, state.h
    sqrt_h = np.sqrt(h)
    j = anomalies.shape[0]
    mapped = anomalies @ forward_map.T
    # Empirical covariances Cpp (K x K) and Cup (d x K), 1/J normalization.
    cpp = (mapped.T @ mapped) / j
    cup = (anomalies.T @ mapped) / j
    gain = _gain(cpp, cup, state.noise_cov, h)

    innovation = state.observation - forward_map @ mean
    zeta_bar = perturbations.sum(axis=0) / j
    new_mean = (mean + gain @ (h * innovation)) + gain @ (sqrt_h * (sqrt_noise @ zeta_bar))

    # Pairwise centering: delta_j = (1/J) sum_k (zeta_j - zeta_k). Equal to
    # zeta_j - zeta_bar in exact arithmetic, but bitwise antisymmetric for
    # J = 2, which the reduction identity needs.
    delta = (perturbations[:, None, :] - perturbations[None, :, :]).sum(axis=1) / j
    drift_term = (-(h * mapped)) @ gain.T
    noise_term = (sqrt_h * (delta @ sqrt_noise.T)) @ gain.T
    new_anomalies = (anomalies + drift_term) + noise_term
    if not np.isfinite(new_anomalies).all():
        raise ValueError("anomalies must be finite")
    if not np.isfinite(new_mean).all():
        raise ValueError("mean must be finite")
    return new_mean, new_anomalies


def _evolved(template: EnsembleState, mean: np.ndarray, anomalies: np.ndarray) -> EnsembleState:
    """``template`` with new (mean, anomalies) from _advance, built without
    re-running __post_init__: _advance has checked the only fields that changed."""
    state = object.__new__(EnsembleState)
    vars(state).update(vars(template), mean=mean, anomalies=anomalies)
    return state


def enkf_step(state: EnsembleState, perturbations: np.ndarray) -> EnsembleState:
    """One perturbed-observations update; one N(0,1) K-vector per member."""
    perturbations = _as_matrix(
        "perturbations", perturbations, rows=state.n_members, cols=state.obs_dim
    )
    mean, anomalies = _advance(
        state.mean, state.anomalies, perturbations, state, sym_sqrt(state.noise_cov)
    )
    return _evolved(state, mean, anomalies)


def run_chain(
    initial: EnsembleState, n_steps: int, seed: int, chain_index: int = 0
) -> list[EnsembleState]:
    """Apply the enkf_step update n_steps times with replayable perturbations.

    Perturbations come from the same counter-based stream family as the
    Brownian module, keyed by (seed, chain_index), consumed in
    (step, member, component) order. Returns all n_steps+1 states.

    ``initial`` is validated once, when it is constructed; each later state
    is only checked finite, and the first that is not raises ValueError,
    without numpy floating-point warnings before it. The returned states are
    views into one (n_steps+1, d) mean buffer and one (n_steps+1, J, d)
    anomaly buffer, and share the inverse problem of ``initial``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    j, d, k = initial.n_members, initial.dim, initial.obs_dim
    draws = standard_normals(seed, chain_index, n_steps * j * k).reshape(n_steps, j, k)
    sqrt_noise = sym_sqrt(initial.noise_cov)
    means = np.empty((n_steps + 1, d))
    anomalies = np.empty((n_steps + 1, j, d))
    means[0], anomalies[0] = initial.mean, initial.anomalies
    # Overflow ends the chain with _advance's ValueError; numpy's warnings
    # on the way there would only repeat it.
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            means[n + 1], anomalies[n + 1] = _advance(
                means[n], anomalies[n], draws[n], initial, sqrt_noise
            )
    return [_evolved(initial, m, a) for m, a in zip(means, anomalies)]


def reduce_to_q(state_sequence) -> np.ndarray:
    """Deviation coordinate q_n = u_n^(1) - mean_n for 2-member scalar ensembles."""
    out = np.empty(len(state_sequence), dtype=np.float64)
    for i, state in enumerate(state_sequence):
        if state.n_members != 2 or state.dim != 1:
            raise ValueError("reduction requires J=2 ensemble members and d=1")
        out[i] = state.anomalies[0, 0]
    return out
