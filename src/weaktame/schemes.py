"""One-step maps, trajectory integrators, and the frozen-coefficient interpolant.

Five explicit schemes for du = -u^3 dt + u^2 dW share one vectorized engine:

* ``naive_em``         u + (-h*u^3) + u^2*dW
* ``weak_tamed_enkf``  both coefficients divided by 1 + h*u^2
* ``regularized_em``   both coefficients divided by 1 + eps*u^2, eps fixed
* ``drift_tamed``      drift increment divided by 1 + |drift increment|
* ``increment_tamed``  whole increment clipped to modulus 1

The weak-tamed scheme and regularized_em(eps=h) execute the same kernel, so
their trajectories agree bit for bit. Non-finite or astronomically large
values are recorded as blow-ups and saturated, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BrownianPath, TimeGrid

__all__ = [
    "SATURATION_LIMIT",
    "SchemeSpec",
    "Trajectory",
    "NAIVE_EM",
    "WEAK_TAMED_ENKF",
    "DRIFT_TAMED",
    "INCREMENT_TAMED",
    "regularized_em",
    "step",
    "integrate",
    "integrate_increments",
    "interpolant_values",
    "interpolant_increments",
]

SATURATION_LIMIT = 1e150

_VARIANTS = {
    "naive_em",
    "weak_tamed_enkf",
    "regularized_em",
    "drift_tamed",
    "increment_tamed",
}


@dataclass(frozen=True)
class SchemeSpec:
    """Scheme selector; only regularized_em carries a parameter."""

    variant: str
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown scheme variant {self.variant!r}")
        if self.variant == "regularized_em":
            if self.epsilon is None:
                raise ValueError("regularized_em requires epsilon")
            eps = float(self.epsilon)
            if not np.isfinite(eps) or eps <= 0.0:
                raise ValueError(f"epsilon must be finite and positive, got {eps!r}")
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon is not None:
            raise ValueError(f"{self.variant} takes no epsilon")

    @property
    def label(self) -> str:
        if self.variant == "regularized_em":
            return f"regularized_em(eps={self.epsilon:g})"
        return self.variant


NAIVE_EM = SchemeSpec("naive_em")
WEAK_TAMED_ENKF = SchemeSpec("weak_tamed_enkf")
DRIFT_TAMED = SchemeSpec("drift_tamed")
INCREMENT_TAMED = SchemeSpec("increment_tamed")


def regularized_em(epsilon: float) -> SchemeSpec:
    return SchemeSpec("regularized_em", epsilon)


@dataclass(eq=False)
class Trajectory:
    """Scheme output on a grid. values[0] is the initial condition.

    blow_up_step is the first node index whose raw update was non-finite or
    beyond SATURATION_LIMIT; from there on values hold the saturation
    sentinel and are excluded from moment statistics.
    """

    grid: TimeGrid
    values: np.ndarray
    blow_up_step: int | None = None
    saturated: bool = False

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"expected {self.grid.n_steps + 1} values, got shape {vals.shape}"
            )
        self.values = vals
        if self.blow_up_step is not None:
            self.blow_up_step = int(self.blow_up_step)
            self.saturated = True


def _regularized_update(u, h, eps, dw):
    # Frozen operation order shared by weak_tamed_enkf, regularized_em, and
    # the scalar EnKF reduction: u2, den, gain, drift add, noise add.
    u2 = u * u
    den = eps * u2 + 1.0
    gain = u2 / den
    return (u + gain * (-(h * u))) + gain * dw


def _raw_update(variant: str, eps: float | None, u, h, dw):
    if variant == "weak_tamed_enkf":
        return _regularized_update(u, h, h, dw)
    if variant == "regularized_em":
        return _regularized_update(u, h, eps, dw)
    u2 = u * u
    if variant == "naive_em":
        return (u + -(h * (u2 * u))) + u2 * dw
    if variant == "drift_tamed":
        t = -(h * (u2 * u))
        return (u + t / (1.0 + np.abs(t))) + u2 * dw
    # increment_tamed
    incr = -(h * (u2 * u)) + u2 * dw
    return u + incr / np.maximum(1.0, np.abs(incr))


def step(spec: SchemeSpec, u: float, h: float, dW: float) -> float:
    """One update of ``spec`` from state u with step h and noise increment dW."""
    u = float(u)
    h = float(h)
    dW = float(dW)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    if not (np.isfinite(u) and np.isfinite(dW)):
        raise ValueError("u and dW must be finite")
    with np.errstate(all="ignore"):
        out = _raw_update(
            spec.variant, spec.epsilon, np.float64(u), np.float64(h), np.float64(dW)
        )
    return float(out)


def integrate_increments(
    spec: SchemeSpec, h: float, increments: np.ndarray, u0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integration over a batch of increment rows.

    increments has shape (B, N); returns (values, blow) where values is
    (B, N+1) and blow[i] is the first saturated node index of row i, or -1.
    Saturation replaces an out-of-range update by sign * SATURATION_LIMIT
    (NaN inherits the sign of the previous value) and freezes the row there.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2:
        raise ValueError("increments must be 2-d (batch, steps)")
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    n_batch, n_steps = increments.shape
    variant = spec.variant
    eps = spec.epsilon

    inc_t = np.ascontiguousarray(increments.T)
    values_t = np.empty((n_steps + 1, n_batch), dtype=np.float64)
    u0_row = np.full(n_batch, np.float64(u0)) if np.ndim(u0) == 0 else np.asarray(
        u0, dtype=np.float64
    )
    if u0_row.shape != (n_batch,):
        raise ValueError("u0 must be scalar or one value per batch row")
    if not np.all(np.isfinite(u0_row)):
        raise ValueError("u0 must be finite")
    values_t[0] = u0_row

    blow = np.full(n_batch, -1, dtype=np.int64)
    alive = np.ones(n_batch, dtype=bool)
    any_dead = False
    v = values_t[0]
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            w = _raw_update(variant, eps, v, h, inc_t[n])
            ok = np.abs(w) <= SATURATION_LIMIT  # False for NaN and inf too
            if not ok.all():
                newly = ~ok & alive
                clamped = np.clip(w, -SATURATION_LIMIT, SATURATION_LIMIT)
                clamped = np.where(
                    np.isnan(w), np.copysign(SATURATION_LIMIT, v), clamped
                )
                w = np.where(newly, clamped, w)
                blow[newly] = n + 1
                if any_dead:
                    w = np.where(alive, w, v)
                alive &= ok
                any_dead = True
            elif any_dead:
                w = np.where(alive, w, v)
            values_t[n + 1] = w
            v = w
    return np.ascontiguousarray(values_t.T), blow


def integrate(
    spec: SchemeSpec, grid: TimeGrid, path: BrownianPath, u0: float
) -> Trajectory:
    """Run ``spec`` along ``path``. The path must live on ``grid``."""
    if path.grid != grid:
        raise ValueError(
            f"path grid {path.grid} does not match integration grid {grid}"
        )
    values, blow = integrate_increments(spec, grid.h, path.increments[None, :], u0)
    blow_step = None if blow[0] < 0 else int(blow[0])
    return Trajectory(grid=grid, values=values[0], blow_up_step=blow_step)


def _frozen_coefficients(variant: str, eps: float | None, h_coarse: float, v):
    """Drift and diffusion frozen at the step's left node, per scheme.

    The weak-tamed and regularized schemes freeze their regularized pair;
    naive_em the raw pair. drift_tamed freezes the tamed drift rate
    -v^3/(1+h|v^3|) with raw diffusion. increment_tamed tames the realized
    increment, which the frozen-coefficient form cannot express, so its
    interpolant uses the raw pair (convention documented in the README).
    """
    v2 = v * v
    if variant in ("weak_tamed_enkf", "regularized_em"):
        e = h_coarse if variant == "weak_tamed_enkf" else eps
        den = 1.0 + e * v2
        return -(v2 * v) / den, v2 / den
    if variant == "drift_tamed":
        cube = v2 * v
        return -cube / (1.0 + h_coarse * np.abs(cube)), v2
    return -(v2 * v), v2  # naive_em, increment_tamed


def interpolant_increments(
    spec: SchemeSpec,
    coarse_values: np.ndarray,
    h_coarse: float,
    fine_increments: np.ndarray,
    h_fine: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-coefficient interpolant of coarse trajectories on the fine grid.

    coarse_values is (B, Nc+1), fine_increments (B, Nf) with Nf a multiple of
    Nc. Coarse nodes are copied, so the interpolant matches the trajectory
    there bit for bit. Returns (values (B, Nf+1), saturated_row (B,) bool).
    """
    coarse_values = np.asarray(coarse_values, dtype=np.float64)
    fine_increments = np.asarray(fine_increments, dtype=np.float64)
    if coarse_values.ndim != 2 or fine_increments.ndim != 2:
        raise ValueError("expected 2-d (batch, ...) arrays")
    n_batch, nc_nodes = coarse_values.shape
    nc = nc_nodes - 1
    nf = fine_increments.shape[1]
    if fine_increments.shape[0] != n_batch:
        raise ValueError("batch sizes differ")
    if nc < 1 or nf % nc:
        raise ValueError(f"{nf} fine steps do not refine {nc} coarse steps")
    factor = nf // nc

    if factor == 1:
        sat = ~(np.abs(coarse_values) <= SATURATION_LIMIT).all(axis=1)
        return coarse_values.copy(), sat

    v_left = coarse_values[:, :-1]
    with np.errstate(all="ignore"):
        f_left, s_left = _frozen_coefficients(
            spec.variant, spec.epsilon, h_coarse, v_left
        )
        # Only the first factor-1 partial sums of a cell are interior nodes.
        partial = np.cumsum(
            fine_increments.reshape(n_batch, nc, factor)[:, :, :-1], axis=2
        )
        offsets = h_fine * np.arange(1, factor, dtype=np.float64)

        # Cells are views into ``values``; each interior node is
        # (v + offset*f) + s*partial, in that order.
        values = np.empty((n_batch, nf + 1), dtype=np.float64)
        cells = values[:, :nf].reshape(n_batch, nc, factor)
        cells[:, :, 0] = v_left
        inner = cells[:, :, 1:]
        np.multiply(offsets, f_left[:, :, None], out=inner)
        inner += v_left[:, :, None]
        partial *= s_left[:, :, None]
        inner += partial
        values[:, nf] = coarse_values[:, -1]

        # Row extremes flag NaN too (max and min propagate it), without an
        # elementwise pass over the rows that stay in range.
        saturated_row = ~(
            (values.max(axis=1) <= SATURATION_LIMIT)
            & (values.min(axis=1) >= -SATURATION_LIMIT)
        )
        if saturated_row.any():
            ok = np.abs(values) <= SATURATION_LIMIT
            clamped = np.clip(values, -SATURATION_LIMIT, SATURATION_LIMIT)
            sign_source = np.repeat(
                np.concatenate([v_left, coarse_values[:, -1:]], axis=1),
                [factor] * nc + [1],
                axis=1,
            )
            clamped = np.where(
                np.isnan(values), np.copysign(SATURATION_LIMIT, sign_source), clamped
            )
            values = np.where(ok, values, clamped)
    return values, saturated_row


def interpolant_values(
    spec: SchemeSpec, coarse: Trajectory, fine_path: BrownianPath
) -> Trajectory:
    """Interpolate ``coarse`` (produced on coarsen(fine_path)) onto the fine grid."""
    fine_grid = fine_path.grid
    nc = coarse.grid.n_steps
    nf = fine_grid.n_steps
    if nf % nc:
        raise ValueError(f"fine grid ({nf} steps) does not refine {nc} steps")
    factor = nf // nc
    if factor & (factor - 1):
        raise ValueError(f"refinement factor {factor} is not a power of two")
    if coarse.grid.horizon != fine_grid.horizon:
        raise ValueError("grids span different horizons")
    values, sat = interpolant_increments(
        spec,
        coarse.values[None, :],
        coarse.grid.h,
        fine_path.increments[None, :],
        fine_grid.h,
    )
    row = values[0]
    blow_step = None
    if sat[0]:
        bad = ~(np.abs(row) < SATURATION_LIMIT)
        bad[0] = False
        idx = np.nonzero(bad)[0]
        blow_step = int(idx[0]) if idx.size else None
    if coarse.blow_up_step is not None:
        inherited = coarse.blow_up_step * factor
        blow_step = inherited if blow_step is None else min(blow_step, inherited)
    return Trajectory(grid=fine_grid, values=row, blow_up_step=blow_step)
