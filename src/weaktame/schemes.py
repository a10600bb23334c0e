"""Batch integrator and frozen-coefficient interpolant.

Five explicit schemes for du = -u^3 dt + u^2 dW share one vectorized engine
that advances a batch of increment rows, one step for all rows at a time:

* ``naive_em``         u + (-h*u^3) + u^2*dW
* ``weak_tamed_enkf``  both coefficients divided by 1 + h*u^2
* ``regularized_em``   both coefficients divided by 1 + eps*u^2, eps fixed
* ``drift_tamed``      drift increment divided by 1 + |drift increment|
* ``increment_tamed``  whole increment clipped to modulus 1

The weak-tamed scheme and regularized_em(eps=h) execute the same kernel, so
their trajectories agree bit for bit. Non-finite or astronomically large
values are recorded as blow-ups and saturated, never raised. The step loop
takes each step once, unchecked, in chunks of _batching._SCRATCH_BYTES per
scratch array, and checks the range once per chunk, on its max and min
(which NaN fails too). A row that left the range is saturated at its first
node out of range and frozen there, so the values are bitwise those of a
check per step. One loop steps several blocks of rows, each with its own h
and step count, at once (_integrate_blocks); integrate_increments is its
one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batching
from .coeffs import _regularized_pair

__all__ = [
    "SATURATION_LIMIT",
    "SchemeSpec",
    "NAIVE_EM",
    "WEAK_TAMED_ENKF",
    "DRIFT_TAMED",
    "INCREMENT_TAMED",
    "regularized_em",
    "integrate_increments",
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


def _saturate(values: np.ndarray, sign_source: np.ndarray) -> np.ndarray:
    """``values`` with each entry out of range set to sign * SATURATION_LIMIT,
    a NaN's sign taken from ``sign_source``; entries in range keep their bits."""
    clamped = np.clip(values, -SATURATION_LIMIT, SATURATION_LIMIT)
    return np.where(np.isnan(values), np.copysign(SATURATION_LIMIT, sign_source), clamped)


def integrate_increments(
    spec: SchemeSpec, h: float, increments: np.ndarray, u0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integration over a batch of increment rows.

    increments has shape (B, N); returns (values, blow) where values is
    (B, N+1) and blow[i] is the first saturated node index of row i, or -1.
    Saturation replaces an out-of-range update by sign * SATURATION_LIMIT
    (NaN inherits the sign of the previous value) and freezes the row there.
    """
    return _integrate_blocks(spec, [(h, increments, u0)])[0]


def _checked_block(h, increments, u0):
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2:
        raise ValueError("increments must be 2-d (batch, steps)")
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    n_batch = increments.shape[0]
    u0_row = np.full(n_batch, np.float64(u0)) if np.ndim(u0) == 0 else np.asarray(
        u0, dtype=np.float64
    )
    if u0_row.shape != (n_batch,):
        raise ValueError("u0 must be scalar or one value per batch row")
    if not np.all(np.abs(u0_row) <= SATURATION_LIMIT):
        raise ValueError(f"u0 must lie in the range |u0| <= {SATURATION_LIMIT:g}")
    return h, increments, u0_row


def _integrate_blocks(spec: SchemeSpec, blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """integrate_increments(spec, h, increments, u0) of every block, in order,
    from one step loop.

    Iteration k takes step k of every block that still has one. The blocks
    are stacked in decreasing step count, so the rows still running are a
    prefix of one state vector, with a per-row h. Steps run unchecked in
    time-major chunks of _batching._SCRATCH_BYTES per scratch array (one
    step at least); each chunk's increments are transposed in from, and its
    values out to, every block's row-major arrays. Before the values go out,
    rows frozen in an earlier chunk are set back to their frozen value, and a
    row that left the range in this chunk is saturated at its first node out
    of range and frozen from there. Every kernel acts per row, so a row's
    values up to that node, the saturated value and each block's blow are
    bitwise those of a check after every step of its own call.
    """
    checked = [_checked_block(*block) for block in blocks]
    order = sorted(range(len(checked)), key=lambda i: -checked[i][1].shape[1])
    hs, incs, u0s = zip(*(checked[i] for i in order))
    steps = [inc.shape[1] for inc in incs]
    bounds = np.cumsum([0] + [inc.shape[0] for inc in incs]).tolist()
    n_rows = bounds[-1]
    h_all = np.repeat(hs, np.diff(bounds))
    outs = [np.empty((inc.shape[0], inc.shape[1] + 1)) for inc in incs]
    for out, u0 in zip(outs, u0s):
        out[:, 0] = u0
    v = np.concatenate(u0s)
    blow = np.full(n_rows, -1, dtype=np.int64)
    # rows that left the range in an earlier chunk, and the values they froze at
    frozen, frozen_at = np.empty(0, dtype=np.intp), np.empty(0)
    variant = spec.variant
    eps = spec.epsilon
    n_max = steps[0] if n_rows else 0
    cap = max(1, _batching._SCRATCH_BYTES // (8 * max(n_rows, 1)))
    inc_c = np.empty((min(cap, n_max), n_rows))
    # Zeros: a chunk's range check spans every stacked row, and the rows of
    # blocks that ended keep in-range values (these zeros or an earlier
    # chunk's), so only a row that left the range fails it.
    val_c = np.zeros_like(inc_c)

    def segments(start, stop):
        """(steps as chunk rows, the running rows' scratch increments and
        values, and their h) of each run of steps in the chunk [start, stop)
        over which no block ends."""
        m = sum(s > start for s in steps)
        n = start
        while n < stop:
            end = min(stop, steps[m - 1])
            rows = bounds[m]
            yield range(n - start, end - start), inc_c[:, :rows], val_c[:, :rows], h_all[:rows]
            n = end
            while m and steps[m - 1] <= n:
                m -= 1

    with np.errstate(all="ignore"):
        for n in range(0, n_max, cap):
            stop = min(n + cap, n_max)
            for inc, r0, r1, s in zip(incs, bounds, bounds[1:], steps):
                if s > n:
                    inc_c[: min(stop, s) - n, r0:r1] = inc[:, n:stop].T
            w = v
            for chunk_steps, dw, vals, h in segments(n, stop):
                w = w[: dw.shape[1]]
                for j in chunk_steps:
                    w = _raw_update(variant, eps, w, h, dw[j])
                    vals[j] = w
            chunk = val_c[: stop - n]
            if frozen.size:
                chunk[:, frozen] = frozen_at
            # max and min also flag NaN
            if not (chunk.max() <= SATURATION_LIMIT and chunk.min() >= -SATURATION_LIMIT):
                bad = ~(np.abs(chunk) <= SATURATION_LIMIT)  # True for NaN and inf too
                rows = np.flatnonzero(bad.any(axis=0))
                k = bad[:, rows].argmax(axis=0)  # each row's first step out of range
                at = _saturate(chunk[k, rows], np.where(k, chunk[k - 1, rows], v[rows]))
                after = np.arange(stop - n)[:, None] >= k
                chunk[:, rows] = np.where(after, at, chunk[:, rows])
                blow[rows] = n + k + 1
                frozen = np.concatenate([frozen, rows])
                frozen_at = np.concatenate([frozen_at, at])
            v = w
            for out, r0, r1, s in zip(outs, bounds, bounds[1:], steps):
                if s > n:
                    out[:, n + 1 : min(stop, s) + 1] = val_c[: min(stop, s) - n, r0:r1].T
    results = [None] * len(checked)
    for i, out, r0, r1 in zip(order, outs, bounds, bounds[1:]):
        results[i] = (out, blow[r0:r1])
    return results


def _frozen_coefficients(variant: str, eps: float | None, h_coarse: float, v):
    """Drift and diffusion frozen at the step's left node, per scheme.

    The weak-tamed and regularized schemes freeze their regularized pair;
    naive_em the raw pair. drift_tamed freezes the tamed drift rate
    -v^3/(1+h|v^3|) with raw diffusion. increment_tamed tames the realized
    increment, which the frozen-coefficient form cannot express, so its
    interpolant uses the raw pair (convention documented in the README).
    """
    if variant in ("weak_tamed_enkf", "regularized_em"):
        return _regularized_pair(v, h_coarse if variant == "weak_tamed_enkf" else eps)
    v2 = v * v
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
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-coefficient interpolant of coarse trajectories on the fine grid.

    coarse_values is (B, Nc+1), fine_increments (B, Nf) with Nf a multiple of
    Nc. Coarse nodes are copied, so the interpolant matches the trajectory
    there bit for bit. Returns (values (B, Nf+1), saturated_row (B,) bool).
    ``out``, a float64 (B, Nf+1) array with contiguous rows, receives the
    values and is returned, unless a row saturated: the clamped values are
    then a new array.
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
    if out is None:
        values = np.empty((n_batch, nf + 1), dtype=np.float64)
    elif out.shape != (n_batch, nf + 1) or out.dtype != np.float64 or out.strides[1] != 8:
        raise ValueError(
            f"out must be a float64 {(n_batch, nf + 1)} array with contiguous rows"
        )
    else:
        values = out

    v_left = coarse_values[:, :-1]
    with np.errstate(all="ignore"):
        f_left, s_left = _frozen_coefficients(
            spec.variant, spec.epsilon, h_coarse, v_left
        )
        # Only the first factor-1 partial sums of a cell are interior nodes:
        # each is (v + offset*f) + s*partial, partial summed in cell order.
        # Both additions commute, so s*partial may be formed first.
        fine_cells = fine_increments.reshape(n_batch, nc, factor)
        offsets = h_fine * np.arange(1, factor, dtype=np.float64)
        cells = values[:, :nf].reshape(n_batch, nc, factor)  # views
        cells[:, :, 0] = v_left
        if factor <= 4:
            # One (B, nc) pass per offset: broadcast updates would run numpy
            # inner loops only factor-1 long.
            partial = None
            for k in range(1, factor):
                step = fine_cells[:, :, k - 1]
                partial = step if partial is None else partial + step
                node = cells[:, :, k]
                np.multiply(f_left, offsets[k - 1], out=node)
                node += v_left
                node += s_left * partial
        else:
            inner = cells[:, :, 1:]
            np.cumsum(fine_cells[:, :, :-1], axis=2, out=inner)
            inner *= s_left[:, :, None]
            drift = np.multiply(offsets, f_left[:, :, None])
            drift += v_left[:, :, None]
            inner += drift
        values[:, nf] = coarse_values[:, -1]

        # Row extremes flag NaN too (max and min propagate it), without an
        # elementwise pass over the rows that stay in range.
        saturated_row = ~(
            (values.max(axis=1) <= SATURATION_LIMIT)
            & (values.min(axis=1) >= -SATURATION_LIMIT)
        )
        if saturated_row.any():
            # A NaN takes the sign of its cell's left coarse node.
            values = _saturate(values, coarse_values[:, np.arange(nf + 1) // factor])
    return values, saturated_row
