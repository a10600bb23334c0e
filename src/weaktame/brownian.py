"""Brownian increments on dyadic grids, generated from counter-based streams.

Every draw is keyed by (seed, sample_index), so any path can be regenerated
bit-exactly from any process in any order. Coarser paths are always block sums
of a finer path, never re-sampled, which is what couples the schemes across
step sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "standard_normals",
    "sample_path",
    "increment_block",
    "coarsen",
    "coarsen_increments",
    "dump_path",
    "load_path",
]

_MAGIC = b"WTBPATH1"
_HEADER = struct.Struct("<8sdIQI")  # magic, horizon, n_steps, seed, sample_index
_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``base * 2**level`` steps on [0, horizon].

    (level, base) are normalized so ``base`` is odd; two grids with the same
    horizon and step count compare equal regardless of how they were spelled.
    """

    horizon: float = 1.0
    level: int = 0
    base: int = 1

    def __post_init__(self) -> None:
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        level = int(self.level)
        base = int(self.base)
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if base < 1:
            raise ValueError(f"base must be a positive integer, got {base}")
        while base % 2 == 0:
            base //= 2
            level += 1
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "base", base)

    @property
    def n_steps(self) -> int:
        return self.base << self.level

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        """Grid nodes t_0 .. t_N."""
        return np.arange(self.n_steps + 1, dtype=np.float64) * self.h

    def refined(self, extra_levels: int) -> "TimeGrid":
        if extra_levels < 0:
            raise ValueError("extra_levels must be nonnegative")
        return TimeGrid(self.horizon, self.level + extra_levels, self.base)

    def coarsened(self, fewer_levels: int) -> "TimeGrid":
        if not 0 <= fewer_levels <= self.level:
            raise ValueError(
                f"cannot drop {fewer_levels} levels from a level-{self.level} grid"
            )
        return TimeGrid(self.horizon, self.level - fewer_levels, self.base)


@dataclass(eq=False)
class BrownianPath:
    """Increments of one Brownian path on a grid, with its generator key."""

    grid: TimeGrid
    increments: np.ndarray
    seed: int = 0
    sample_index: int = 0

    def __post_init__(self) -> None:
        inc = np.ascontiguousarray(self.increments, dtype=np.float64)
        if inc.shape != (self.grid.n_steps,):
            raise ValueError(
                f"expected {self.grid.n_steps} increments, got shape {inc.shape}"
            )
        self.increments = inc
        self.seed = int(self.seed) & _U64_MASK
        self.sample_index = int(self.sample_index)
        if self.sample_index < 0:
            raise ValueError("sample_index must be nonnegative")

    def values(self) -> np.ndarray:
        """Path values W(t_0)=0 .. W(t_N) by cumulative summation."""
        out = np.empty(self.grid.n_steps + 1, dtype=np.float64)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


def _stream_key(seed: int, stream: int) -> np.ndarray:
    return np.array(
        [int(seed) & _U64_MASK, int(stream) & _U64_MASK], dtype=np.uint64
    )


def standard_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """N(0,1) draws from the counter-based stream keyed by (seed, stream).

    Uniforms come from the top 53 bits of each 64-bit word, offset by half an
    ulp so they lie strictly inside (0,1); the inverse normal CDF keeps the
    map monotone and reproducible across platforms.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0, dtype=np.float64)
    raw = Philox(key=_stream_key(seed, stream)).random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def sample_path(seed: int, sample_index: int, grid: TimeGrid) -> BrownianPath:
    """One path of N(0, h) increments on ``grid``, keyed by (seed, sample_index)."""
    if sample_index < 0:
        raise ValueError("sample_index must be nonnegative")
    z = standard_normals(seed, sample_index, grid.n_steps)
    return BrownianPath(
        grid=grid,
        increments=np.sqrt(grid.h) * z,
        seed=seed,
        sample_index=sample_index,
    )


def increment_block(
    seed: int,
    first_index: int,
    count: int,
    grid: TimeGrid,
    *,
    first_step: int = 0,
    steps: int | None = None,
) -> np.ndarray:
    """Increments for samples first_index .. first_index+count-1, shape (count, steps).

    The window covers steps first_step .. first_step+steps-1 of the grid
    (default: all of it). Row i is bit-identical to that slice of
    sample_path(seed, first_index+i, grid).increments, which is what makes
    batched Monte Carlo independent of batching, and a path streamed window
    by window the same as one drawn whole. Philox yields four words per
    counter value, so first_step must be a multiple of 4: the window resumes
    each row's stream at counter first_step/4.
    """
    if count < 1:
        raise ValueError("count must be positive")
    n = grid.n_steps
    if steps is None:
        steps = n - first_step
    if first_step < 0 or first_step % 4:
        raise ValueError(f"first_step must be a nonnegative multiple of 4, got {first_step}")
    if steps < 1 or first_step + steps > n:
        raise ValueError(f"window of {steps} steps from {first_step} leaves the {n}-step grid")
    # One generator, rekeyed per row through its state: far cheaper than
    # constructing a Philox per row, and the same words.
    bitgen = Philox(key=_stream_key(seed, first_index))
    state = bitgen.state
    inner = state["state"]
    inner["counter"] = np.array([first_step // 4, 0, 0, 0], dtype=np.uint64)
    raw = np.empty((count, steps), dtype=np.uint64)
    for i in range(count):
        inner["key"] = _stream_key(seed, first_index + i)
        bitgen.state = state
        raw[i] = bitgen.random_raw(steps)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.sqrt(grid.h) * ndtri(u)


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Block sums of ``increments`` along the last axis.

    Power-of-two factors are reduced by repeated pairwise halving, so
    coarsening by 2 then 2 is bitwise the same as coarsening by 4 and the
    scalar and batched call sites agree exactly.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    n = increments.shape[-1]
    if n % factor:
        raise ValueError(f"factor {factor} does not divide {n} increments")
    out = increments
    remaining = factor
    while remaining % 2 == 0:
        out = out[..., 0::2] + out[..., 1::2]
        remaining //= 2
    if remaining > 1:
        out = out.reshape(*out.shape[:-1], -1, remaining).sum(axis=-1)
    return out


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Path on the grid coarsened by ``factor``, increments summed blockwise."""
    grid = path.grid
    if factor < 1 or grid.n_steps % factor:
        raise ValueError(f"factor {factor} does not divide {grid.n_steps} steps")
    k = 0
    remaining = factor
    while remaining % 2 == 0:
        remaining //= 2
        k += 1
    if remaining == 1 and k <= grid.level:
        new_grid = grid.coarsened(k)
    else:
        new_grid = TimeGrid(grid.horizon, 0, grid.n_steps // factor)
    return BrownianPath(
        grid=new_grid,
        increments=coarsen_increments(path.increments, factor),
        seed=path.seed,
        sample_index=path.sample_index,
    )


def dump_path(path: BrownianPath, target) -> None:
    """Write a replayable binary dump: 32-byte header + little-endian f64 increments."""
    header = _HEADER.pack(
        _MAGIC,
        path.grid.horizon,
        path.grid.n_steps,
        path.seed,
        path.sample_index,
    )
    payload = header + path.increments.astype("<f8", copy=False).tobytes()
    if hasattr(target, "write"):
        target.write(payload)
    else:
        with open(target, "wb") as fh:
            fh.write(payload)


def load_path(source) -> BrownianPath:
    """Read a dump written by dump_path."""
    if hasattr(source, "read"):
        blob = source.read()
    else:
        with open(source, "rb") as fh:
            blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError("truncated path dump: short header")
    magic, horizon, n_steps, seed, sample_index = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r} in path dump")
    body = blob[_HEADER.size :]
    if len(body) != 8 * n_steps:
        raise ValueError(
            f"expected {8 * n_steps} payload bytes, found {len(body)}"
        )
    increments = np.frombuffer(body, dtype="<f8").astype(np.float64)
    grid = TimeGrid(horizon, 0, n_steps)
    return BrownianPath(
        grid=grid, increments=increments, seed=seed, sample_index=sample_index
    )
