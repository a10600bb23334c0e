"""Brownian increments on dyadic grids, generated from counter-based streams.

Every draw is keyed by (seed, sample_index), so any path can be regenerated
bit-exactly from any process in any order. Coarser paths are always block sums
of a finer path, never re-sampled, which is what couples the schemes across
step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = [
    "TimeGrid",
    "standard_normals",
    "increment_block",
    "coarsen_increments",
]

_U64_MASK = (1 << 64) - 1
# float64 items one array can hold: numpy caps an array at intp.max bytes.
_MAX_FLOAT64_ITEMS = np.iinfo(np.intp).max // 8


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
        if (base << level) + 1 > _MAX_FLOAT64_ITEMS:
            steps = f"2**{level}" if base == 1 else f"{base} * 2**{level}"
            raise ValueError(f"a grid of {steps} steps is too large for a float64 array")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "base", base)

    @property
    def n_steps(self) -> int:
        return self.base << self.level

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps


def _stream_key(seed: int, stream: int) -> np.ndarray:
    """Philox key of the stream (seed, stream); every generator is keyed here."""
    return np.array(
        [int(seed) & _U64_MASK, int(stream) & _U64_MASK], dtype=np.uint64
    )


def _normals_from_words(raw: np.ndarray) -> np.ndarray:
    """N(0,1) values of 64-bit words: the top 53 bits, offset by half an ulp
    so the uniforms lie strictly inside (0,1), through the inverse normal CDF,
    which keeps the map monotone and reproducible across platforms."""
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


def standard_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """N(0,1) draws from the counter-based stream keyed by (seed, stream)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _normals_from_words(Philox(key=_stream_key(seed, stream)).random_raw(count))


def increment_block(
    seed: int,
    first_index: int,
    count: int,
    grid: TimeGrid,
    *,
    first_step: int = 0,
    steps: int | None = None,
    scaled: bool = True,
) -> np.ndarray:
    """Increments for samples first_index .. first_index+count-1, shape (count, steps).

    The window covers steps first_step .. first_step+steps-1 of the grid
    (default: all of it). Row i is bit-identical to that slice of
    sqrt(h) * standard_normals(seed, first_index+i, n_steps), which is what
    makes batched Monte Carlo independent of batching, and a path streamed
    window by window the same as one drawn whole. Philox yields four words per
    counter value, so first_step must be a multiple of 4: the window resumes
    each row's stream at counter first_step/4. With ``scaled=False`` the rows
    are the standard normals themselves, without the sqrt(h) factor.
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
    out = _normals_from_words(raw)
    if scaled:
        out *= np.sqrt(grid.h)  # in place: one (count, steps) array fewer at peak
    return out


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Block sums of ``increments`` along the last axis, for a power-of-two
    ``factor`` (1 included).

    The sums are formed by repeated pairwise halving, so coarsening by 2 then
    2 is bitwise the same as coarsening by 4.
    """
    if factor < 1 or factor & (factor - 1):
        raise ValueError(f"factor must be a power of two, got {factor}")
    n = increments.shape[-1]
    if n % factor:
        raise ValueError(f"factor {factor} does not divide {n} increments")
    out = increments
    while factor > 1:
        out = out[..., 0::2] + out[..., 1::2]
        factor //= 2
    return out
