"""Closed-form convergence-rate exponents and their cross-consistency.

Every exponent is a pure function of its order parameters. Two printed
pointwise exponents disagree with each other; ``pointwise_exponent_gap``
computes both and their difference instead of guessing which one was meant.
"""

from __future__ import annotations

import math

__all__ = [
    "effective_rate_strong",
    "rate_corollary",
    "rate_lemma_weak",
    "theorem_exponents",
    "pointwise_exponent_gap",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _finite(name: str, x: float) -> float:
    x = float(x)
    _require(math.isfinite(x), f"{name} must be finite, got {x!r}")
    return x


def effective_rate_strong(gamma: float, delta: float, p: float, eta: float) -> float:
    """min(gamma*(p-eta)/eta, delta): localized rate vs moment-transfer rate."""
    gamma = _finite("gamma", gamma)
    delta = _finite("delta", delta)
    p = _finite("p", p)
    eta = _finite("eta", eta)
    _require(gamma > 0.0, "gamma must be positive")
    _require(delta > 0.0, "delta must be positive")
    _require(0.0 < eta < p, f"need 0 < eta < p, got eta={eta}, p={p}")
    return min(gamma * (p - eta) / eta, delta)


def rate_corollary(p: float, eta: float, rho: float) -> float:
    """(1/2)*(p-eta)/(p-eta+eta*rho/2), the balanced sup-error exponent."""
    p = _finite("p", p)
    eta = _finite("eta", eta)
    rho = _finite("rho", rho)
    _require(0.0 < eta < p, f"need 0 < eta < p, got eta={eta}, p={p}")
    _require(rho > 0.0, "rho must be positive")
    gap = p - eta
    return 0.5 * gap / (gap + eta * rho / 2.0)


def rate_lemma_weak(p: float, s: float, q: float, rho: float) -> float:
    """p(s-q) / (2p(s-q) + (p+rho)*q*s), the balanced pointwise exponent."""
    p = _finite("p", p)
    s = _finite("s", s)
    q = _finite("q", q)
    rho = _finite("rho", rho)
    _require(0.0 < q < s, f"need 0 < q < s, got q={q}, s={s}")
    _require(0.0 < p < s, f"need 0 < p < s, got p={p}, s={s}")
    _require(rho > 0.0, "rho must be positive")
    gap = s - q
    return p * gap / (2.0 * p * gap + (p + rho) * q * s)


def _pointwise_headline(alpha: float) -> float:
    alpha = _finite("alpha", alpha)
    _require(0.0 < alpha < 2.0, f"need 0 < alpha < 2, got {alpha}")
    return 0.5 * (3.0 - alpha) / (3.0 + (25.0 / 3.0) * alpha)


def theorem_exponents(alpha: float, eta: float) -> tuple[float, float]:
    """Main strong-convergence exponents (pointwise order alpha, sup order eta).

    Returns ((1/2)(3-alpha)/(3+25/3*alpha), (1/2)(1-eta)/(1+3*eta)).
    """
    pointwise = _pointwise_headline(alpha)
    eta = _finite("eta", eta)
    _require(0.0 < eta < 1.0, f"need 0 < eta < 1, got {eta}")
    return pointwise, 0.5 * (1.0 - eta) / (1.0 + 3.0 * eta)


def pointwise_exponent_gap(alpha: float) -> tuple[float, float, float]:
    """The two printed pointwise exponents and their difference.

    The headline form (1/2)(3-alpha)/(3+25/3*alpha) and the balanced form
    rate_lemma_weak(1, 3, alpha, 8) = (3-alpha)/(6+25*alpha) do not agree
    (at alpha=1: 3/34 vs 2/31). Both are reported; no adjudication.
    """
    headline = _pointwise_headline(alpha)
    balanced = rate_lemma_weak(1.0, 3.0, alpha, 8.0)
    return headline, balanced, headline - balanced
