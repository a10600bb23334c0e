import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaktame.rates import (
    effective_rate_strong,
    pointwise_exponent_gap,
    rate_corollary,
    rate_lemma_weak,
    theorem_exponents,
)


def test_theorem_exponents_pinned_values():
    pw, un = theorem_exponents(1.0, 0.5)
    assert math.isclose(pw, 3.0 / 34.0, rel_tol=4e-16)
    assert un == 0.1
    # monotone: harder orders give smaller exponents
    assert theorem_exponents(1.5, 0.5)[0] < pw
    assert theorem_exponents(1.0, 0.9)[1] < un


def test_theorem_exponents_domains():
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            theorem_exponents(bad, 0.5)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            theorem_exponents(1.0, bad)


def test_rate_lemma_weak_pinned_value():
    assert rate_lemma_weak(1.5, 3.0, 1.0, 6.0) == 2.0 / 19.0


def test_pointwise_gap_reports_both_forms():
    headline, balanced, diff = pointwise_exponent_gap(1.0)
    assert math.isclose(headline, 3.0 / 34.0, rel_tol=4e-16)
    assert balanced == 2.0 / 31.0
    assert diff == headline - balanced
    assert diff > 0.02  # the two printed forms genuinely disagree


def test_effective_rate_takes_min():
    assert effective_rate_strong(1.0, 0.5, 2.0, 1.0) == 0.5
    assert effective_rate_strong(0.1, 0.5, 2.0, 1.0) == pytest.approx(0.1)


def test_corollary_balances_effective_rate():
    # at the balanced stopping exponent both arms of the min agree with the
    # closed form; small version of the dense-grid acceptance sweep
    for p, rho in ((1.5, 6.0), (1.0, 8.0)):
        for eta in np.linspace(0.05, p - 0.05, 57):
            eta = float(eta)
            gamma_star = 0.5 * eta / ((p - eta) + eta * rho / 2.0)
            delta_star = (1.0 - rho * gamma_star) / 2.0
            lemma = effective_rate_strong(gamma_star, delta_star, p, eta)
            assert abs(lemma - rate_corollary(p, eta, rho)) < 1e-12


def test_limits_recover_one_half():
    assert abs(rate_corollary(1.5, 1e-7, 6.0) - 0.5) < 1e-6
    assert abs(rate_lemma_weak(1.0, 3.0, 1e-7, 8.0) - 0.5) < 1e-6


@given(
    st.floats(0.01, 0.99, allow_nan=False),
    st.floats(0.1, 16.0, allow_nan=False),
)
def test_corollary_stays_in_unit_interval(eta, rho):
    r = rate_corollary(1.0, eta, rho)
    assert 0.0 < r < 0.5


@given(st.floats(0.01, 2.9, allow_nan=False))
def test_lemma_weak_below_one_half(q):
    assert 0.0 < rate_lemma_weak(1.0, 3.0, q, 8.0) < 0.5


def test_rate_params_validation():
    # each exponent rejects order parameters outside its lemma's domain
    with pytest.raises(ValueError):
        effective_rate_strong(1.0, 0.5, 2.0, 2.5)  # eta >= p
    with pytest.raises(ValueError):
        rate_lemma_weak(2.0, 3.0, 3.5, 8.0)  # q >= s
    with pytest.raises(ValueError):
        rate_lemma_weak(3.0, 2.0, 1.0, 8.0)  # p >= s
    with pytest.raises(ValueError):
        rate_lemma_weak(2.0, 3.0, 1.0, 0.0)  # rho <= 0
    with pytest.raises(ValueError):
        rate_corollary(2.0, 0.5, 0.0)  # rho <= 0
