"""Acceptance checklist for the package. Run with -v to get one pass/fail
line per check.

Nine checks: (1) scheme identity with the regularized Euler scheme, (2) the
two-member ensemble reduction, (3) the one-sided difference identity, (4) the
second-moment recursion and node decay, (5) closed-form rate consistency,
(6) empirical strong rates, (7) the explicit-Euler divergence mechanism,
(8) moment sups uniform across step sizes, (9) worker-count determinism of
the report bytes. Checks 6 and 9 share fixtures; the full file runs in a few
minutes, everything else in seconds. One more test pins the sha256 of the
check-6 strong-error, check-8 moments and check-9 blowup reports in
``golden/acceptance_sha256.json``, from the same fixtures.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from weaktame import reports
from weaktame.brownian import TimeGrid, standard_normals
from weaktame.coeffs import identity_sweep
from weaktame.enkf import EnsembleState, reduce_to_q, run_chain
from weaktame.moments import (
    em_blowup_profile,
    moment_table,
    node_second_moments,
    second_moment_recursion_check,
)
from weaktame.rates import (
    effective_rate_strong,
    rate_corollary,
    rate_lemma_weak,
    theorem_exponents,
)
from weaktame.schemes import (
    NAIVE_EM,
    WEAK_TAMED_ENKF,
    integrate_increments,
    regularized_em,
)
from weaktame.strong_error import estimate_strong_error, fit_rate

STRONG_LEVELS = tuple(range(4, 11))
STRONG_SAMPLES = 10_000
STRONG_SEED = 1
MOMENT_ORDERS = (1.0, 2.0, 2.5)
MOMENT_SAMPLES = 10_000
MOMENT_SEED = 2026
PATHSET_SEED = 87
ACCEPTANCE_DIGESTS = Path(__file__).parent / "golden" / "acceptance_sha256.json"


@pytest.fixture(scope="module")
def strong_error_w1():
    # certification needs a far deeper reference stack than the default and
    # is warn-only; it is exercised in the unit tests
    return estimate_strong_error(
        WEAK_TAMED_ENKF,
        STRONG_LEVELS,
        eta=0.5,
        alpha=1.0,
        n_samples=STRONG_SAMPLES,
        seed=STRONG_SEED,
        workers=1,
        check_reference=False,
    )


def moment_tables_by_level(workers):
    grids = [TimeGrid(1.0, level, 1) for level in STRONG_LEVELS]
    tables = moment_table(
        WEAK_TAMED_ENKF, grids, MOMENT_ORDERS, MOMENT_SAMPLES, MOMENT_SEED, workers=workers
    )
    return dict(zip(STRONG_LEVELS, tables))


@pytest.fixture(scope="module")
def moment_tables_w1():
    return moment_tables_by_level(workers=1)


@pytest.fixture(scope="module")
def blowup_profile_w1():
    return em_blowup_profile([0.1], 10.0, 100, PATHSET_SEED, workers=1)


def moment_rows(tables):
    return [
        (WEAK_TAMED_ENKF.label, TimeGrid(1.0, level, 1).h, rep)
        for level in STRONG_LEVELS
        for rep in tables[level]
    ]


def test_check_1_weak_tamed_equals_regularized_euler_bitwise():
    rng = np.random.Generator(np.random.Philox(20260816))
    n_steps = 64
    for _ in range(1000):
        u0 = float(rng.uniform(-20.0, 20.0))
        h = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        inc = rng.normal(0.0, np.sqrt(h), size=(1, n_steps))
        a_vals, a_blow = integrate_increments(WEAK_TAMED_ENKF, h, inc, u0)
        b_vals, b_blow = integrate_increments(regularized_em(h), h, inc, u0)
        assert np.array_equal(a_vals, b_vals)
        assert np.array_equal(a_blow, b_blow)


def test_check_2_pair_ensemble_reduces_to_scalar_scheme_bitwise():
    n_steps = 1000
    h_cycle = (0.25, 0.125, 0.0625)
    q0s, q_seqs, dw_rows = [], [], []
    for r in range(1000):
        h = h_cycle[r % 3]
        q0 = float(standard_normals(500, r, 1)[0]) + 1.5
        state = EnsembleState(
            mean=np.zeros(1),
            anomalies=np.array([[q0], [-q0]]),
            forward_map=np.eye(1),
            observation=np.zeros(1),
            noise_cov=np.eye(1),
            h=h,
        )
        q_seqs.append(reduce_to_q(run_chain(state, n_steps, seed=600, chain_index=r)))

        draws = standard_normals(600, r, n_steps * 2).reshape(n_steps, 2, 1)
        dw_rows.append(np.sqrt(h) * ((draws[:, 0, 0] - draws[:, 1, 0]) / 2.0))
        q0s.append(q0)

    # the scalar scheme steps every chain of one h as a row of one batch
    for first, h in enumerate(h_cycle):
        chains = range(first, 1000, len(h_cycle))
        dw = np.stack([dw_rows[r] for r in chains])
        values, blow = integrate_increments(WEAK_TAMED_ENKF, h, dw, np.array([q0s[r] for r in chains]))
        for row, r in enumerate(chains):
            assert blow[row] == -1
            assert np.array_equal(q_seqs[r], values[row])


def test_check_3_one_sided_identity_residual_sweep():
    worst, mean = identity_sweep(10**6, 7)
    assert 0.0 < mean <= worst < 1e-12


def test_check_4_second_moment_recursion_and_node_decay():
    hs = 2.0 ** np.linspace(-13.0, 0.0, 20)
    us = np.linspace(-10.0, 10.0, 20)
    worst = max(second_moment_recursion_check(h, u) for h in hs for u in us)
    assert worst < 1e-10

    means, ci = node_second_moments(
        WEAK_TAMED_ENKF, TimeGrid(1.0, 8, 1), 100_000, seed=MOMENT_SEED
    )
    assert means[0] == 1.0
    assert np.all(np.diff(means) <= ci[1:] + ci[:-1])


def test_check_5_balanced_stopping_consistency_and_half_limits():
    for p, rho in ((1.5, 6.0), (1.0, 8.0)):
        worst = 0.0
        for eta in np.linspace(1e-4, p - 1e-4, 2001):
            gamma_star = 0.5 * eta / ((p - eta) + eta * rho / 2.0)
            delta_star = (1.0 - rho * gamma_star) / 2.0
            lhs = effective_rate_strong(gamma_star, delta_star, p, eta)
            worst = max(worst, abs(lhs - rate_corollary(p, eta, rho)))
        assert worst < 1e-12
    assert abs(rate_corollary(1.5, 1e-7, 6.0) - 0.5) < 1e-6
    assert abs(rate_lemma_weak(1.0, 3.0, 1e-7, 8.0) - 0.5) < 1e-6


def test_check_6_empirical_strong_rates_meet_floor(strong_error_w1):
    assert all(s.blowup_count == 0 for s in strong_error_w1)
    theo_pointwise, theo_uniform = theorem_exponents(1.0, 0.5)
    for which, theo in (("uniform", theo_uniform), ("pointwise", theo_pointwise)):
        fit = fit_rate(strong_error_w1.stats, which, theo)
        assert fit.slope >= fit.theoretical_exponent - 0.05
        assert fit.slope >= 0.40


def test_check_7_explicit_euler_diverges_weak_tamed_stays_bounded():
    h, n_steps, m = 0.1, 10, 100
    # one increment stream per path; the shared set drives both schemes
    inc = np.sqrt(h) * np.stack(
        [standard_normals(PATHSET_SEED, path, n_steps) for path in range(m)]
    )

    em_vals, _ = integrate_increments(NAIVE_EM, h, inc, 10.0)
    assert np.all(np.any(np.abs(em_vals[:, 1:4]) > 1e10, axis=1))

    wt_vals, wt_blow = integrate_increments(WEAK_TAMED_ENKF, h, inc, 10.0)
    assert np.all(wt_blow == -1)
    walks = np.cumsum(inc, axis=1)
    bound = 10.0 + 5.0 * np.abs(walks).max(axis=1)
    assert np.all(np.abs(wt_vals).max(axis=1) <= bound)


def test_check_8_moment_sup_uniform_across_step_sizes(moment_tables_w1):
    for i, p in enumerate(MOMENT_ORDERS):
        per_level = [moment_tables_w1[level][i] for level in STRONG_LEVELS]
        assert all(rep.p == p for rep in per_level)
        assert all(rep.blowup_fraction == 0.0 for rep in per_level)
        sups = [rep.sup_of_mean for rep in per_level]
        allowance = 3.0 * max(rep.sup_of_mean_ci for rep in per_level) + 0.05
        assert max(sups) <= min(sups) + allowance


def test_check_9_report_bytes_invariant_under_worker_count(
    strong_error_w1, moment_tables_w1, blowup_profile_w1
):
    rerun = estimate_strong_error(
        WEAK_TAMED_ENKF,
        STRONG_LEVELS,
        eta=0.5,
        alpha=1.0,
        n_samples=STRONG_SAMPLES,
        seed=STRONG_SEED,
        workers=4,
        check_reference=False,
    )
    csv_w1 = reports.strong_error_csv(strong_error_w1).encode("utf-8")
    assert reports.strong_error_csv(rerun).encode("utf-8") == csv_w1

    rerun_tables = moment_tables_by_level(workers=4)
    csv_w1 = reports.moments_csv(moment_rows(moment_tables_w1)).encode("utf-8")
    assert reports.moments_csv(moment_rows(rerun_tables)).encode("utf-8") == csv_w1

    profile_w4 = em_blowup_profile([0.1], 10.0, 100, PATHSET_SEED, workers=4)
    assert reports.blowup_csv(profile_w4).encode("utf-8") == reports.blowup_csv(
        blowup_profile_w1
    ).encode("utf-8")


def test_acceptance_scale_report_bytes_are_pinned(
    strong_error_w1, moment_tables_w1, blowup_profile_w1
):
    # Check 9 compares these reports only with reruns of the same code; the
    # pin also catches a change of rounding that only the acceptance scale
    # reaches (a short last batch or unit, levels 9 and 10).
    texts = {
        "strong_error_csv": reports.strong_error_csv(strong_error_w1),
        "moments_csv": reports.moments_csv(moment_rows(moment_tables_w1)),
        "blowup_csv": reports.blowup_csv(blowup_profile_w1),
    }
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()}
    versions = json.loads((ACCEPTANCE_DIGESTS.parent / "versions.json").read_text())
    assert digests == json.loads(ACCEPTANCE_DIGESTS.read_text()), f"pinned with {versions}"
