"""CSV and JSON emitters for experiment outputs.

Writers return complete strings (LF line endings, floats at 17 significant
digits) rather than touching files: the determinism contract is stated over
output bytes, and string equality keeps it testable without temp files.
Column sets are fixed per subcommand and documented in the README.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .enkf import EnsembleChain, reduce_to_q, sym_sqrt
from .strong_error import RateFit

__all__ = [
    "format_float",
    "rates_csv",
    "strong_error_csv",
    "rate_fit_dict",
    "rate_fits_json",
    "moments_csv",
    "blowup_csv",
    "enkf_csv",
    "identity_json",
]


def format_float(value: float) -> str:
    """17 significant digits round-trip any float64 exactly."""
    return "%.17g" % float(value)


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def rates_csv(rows) -> str:
    """rows: (grid value, exponent, formula label) triples."""
    body = ((format_float(x), format_float(e), str(label)) for x, e, label in rows)
    return _table(("alpha_or_eta", "exponent", "source_formula"), body)


def strong_error_csv(result) -> str:
    """One row per level; accepts StrongErrorResult or any ErrorStats iterable."""
    body = (
        (
            str(s.level),
            format_float(s.h),
            format_float(s.eta),
            format_float(s.alpha),
            format_float(s.eta_error),
            format_float(s.alpha_error),
            format_float(s.ci_halfwidth),
            str(s.n_samples),
            str(s.blowup_count),
        )
        for s in result
    )
    header = ("level", "h", "eta", "alpha", "eta_error", "alpha_error", "ci", "M", "blowup_count")
    return _table(header, body)


def rate_fit_dict(fit: RateFit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "theoretical": fit.theoretical_exponent,
    }


def rate_fits_json(fits: dict) -> str:
    return json.dumps({name: rate_fit_dict(f) for name, f in fits.items()}, indent=2) + "\n"


def moments_csv(rows) -> str:
    """rows: (scheme label, h, MomentReport) triples, one CSV row each."""
    body = (
        (
            str(label),
            format_float(h),
            format_float(r.p),
            format_float(r.sup_of_mean),
            format_float(r.mean_of_sup),
            format_float(r.integral_term),
            format_float(r.blowup_fraction),
            str(r.n_samples),
        )
        for label, h, r in rows
    )
    header = ("scheme", "h", "p", "sup_of_mean", "mean_of_sup", "integral_term", "blowup_fraction", "M")
    return _table(header, body)


def blowup_csv(rows) -> str:
    """rows: (h, median |endpoint|, fraction exceeding 1e10) triples."""
    body = ((format_float(h), format_float(med), format_float(frac)) for h, med, frac in rows)
    return _table(("h", "median_abs_endpoint", "exceed_fraction"), body)


def enkf_csv(chain: EnsembleChain) -> str:
    """Per-iterate CSV for a chain of ensemble iterates.

    Columns: n, mean_0..mean_{d-1}, spread, q (only for 2-member scalar
    ensembles), misfit. Misfit is the whitened data residual
    ||noise_cov^(-1/2) (y - G mean)||_2, under the chain's inverse problem.
    It is formed for all rows in three stacked steps (residuals, one solve
    per row in a single call, the norms), each bitwise the per-row product.
    """
    first, means = chain.initial, chain.means
    d = first.dim
    scalar_pair = chain.anomalies.shape[1:] == (2, 1)
    header = ["n"] + [f"mean_{i}" for i in range(d)] + ["spread"]
    if scalar_pair:
        header.append("q")
    header.append("misfit")

    # Root mean squared anomaly norm of every iterate at once.
    spreads = np.sqrt(np.mean(np.sum(chain.anomalies**2, axis=2), axis=1))
    # Stacked forms that keep each row's bits: a (K, d) @ (d, 1) product, a
    # solve with one right-hand side and a (1, K) @ (K, 1) product per row.
    # means @ G.T, einsum and norm(axis=1) sum in other orders for K >= 2.
    residuals = first.observation - (first.forward_map @ means[..., None])[..., 0]
    x = np.linalg.solve(sym_sqrt(first.noise_cov), residuals[..., None])[..., 0]
    misfits = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    q = [reduce_to_q(chain)] if scalar_pair else []
    table = np.column_stack([means, spreads, *q, misfits]).tolist()
    # One format string per row gives the bytes format_float gives each value.
    row = "%d" + ",%.17g" * (len(header) - 1)
    return "\n".join([",".join(header), *(row % (n, *v) for n, v in enumerate(table))]) + "\n"


def identity_json(n_samples: int, max_residual: float, mean_residual: float, tolerance: float) -> str:
    return (
        json.dumps(
            {
                "samples": int(n_samples),
                "max_residual": float(max_residual),
                "mean_residual": float(mean_residual),
                "tolerance": float(tolerance),
                "passed": bool(max_residual < tolerance),
            },
            indent=2,
        )
        + "\n"
    )
