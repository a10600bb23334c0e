"""CSV and JSON emitters for experiment outputs.

Writers return complete strings (LF line endings, floats at 17 significant
digits) rather than touching files: the determinism contract is stated over
output bytes, and string equality keeps it testable without temp files.
Every CSV writer goes through _table, with one %-format string per row
(``%.17g`` for floats, ``%d`` for counts, ``%s`` for labels). Column sets are
fixed per subcommand and documented in the README.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .enkf import EnsembleChain, reduce_to_q, sym_sqrt

__all__ = [
    "rates_csv",
    "strong_error_csv",
    "rate_fits_json",
    "moments_csv",
    "blowup_csv",
    "enkf_csv",
    "identity_json",
]


def _table(header: Sequence[str], row_format: str, rows: Iterable[Sequence]) -> str:
    """The header line, then ``row_format % row`` per row. Floats go through
    ``%.17g``, which round-trips any float64 exactly."""
    return "\n".join([",".join(header), *(row_format % tuple(row) for row in rows)]) + "\n"


def rates_csv(rows) -> str:
    """rows: (grid value, exponent, formula label) triples."""
    return _table(("alpha_or_eta", "exponent", "source_formula"), "%.17g,%.17g,%s", rows)


def strong_error_csv(result) -> str:
    """One row per level; accepts StrongErrorResult or any ErrorStats iterable."""
    body = (
        (s.level, s.h, s.eta, s.alpha, s.eta_error, s.alpha_error, s.ci_halfwidth,
         s.n_samples, s.blowup_count)
        for s in result
    )
    header = ("level", "h", "eta", "alpha", "eta_error", "alpha_error", "ci", "M", "blowup_count")
    return _table(header, "%d" + ",%.17g" * 6 + ",%d,%d", body)


def rate_fits_json(fits: dict) -> str:
    body = {
        name: {
            "slope": f.slope,
            "intercept": f.intercept,
            "r2": f.r_squared,
            "theoretical": f.theoretical_exponent,
        }
        for name, f in fits.items()
    }
    return json.dumps(body, indent=2) + "\n"


def moments_csv(rows) -> str:
    """rows: (scheme label, h, MomentReport) triples, one CSV row each."""
    body = (
        (label, h, r.p, r.sup_of_mean, r.mean_of_sup, r.integral_term,
         r.blowup_fraction, r.n_samples)
        for label, h, r in rows
    )
    header = ("scheme", "h", "p", "sup_of_mean", "mean_of_sup", "integral_term", "blowup_fraction", "M")
    return _table(header, "%s" + ",%.17g" * 6 + ",%d", body)


def blowup_csv(rows) -> str:
    """rows: (h, median |endpoint|, fraction exceeding 1e10) triples."""
    return _table(("h", "median_abs_endpoint", "exceed_fraction"), "%.17g,%.17g,%.17g", rows)


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
    rows = ((n, *v) for n, v in enumerate(table))
    return _table(header, "%d" + ",%.17g" * (len(header) - 1), rows)


def identity_json(
    n_samples: int, max_residual: float, mean_residual: float, tolerance: float, passed: bool
) -> str:
    body = {
        "samples": int(n_samples),
        "max_residual": float(max_residual),
        "mean_residual": float(mean_residual),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }
    return json.dumps(body, indent=2) + "\n"
