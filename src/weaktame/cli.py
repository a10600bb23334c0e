"""Command-line experiment driver.

Each subcommand resolves its flags into an ExperimentConfig, runs the
matching module, and emits CSV (plus JSON where stated). With --output the
main table goes to that file and the fully-resolved config is written next to
it as <output stem>.config.json; without --output everything goes to stdout.

Exit codes: 0 success, 1 when a property check fails, 2 for usage errors
(including runs too large for memory, and a worker process that died).
Environment variables WEAKTAME_SEED and WEAKTAME_WORKERS supply defaults for
--seed and --workers; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coeffs, moments, rates, reports, schemes, strong_error
from .brownian import TimeGrid, standard_normals
from .enkf import EnsembleState, run_chain

__all__ = [
    "ExperimentConfig",
    "emit_config",
    "parse_config",
    "run",
    "main",
    "SEED_ENV",
    "WORKERS_ENV",
    "IDENTITY_TOLERANCE",
]

SEED_ENV = "WEAKTAME_SEED"
WORKERS_ENV = "WEAKTAME_WORKERS"
IDENTITY_TOLERANCE = 1e-12

# Ensemble chains draw step perturbations from stream 0 and the initial
# ensemble from stream 1 of the same seed, so runs stay replayable.
_INIT_STREAM = 1

_SCHEMES = {
    "weak-tamed": "weak_tamed_enkf",
    "naive-em": "naive_em",
    "drift-tamed": "drift_tamed",
    "increment-tamed": "increment_tamed",
    "regularized-em": "regularized_em",
}


class UsageError(ValueError):
    """Bad flags or config fields; mapped to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description; JSON round-trippable via emit/parse.

    Only the fields of the named subcommand are populated; the rest stay
    None. Sequence-valued fields are tuples.
    """

    subcommand: str
    seed: int = 0
    workers: int = 1
    output_path: str | None = None
    n_samples: int | None = None
    horizon: float | None = None
    u0: float | None = None
    levels: tuple[int, ...] | None = None
    eta: float | None = None
    alpha: float | None = None
    p_values: tuple[float, ...] | None = None
    h_values: tuple[float, ...] | None = None
    scheme: str | None = None
    epsilon: float | None = None
    alpha_grid: tuple[float, ...] | None = None
    eta_grid: tuple[float, ...] | None = None
    ensemble_size: int | None = None
    state_dim: int | None = None
    obs_dim: int | None = None
    step_size: float | None = None
    n_steps: int | None = None


_TUPLE_FIELDS = {
    "levels": int,
    "p_values": float,
    "h_values": float,
    "alpha_grid": float,
    "eta_grid": float,
}


def emit_config(config: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise UsageError(f"unknown config field {unknown[0]!r}")
    if "subcommand" not in data:
        raise UsageError("config field 'subcommand' is required")
    for name, element_type in _TUPLE_FIELDS.items():
        if data.get(name) is not None:
            data[name] = tuple(element_type(x) for x in data[name])
    return ExperimentConfig(**data)


def _need(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"{config.subcommand} config requires field {name!r}")


def _scheme_from_config(config: ExperimentConfig) -> schemes.SchemeSpec:
    name = config.scheme or "weak-tamed"
    if name not in _SCHEMES:
        raise UsageError(f"unknown scheme {name!r}")
    return schemes.SchemeSpec(_SCHEMES[name], config.epsilon)


def _deliver(config: ExperimentConfig, text: str) -> None:
    """The table to stdout, or to the -o path with its sidecar. Both are
    written to temporary files beside their targets and renamed into place,
    the sidecar first, only once both writes succeeded: a failed write leaves
    no new file, and a table already at the path stays as it was."""
    if config.output_path is None:
        sys.stdout.write(text)
        return
    target = out = Path(config.output_path)
    temps = {}
    try:
        # "" and "/" are directories too, and have no sidecar name
        if out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        sidecar = out.with_suffix(".config.json")
        for target, data in ((out, text), (sidecar, emit_config(config))):
            temps[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            temps[target].write_bytes(data.encode("utf-8"))
        for target in (sidecar, out):
            os.replace(temps[target], target)
            del temps[target]
    except OSError as exc:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {str(target)!r}: {exc.strerror}") from None


def _gate(
    name: str, value: float, rule: str, threshold: float, margin: float, passed: bool
) -> bool:
    """Return ``passed``, and print the gate's one failure line to stderr when
    it is false. ``margin`` is signed so that a failing gate has a negative one."""
    if not passed:
        print(
            f"gate failed: {name} = {value:.6g}, {rule} = {threshold:.6g}, margin {margin:+.6g}",
            file=sys.stderr,
        )
    return passed


def _run_rates(config: ExperimentConfig) -> int:
    if config.alpha_grid is None and config.eta_grid is None:
        raise UsageError("rates requires --alpha-grid or --eta-grid")
    rows = []
    # theorem_exponents returns (pointwise, uniform); each component depends
    # only on its own parameter, the other argument is a placeholder. Both
    # printed pointwise forms are emitted, no adjudication between them.
    for a in config.alpha_grid or ():
        headline, balanced, _ = rates.pointwise_exponent_gap(a)
        rows.append((a, headline, "pointwise_strong"))
        rows.append((a, balanced, "pointwise_balanced"))
    for e in config.eta_grid or ():
        rows.append((e, rates.theorem_exponents(1.0, e)[1], "uniform_strong"))
    _deliver(config, reports.rates_csv(rows))
    return 0


def _run_strong_error(config: ExperimentConfig) -> int:
    _need(config, "levels", "n_samples", "eta", "alpha", "horizon", "u0")
    if len(config.levels) < 4:
        raise UsageError("strong-error needs at least 4 levels for the rate fit")
    spec = _scheme_from_config(config)
    result = strong_error.estimate_strong_error(
        spec,
        config.levels,
        eta=config.eta,
        alpha=config.alpha,
        n_samples=config.n_samples,
        seed=config.seed,
        u0=config.u0,
        horizon=config.horizon,
        workers=config.workers,
    )
    # fit first: a fit that cannot be made is a usage error, and leaves no table
    theo_pointwise, theo_uniform = rates.theorem_exponents(config.alpha, config.eta)
    fits = {
        "uniform": strong_error.fit_rate(result, "uniform", theo_uniform),
        "pointwise": strong_error.fit_rate(result, "pointwise", theo_pointwise),
    }
    _deliver(config, reports.strong_error_csv(result))
    sys.stdout.write(reports.rate_fits_json(fits))
    passed = []
    for name, fit in fits.items():
        floor = max(fit.theoretical_exponent - 0.05, 0.40)
        passed.append(_gate(f"{name} fit slope", fit.slope, "floor max(theoretical - 0.05, 0.40)",
                            floor, fit.slope - floor, fit.slope >= floor))
    return 0 if all(passed) else 1


def _run_moments(config: ExperimentConfig) -> int:
    _need(config, "levels", "n_samples", "p_values", "horizon", "u0")
    spec = _scheme_from_config(config)
    rows = []
    by_p: dict[float, list[tuple[float, float]]] = {}
    grids = [TimeGrid(config.horizon, level, 1) for level in config.levels]
    tables = moments.moment_table(
        spec,
        grids,
        config.p_values,
        config.n_samples,
        config.seed,
        u0=config.u0,
        workers=config.workers,
    )
    for grid, table in zip(grids, tables):
        for rep in table:
            # Powers of values near the saturation sentinel, or of a huge
            # u0, overflow float64; an inf table is not a result.
            reported = (rep.sup_of_mean, rep.mean_of_sup, rep.integral_term)
            if not all(map(math.isfinite, reported)):
                raise UsageError(
                    f"moments of order p = {rep.p:g} overflow float64 at h = {grid.h:g}"
                )
            rows.append((spec.label, grid.h, rep))
            by_p.setdefault(rep.p, []).append((rep.sup_of_mean, rep.sup_of_mean_ci))
    _deliver(config, reports.moments_csv(rows))

    # Uniformity-in-h gate, only meaningful for the weak-tamed scheme and
    # more than one step size; other schemes are documentation runs.
    if spec.variant != "weak_tamed_enkf" or len(config.levels) < 2:
        return 0
    passed = []
    for p, entries in by_p.items():
        sups = [s for s, _ in entries]
        allowance = 3.0 * max(ci for _, ci in entries) + 0.05
        spread = max(sups) - min(sups)
        passed.append(
            _gate(f"moments p = {p:g}: max - min of sup_of_mean", spread,
                  "allowance 3 * max ci + 0.05", allowance, allowance - spread,
                  not max(sups) > min(sups) + allowance)
        )
    return 0 if all(passed) else 1


def _run_blowup(config: ExperimentConfig) -> int:
    _need(config, "h_values", "n_samples", "horizon", "u0")
    table = moments.em_blowup_profile(
        config.h_values,
        config.u0,
        config.n_samples,
        config.seed,
        horizon=config.horizon,
        workers=config.workers,
    )
    _deliver(config, reports.blowup_csv(table))
    return 0


def _run_enkf(config: ExperimentConfig) -> int:
    _need(config, "ensemble_size", "state_dim", "obs_dim", "step_size", "n_steps")
    j, d, k = config.ensemble_size, config.state_dim, config.obs_dim
    if j < 2:
        raise UsageError("ensemble_size must be >= 2")
    if d < 1 or k < 1:
        raise UsageError("state_dim and obs_dim must be >= 1")
    particles = standard_normals(config.seed, _INIT_STREAM, j * d).reshape(j, d)
    initial = EnsembleState.from_particles(
        particles,
        forward_map=np.eye(k, d),
        observation=np.zeros(k),
        noise_cov=np.eye(k),
        h=config.step_size,
    )
    chain = run_chain(initial, config.n_steps, config.seed, chain_index=0)
    _deliver(config, reports.enkf_csv(chain))
    return 0


def _run_identity(config: ExperimentConfig) -> int:
    _need(config, "n_samples")
    tol = IDENTITY_TOLERANCE
    worst, mean = coeffs.identity_sweep(config.n_samples, config.seed)
    passed = worst < tol
    _deliver(config, reports.identity_json(config.n_samples, worst, mean, tol, passed))
    gate = _gate("identity-check max residual", worst, "tolerance", tol, tol - worst, passed)
    return 0 if gate else 1


_RUNNERS = {
    "rates": _run_rates,
    "strong-error": _run_strong_error,
    "moments": _run_moments,
    "blowup": _run_blowup,
    "enkf": _run_enkf,
    "identity-check": _run_identity,
}


def run(config: ExperimentConfig) -> int:
    """Execute a resolved config; returns the process exit status."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")
    return runner(config)


def _parse_levels(text: str) -> tuple[int, ...]:
    """Inclusive range "4..10" or comma list "4,6,8"."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty level range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(","))


def _parse_grid(text: str) -> tuple[float, ...]:
    """Inclusive "start:stop:step" grid or comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise argparse.ArgumentTypeError("grid needs step > 0 and stop >= start")
        points = (stop - start) / step  # inf or nan past float64's range
        if not math.isfinite(points):
            raise argparse.ArgumentTypeError(f"grid {text!r} has no finite point count")
        n = int(round(points)) + 1
        return tuple(start + i * step for i in range(n))
    return _parse_floats(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _parse_count(text: str) -> int:
    """Positive integer, also accepted in float notation like 1e6."""
    value = float(text)
    n = int(round(value)) if math.isfinite(value) else 0
    if n <= 0 or abs(value - n) > 1e-9 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"expected a positive integer count, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktame",
        description="Experiment driver for the weak-tamed scheme laboratory.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"stream seed (default: ${SEED_ENV} if set, else 0)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help=f"worker processes (default: ${WORKERS_ENV} if set, else cpu count)",
        )
        p.add_argument(
            "--output",
            "-o",
            default=None,
            help="write the main table here plus a .config.json sidecar (default: stdout)",
        )

    def scheme_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scheme",
            choices=sorted(_SCHEMES),
            default="weak-tamed",
        )
        p.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="regularization parameter, only with --scheme regularized-em",
        )

    p = sub.add_parser("rates", help="closed-form strong-rate exponents on parameter grids")
    p.add_argument("--alpha-grid", type=_parse_grid, default=None, metavar="START:STOP:STEP")
    p.add_argument("--eta-grid", type=_parse_grid, default=None, metavar="START:STOP:STEP")
    common(p)

    p = sub.add_parser("strong-error", help="coupled-path strong error per level with rate fits")
    p.add_argument("--levels", type=_parse_levels, default=_parse_levels("4..10"))
    p.add_argument("--M", dest="n_samples", type=_parse_count, default=1000, help="sample count")
    p.add_argument("--eta", type=float, default=0.5, help="pathwise moment order in (0,1)")
    p.add_argument("--alpha", type=float, default=1.0, help="endpoint moment order in (0,2)")
    p.add_argument("--T", dest="horizon", type=float, default=1.0, help="time horizon")
    p.add_argument("--u0", type=float, default=1.0, help="initial value")
    scheme_flags(p)
    common(p)

    p = sub.add_parser("moments", help="sup/mean moment functionals across step sizes")
    p.add_argument("--levels", type=_parse_levels, default=_parse_levels("4..10"))
    p.add_argument("--p", dest="p_values", type=_parse_floats, default=(1.0, 2.0, 2.5), help="moment orders")
    p.add_argument("--M", dest="n_samples", type=_parse_count, default=10_000, help="sample count")
    p.add_argument("--T", dest="horizon", type=float, default=1.0, help="time horizon")
    p.add_argument("--u0", type=float, default=1.0, help="initial value")
    scheme_flags(p)
    common(p)

    p = sub.add_parser("blowup", help="naive Euler-Maruyama endpoint divergence table")
    p.add_argument("--h", dest="h_values", type=_parse_floats, default=(0.1, 0.05, 0.025), help="step sizes")
    p.add_argument("--u0", type=float, default=10.0, help="initial value")
    p.add_argument("--M", dest="n_samples", type=_parse_count, default=10_000, help="sample count")
    p.add_argument("--T", dest="horizon", type=float, default=1.0, help="time horizon")
    common(p)

    p = sub.add_parser("enkf", help="ensemble Kalman inversion chain on a linear toy problem")
    p.add_argument("--J", dest="ensemble_size", type=int, default=2, help="ensemble members")
    p.add_argument("--d", dest="state_dim", type=int, default=1, help="state dimension")
    p.add_argument("--K", dest="obs_dim", type=int, default=1, help="observation dimension")
    p.add_argument("--h", dest="step_size", type=float, default=0.1, help="step size")
    p.add_argument("--steps", dest="n_steps", type=int, default=100, help="iteration count")
    common(p)

    p = sub.add_parser("identity-check", help="randomized one-sided difference identity sweep")
    p.add_argument("--samples", dest="n_samples", type=_parse_count, default=1_000_000)
    common(p)

    return parser


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        seed, source = args.seed, "seed"
    else:
        seed, source = _env_int(SEED_ENV, 0), SEED_ENV
    # Checked here for every subcommand: rates keys no stream that would.
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"{source} must be in [0, 2**64), got {seed}")
    workers = args.workers if args.workers is not None else _env_int(WORKERS_ENV, os.cpu_count() or 1)
    # Each subcommand's flags are stored under the config field of the same
    # name (argparse ``dest``); fields of other subcommands stay None.
    fields = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if f.name not in ("seed", "workers") and hasattr(args, f.name)
    }
    return ExperimentConfig(**fields, seed=seed, workers=workers, output_path=args.output)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # Inside the try: a level range or grid too large for memory fails
        # while its flag is parsed.
        config = _config_from_args(parser.parse_args(argv))
        return run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses arrays beyond the address space at once, naming the
        # size; a flag's tuple that outgrows memory fails with no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: run too large for memory{detail}", file=sys.stderr)
        return 2
    except BrokenProcessPool:
        # a killed worker, most often by the kernel's out-of-memory killer
        print("error: a worker process died (out of memory?)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
