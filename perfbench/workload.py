"""One benchmark run of one workload, inside a fresh interpreter.

run.py starts this file with the checkout's ``src/`` on PYTHONPATH. It
imports weaktame, drives its public entry points (``cli.main`` for the CLI
workloads; ``enkf`` and ``schemes`` for the pair reduction), checks every
output, and writes raw measurements as JSON for run.py to turn into metrics.

Untraced runs repeat one job until the time is up and record each job's wall
and CPU time. Traced runs repeat a triple instead: an inline job timed only at
``run_batches``, the same job with every layer wrapped (spans.LAYER_TARGETS),
and, for the batch engines, a pooled job at the workload's worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import weaktame
from weaktame import brownian, cli, enkf, schemes

from spans import LAYER_TARGETS, Tracer, batch_targets

SRC = Path(__file__).resolve().parent.parent / "src"

# Reference bytes are pinned for this seed; every run checks them once before
# it starts timing, whatever --seed it was given.
DEFAULT_SEED = 0
# Never more workers than CPUs this process may run on.
WORKERS = min(2, len(os.sched_getaffinity(0)))

LEVELS = range(4, 11)
STRONG_M = 1024  # four merge batches of 256 rows
STRONG_REFERENCE_STEPS = 1 << (max(LEVELS) + 4)
MOMENTS_M = 4096  # eight batches of 512 rows per level
MOMENTS_P = (1.0, 2.0, 2.5)
# Short jobs, so a run holds enough of them for a stable upper percentile.
PAIR_H = (0.25, 0.125, 0.0625)
PAIR_CHAINS = len(PAIR_H)  # one chain per step size
PAIR_STEPS = 1000
GENERAL_STEPS = 2_000

REFERENCE_WARNING = "reference self-consistency check failed"


@dataclass
class Outcome:
    """What one job produced: report bytes plus per-operation failures."""

    data: bytes
    failed_ops: int = 0
    messages: list[str] = field(default_factory=list)
    reference_check_failed: int = 0
    rate_gate_failed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable[[int, int], Outcome]  # (seed, workers) -> Outcome
    check: Callable[[bytes], list[str]]  # report bytes -> problems found
    ops: int  # operations (CLI invocations or chains) per job
    sample_steps: int  # sample-steps advanced per job
    batches: int  # Monte Carlo batches per job, 0 without run_batches
    pinned: str  # sha256 of the report bytes at DEFAULT_SEED


def _cli(argv: list[str], rate_gate: bool = False) -> Outcome:
    """cli.main with stdout captured; the reference warning is counted, not printed.

    With ``rate_gate``, exit code 1 (a fitted rate below its floor) is
    counted as a gate verdict instead of a failed operation.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out = Outcome(buf.getvalue().encode("utf-8"))
    for w in caught:
        if REFERENCE_WARNING in str(w.message):
            out.reference_check_failed += 1
        else:
            print(f"warning: {w.message}", file=sys.stderr)
    if rate_gate and code == 1:
        out.rate_gate_failed = 1
    elif code != 0:
        out.failed_ops = 1
        out.messages.append(f"{argv[0]} exited with code {code}")
    return out


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _finite(rows, columns) -> bool:
    return all(math.isfinite(float(row[c])) for row in rows for c in columns)


def _strong(seed: int, workers: int) -> Outcome:
    # The slopes fitted from M = 1024 paths can miss the CLI's 0.40 floor on
    # some seeds; the gate is sized for M = 1e4. That verdict is recorded, not
    # failed. At DEFAULT_SEED the pinned digest
    # fixes the fitted slopes, and so exit code 0.
    return _cli(["strong-error", "--levels", "4..10", "--M", str(STRONG_M),
                 "--workers", str(workers), "--seed", str(seed)], rate_gate=True)


def _check_strong(data: bytes) -> list[str]:
    table, brace, fits = data.decode("utf-8").partition("{")
    rows = _csv_rows(table)
    problems = []
    if [int(r["level"]) for r in rows] != list(LEVELS):
        problems.append("strong-error CSV does not list levels 4..10")
    if any(r["blowup_count"] != "0" for r in rows):
        problems.append("strong-error reports blow-ups")
    if not _finite(rows, ("eta_error", "alpha_error", "ci")):
        problems.append("strong-error reports non-finite errors")
    if set(json.loads(brace + fits)) != {"uniform", "pointwise"}:
        problems.append("strong-error fit JSON lacks a functional")
    return problems


def _moments(seed: int, workers: int) -> Outcome:
    return _cli(["moments", "--levels", "4..10", "--p", ",".join(map(str, MOMENTS_P)),
                 "--M", str(MOMENTS_M), "--workers", str(workers), "--seed", str(seed)])


def _check_moments(data: bytes) -> list[str]:
    rows = _csv_rows(data.decode("utf-8"))
    problems = []
    if len(rows) != len(LEVELS) * len(MOMENTS_P):
        problems.append(f"moments CSV has {len(rows)} rows")
    if any(float(r["blowup_fraction"]) != 0.0 for r in rows):
        problems.append("moments reports blow-ups")
    if not _finite(rows, ("sup_of_mean", "mean_of_sup", "integral_term")):
        problems.append("moments reports non-finite values")
    return problems


def _general(seed: int, workers: int) -> Outcome:
    return _cli(["enkf", "--J", "5", "--d", "3", "--K", "2", "--h", "0.1",
                 "--steps", str(GENERAL_STEPS), "--workers", "1", "--seed", str(seed)])


def _check_general(data: bytes) -> list[str]:
    rows = _csv_rows(data.decode("utf-8"))
    if len(rows) != GENERAL_STEPS + 1:
        return [f"enkf CSV has {len(rows)} rows, expected {GENERAL_STEPS + 1}"]
    if not _finite(rows, ("mean_0", "mean_1", "mean_2", "spread", "misfit")):
        return ["enkf CSV holds non-finite values"]
    return []


def _pair(seed: int, workers: int) -> Outcome:
    """Check 2's shape: each 2-member scalar chain, reduced to q, must equal the
    scalar weak-tamed scheme on the same draws bit for bit."""
    out = Outcome(b"")
    q_bytes = []
    chain_seed = seed + 1
    for r in range(PAIR_CHAINS):
        h = PAIR_H[r % len(PAIR_H)]
        q0 = float(brownian.standard_normals(seed, r, 1)[0]) + 1.5
        state = enkf.EnsembleState(
            mean=np.zeros(1),
            anomalies=np.array([[q0], [-q0]]),
            forward_map=np.eye(1),
            observation=np.zeros(1),
            noise_cov=np.eye(1),
            h=h,
        )
        q = enkf.reduce_to_q(enkf.run_chain(state, PAIR_STEPS, seed=chain_seed, chain_index=r))
        draws = brownian.standard_normals(chain_seed, r, PAIR_STEPS * 2).reshape(PAIR_STEPS, 2)
        dw = np.sqrt(h) * ((draws[:, 0] - draws[:, 1]) / 2.0)
        values, blow = schemes.integrate_increments(schemes.WEAK_TAMED_ENKF, h, dw[None, :], q0)
        if blow[0] != -1 or not np.array_equal(q, values[0]):
            out.failed_ops += 1
            out.messages.append(f"chain {r}: pair reduction differs from the scalar scheme")
        q_bytes.append(q.tobytes())
    out.data = b"".join(q_bytes)
    return out


# The pinned digests are of the bytes weaktame 0.1.0 produced with numpy 2.4.6
# and scipy 1.17.1 (Philox and ndtri feed every draw): the strong-error CSV
# plus fit JSON, the moments CSV, the pair q sequences, the enkf CSV.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "strong", _strong, _check_strong, 1, STRONG_M * STRONG_REFERENCE_STEPS,
            -(-STRONG_M // 256),
            "2a0e4f1378147c7cc5b608fc73280cec0fb1f79d42b5ce4f93f970ed3066ac0a",
        ),
        Workload(
            "moments", _moments, _check_moments, 1, MOMENTS_M * sum(1 << lvl for lvl in LEVELS),
            len(LEVELS) * -(-MOMENTS_M // 512),
            "046e9b12bb05d4071423860b1ae9e7c54334e248941c63e635e0c46fe375c386",
        ),
        Workload(
            "enkf-pair", _pair, lambda data: [], PAIR_CHAINS, PAIR_CHAINS * PAIR_STEPS, 0,
            "c28df11d5e107735c9002b70e517c01c0d580b545f2c7824823d52d90c0d1bf0",
        ),
        Workload(
            "enkf-general", _general, _check_general, 1, GENERAL_STEPS, 0,
            "86825626b2feb6195d1dac99bd6ee264b322985bbe851f5c75a48eb62428e389",
        ),
    )
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_problems(data: bytes, expected: str | None, what: str) -> list[str]:
    """[] when ``data`` hashes to ``expected`` (or nothing is expected)."""
    if expected is None or digest(data) == expected:
        return []
    return [f"report bytes differ from the {what}"]


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    ops: int
    failed_ops: int
    digest: str | None
    reference_check_failed: int
    rate_gate_failed: int
    messages: list[str]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(w: Workload, seed: int, workers: int, expected: str | None, what: str) -> Job:
    """One timed job plus its checks; a failure is counted, never raised."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        out = w.call(seed, workers)
    except (Exception, SystemExit):
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        traceback.print_exc()
        return Job(wall, cpu, w.ops, w.ops, None, 0, 0, [f"{w.name} raised {sys.exc_info()[0].__name__}"])
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    try:
        problems = w.check(out.data)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    problems += digest_problems(out.data, expected, what)
    failed = w.ops if problems else out.failed_ops
    return Job(wall, cpu, w.ops, failed, digest(out.data), out.reference_check_failed,
               out.rate_gate_failed, out.messages + problems)


class Tally:
    """Operation counts and failure messages across all jobs of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rate_gate_failed = 0
        self.messages: list[str] = []

    def add(self, job: Job) -> Job:
        self.attempted += job.ops
        self.failed += job.failed_ops
        self.rate_gate_failed += job.rate_gate_failed
        self.messages.extend(job.messages[: 20 - len(self.messages)])
        return job

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "rate_gate_failed": self.rate_gate_failed,
            "messages": self.messages,
        }


def _pinned_check(w: Workload, tally: Tally) -> None:
    """The reference job at DEFAULT_SEED; it also warms caches before timing."""
    tally.add(run_job(w, DEFAULT_SEED, WORKERS, w.pinned, "pinned reference"))


def measure(w: Workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    _pinned_check(w, tally)
    jobs: list[Job] = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        first = jobs[0].digest if jobs else None
        jobs.append(tally.add(run_job(w, seed, WORKERS, first, "first job of this run")))
    return {
        "wall_s": [j.wall_s for j in jobs],
        "cpu_s": [j.cpu_s for j in jobs],
        "reference_check_failed": [j.reference_check_failed for j in jobs],
        **tally.counts(),
    }


BATCH_SPANS = ("strong_error.run_batches", "moments.run_batches")


def _batch_seconds(tracer: Tracer) -> float:
    durations = tracer.durations()
    return sum(durations[n][1] for n in BATCH_SPANS if n in durations)


def _batch_count(tracer: Tracer, key: str) -> int:
    return sum(tracer.counts[n][key] for n in BATCH_SPANS if n in tracer.counts)


def layer_metrics(traced: Tracer, inline: Tracer, pooled: Tracer, workers: int,
                  overhead_s: float, reference_check_failed: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``traced`` holds every layer's spans at one worker; ``inline`` and
    ``pooled`` time only run_batches, untraced otherwise, at one worker and
    at ``workers``. A layer that does not run reports zeros.
    """
    durations = traced.durations()
    own = traced.self_times()

    def s(name):
        return durations.get(name, (0, 0.0))[1]

    def calls(name):
        return durations.get(name, (0, 0.0))[0]

    def count(name, key):
        return traced.counts[name][key] if name in traced.counts else 0

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    ib, co = "brownian.increment_block", "brownian.coarsen_increments"
    ii, ip = "schemes.integrate_increments", "schemes.interpolant_increments"
    rc, es, sv = "enkf.run_chain", "enkf.enkf_step", "enkf.state_validations"
    pooled_s = _batch_seconds(pooled)
    return {
        f"{ib}.s": s(ib),
        f"{ib}.calls": calls(ib),
        f"{ib}.rows": count(ib, "rows"),
        f"{ib}.draws": count(ib, "draws"),
        f"{ib}.ns_per_draw": ratio(s(ib), count(ib, "draws"), 1e9),
        f"{co}.s": s(co),
        f"{co}.calls": calls(co),
        f"{co}.ns_per_input": ratio(s(co), count(co, "inputs"), 1e9),
        f"{ii}.s": s(ii),
        f"{ii}.calls": calls(ii),
        f"{ii}.sample_steps": count(ii, "sample_steps"),
        f"{ii}.rows_per_call": ratio(count(ii, "rows"), calls(ii)),
        f"{ii}.ns_per_sample_step": ratio(s(ii), count(ii, "sample_steps"), 1e9),
        f"{ip}.s": s(ip),
        f"{ip}.calls": calls(ip),
        f"{ip}.ns_per_node": ratio(s(ip), count(ip, "nodes"), 1e9),
        "strong_error.reduce_s": own.get("strong_error.run_batches", 0.0),
        "strong_error.merge_s": own.get("strong_error.estimate_strong_error", 0.0),
        "strong_error.reference_check_failed": reference_check_failed,
        "moments.reduce_s": own.get("moments.run_batches", 0.0),
        "moments.merge_s": own.get("moments.moment_table", 0.0),
        "batching.run_batches.s": pooled_s,
        "batching.batches": _batch_count(pooled, "batches"),
        "batching.result_bytes": _batch_count(pooled, "result_bytes"),
        "batching.parallel_efficiency": ratio(_batch_seconds(inline), workers * pooled_s),
        f"{rc}.s": s(rc),
        f"{rc}.calls": calls(rc),
        f"{rc}.us_per_step": ratio(s(rc), count(rc, "steps"), 1e6),
        f"{es}.s": s(es),
        f"{es}.calls": calls(es),
        f"{sv}.count": calls(sv),
        f"{sv}.s": s(sv),
        "enkf.reduce_to_q.s": s("enkf.reduce_to_q"),
        "reports.strong_error_csv.s": s("reports.strong_error_csv"),
        "reports.moments_csv.s": s("reports.moments_csv"),
        "reports.enkf_csv.s": s("reports.enkf_csv"),
        "cli.run.s": s("cli.run"),
        "trace.overhead_s": overhead_s,
    }


def measure_traced(w: Workload, seed: int, seconds: float, spans_path: Path) -> dict:
    tally = Tally()
    _pinned_check(w, tally)
    reps: list[dict[str, float]] = []
    expected = None
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        with Tracer(batch_targets()) as inline:
            plain = tally.add(run_job(w, seed, 1, expected, "first job of this run"))
        expected = plain.digest
        with Tracer(LAYER_TARGETS) as traced:
            job = tally.add(run_job(w, seed, 1, expected, "untraced job"))
        with Tracer(batch_targets(with_bytes=True)) as pooled:
            if w.batches:
                tally.add(run_job(w, seed, WORKERS, expected, "job at one worker"))
        reps.append(layer_metrics(traced, inline, pooled, WORKERS, job.wall_s - plain.wall_s,
                                  job.reference_check_failed))
    traced.write_csv(spans_path)
    return {
        "layers": {name: statistics.median(r[name] for r in reps) for name in reps[0]},
        "repetitions": len(reps),
        **tally.counts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    if not Path(weaktame.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported weaktame from {weaktame.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.trace:
        result = measure_traced(w, args.seed, args.seconds, args.spans)
    else:
        result = measure(w, args.seed, args.seconds)
    result.update(
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        workers=WORKERS if w.batches else 1,
        batches=w.batches,
        sample_steps=w.sample_steps,
    )
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
