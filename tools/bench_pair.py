"""Alternating pairs of benchmark runs, base revision against the working tree.

    python3 tools/bench_pair.py --base REV --out BENCH_<n>.json \
        [--workload strong] [--pairs 10] [--seed 1] [--seconds 22] [--trace 0]

Run from the root of a checkout. The base revision is exported with
``git archive`` into .bench_build/<commit>/; the change is the working tree.
Each pair runs ``perfbench/run.py`` once in each checkout with the same
arguments, and the side that runs first swaps from one pair to the next, so a
drift of the host's speed over the session charges both sides alike. Before
each pair, both checkouts run the workload once, untimed, for WARMUP_SECONDS
(in the pair's order), so neither timed run is the first after a pause: on
the EnKF workloads the second run of a pair read lower whatever the code. The
output file holds each side's ``wc -l src/weaktame/*.py`` total (its
``source_lines``), the environment line of the runs, every pair's metrics and,
per workload and metric, each side's median and quartiles and the number of
pairs the change won (ties count for neither side), with two flags: whether
the change meets the claim rule (it wins at least 9 in 10 of the pairs, and
its median beats the base median by more than the base's interquartile
range) and whether its median is worse than the base's by more than the
metric's ``BENCHMARK.json`` bound. The file is rewritten after every pair.
Run it again with other workloads and the same base, seed, seconds and trace
to add them to the file. Once the file is written, each workload in it gets
one line on stderr that lists both flags of every metric, and each run that
was not correct or had failed operations one more; the exit status is 1 if
there is any such run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("base", "change")
WARMUP_SECONDS = 2.0


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(rev: str) -> Path:
    """The tree of ``rev`` under .bench_build/<commit>/, exported once."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / commit
    done_marker = dest / ".exported"
    if not done_marker.is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE
        )
        try:
            subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
        finally:
            archive.stdout.close()
            if archive.wait():
                raise RuntimeError(f"git archive {commit} failed")
        done_marker.write_text(commit + "\n", encoding="ascii")
    return dest


def source_lines(checkout: Path) -> int:
    """The ``wc -l src/weaktame/*.py`` total of ``checkout``."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "weaktame").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: its environment line and result."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    *_, env_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    return {
        "environment": json.loads(env_line)["environment"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, and
    two flags from the metric's ``BENCHMARK.json`` entry in ``metrics``.

    ``claim_rule_met``: the change won at least 9 in 10 of the pairs, and its
    median beats the base median by more than the base's q3 - q1.
    ``beyond_bound``: the change's median is worse than the base median by
    more than ``bound`` times the base median; None for a metric without a
    bound.
    """
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        better = metrics.get(name, {}).get("better", "lower")
        bound = metrics.get(name, {}).get("bound")
        sign = 1 if better == "lower" else -1
        diffs = [sign * (b - c) for b, c in zip(values["base"], values["change"])]
        entry = {"better": better, "pairs": len(pairs)}
        for side in SIDES:
            q1, median, q3 = (
                statistics.quantiles(values[side], n=4, method="inclusive")
                if len(pairs) > 1 else [values[side][0]] * 3
            )
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["change_wins"] = sum(d > 0 for d in diffs)
        entry["ties"] = sum(d == 0 for d in diffs)
        base = entry["base"]
        gain = sign * (base["median"] - entry["change"]["median"])
        entry["claim_rule_met"] = (
            10 * entry["change_wins"] >= 9 * len(pairs) and gain > base["q3"] - base["q1"]
        )
        entry["beyond_bound"] = None if bound is None else -gain > bound * abs(base["median"])
        summary[name] = entry
    return summary


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="alternating base/change benchmark pairs")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeat for several workloads (default: strong)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or ["strong"]

    base_dir = export(args.base)
    checkouts = {"base": base_dir, "change": ROOT}
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    by_name = {m["name"]: m for m in metrics}
    record = {
        "base": {"rev": args.base, "commit": base_dir.name,
                 "source_lines": source_lines(base_dir)},
        "change": {"working_tree_of": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--", "src")),
                   "source_lines": source_lines(ROOT)},
        "host": {"cpu": cpu_model(), "platform": platform.platform()},
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                     "warmup_seconds": WARMUP_SECONDS},
        "workloads": {},
    }
    if args.out.is_file():
        # Workloads measured earlier against the same base and settings stay,
        # summarized again so that every summary carries the same fields.
        earlier = json.loads(args.out.read_text(encoding="utf-8"))
        same = earlier["base"]["commit"] == base_dir.name
        if same and earlier["settings"] == record["settings"]:
            record["environment"] = earlier["environment"]
            record["workloads"] = {
                workload: {"pairs": e["pairs"], "summary": summarize(e["pairs"], by_name)}
                for workload, e in earlier["workloads"].items()
            }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                run_once(checkouts[side], workload, args.seed, WARMUP_SECONDS, args.trace)
            for side in order:
                pair[side] = run_once(
                    checkouts[side], workload, args.seed, args.seconds, args.trace
                )
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            pairs.append(pair)
            # Written after every pair, so a run cut short keeps what it measured.
            record.setdefault("environment", pairs[0]["base"]["environment"])
            summary = summarize(pairs, by_name)
            record["workloads"][workload] = {"pairs": pairs, "summary": summary}
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = 0
    for workload, entry in record["workloads"].items():
        flags = ", ".join(
            f"{name} claim_rule_met={m['claim_rule_met']} beyond_bound={m['beyond_bound']}"
            for name, m in entry["summary"].items()
        )
        print(f"{workload}: {flags}", file=sys.stderr)
        for i, pair in enumerate(entry["pairs"]):
            for side in SIDES:
                run = pair[side]
                if not run["correct"] or run["failed"] > 0:
                    print(f"{workload} pair {i + 1} {side}: correct {run['correct']}, "
                          f"failed {run['failed']} of {run['attempted']}", file=sys.stderr)
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
