"""weaktame benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run times ``import weaktame.cli`` in
fresh interpreters (setup_s) before and after it runs the workload in one more
fresh interpreter (workload.py), while sampling the resident memory of that
process tree. The last line of standard output is one JSON object: correct,
attempted, failed and metrics (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1). The line before it holds
the run's environment. Both, with the raw samples, are also written to
.perfbench_out/ in the checkout, next to the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 4  # timed imports before the workload, and as many after it
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import weaktame.cli; "
    "print(time.perf_counter() - t0)"
)
RSS_PERIOD_S = 0.05
# Whole run, set-up included, stays below the 180 s a run may take.
DEADLINE_S = 170.0


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def _tree(root: int) -> list[int]:
    """``root`` and all its live descendants, which all have larger pids."""
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit() or int(entry.name) <= root:
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                ppid = int(fh.read().rpartition(b")")[2].split()[1])
        except OSError:  # the process ended while we looked
            continue
        children[ppid].append(int(entry.name))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def tree_peak_rss_kib(root: int) -> int:
    """Sum over the live process tree of each process's own peak RSS (VmHWM).

    Summing per-process peaks, not current RSS, makes the figure independent
    of how the peaks of concurrent pool workers happen to line up.
    """
    total = 0
    for pid in _tree(root):
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


def setup_times(env: dict[str, str], warm_up: bool) -> list[float]:
    """Import time of weaktame.cli in SETUP_REPS fresh interpreters; with
    ``warm_up``, one untimed import first, so bytecode caches exist as they
    would for any user."""
    times = []
    for rep in range(SETUP_REPS + warm_up):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if rep or not warm_up:
            times.append(float(done.stdout))
    return times


def run_workload(cmd: list[str], env: dict[str, str], deadline: float) -> float:
    """Run the workload process; return the peak RSS of its tree in KiB."""
    peak = 0
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        while proc.poll() is None:
            peak = max(peak, tree_peak_rss_kib(proc.pid))
            if time.monotonic() > deadline:
                raise TimeoutError("workload did not finish in time")
            time.sleep(RSS_PERIOD_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    # the largest finished descendant, in case sampling missed it
    return max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


TAIL_PERCENT = 90


def tail(values: list[float]) -> float:
    """The TAIL_PERCENT-th percentile of ``values``; the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENT - 1]


def end_to_end(raw: dict, setup: list[float], peak_kib: float) -> dict[str, float]:
    """End-to-end metrics of one run.

    Job time is the 90th percentile over the run's jobs. On a shared host,
    interpreter-bound Python runs at the host's steady speed with spells of up
    to 1.7x faster, whose share of a run varies from run to run; the mean and
    the median of jobs follow that share, the upper tail stays at the steady
    speed. The median and the job count are kept in the run's record. Set-up
    time is the median of its repeats.
    """
    wall = tail(raw["wall_s"])
    return {
        "wall_s": wall,
        "steps_per_s": raw["sample_steps"] / wall,
        "cpu_s": tail(raw["cpu_s"]),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setup),
    }


def main(argv=None) -> int:
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="weaktame benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "weaktame" / "__init__.py").is_file():
        print(f"error: no weaktame sources under {SRC}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEAKTAME_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_out = Path(f"{stem}.raw.json")
    child_out.unlink(missing_ok=True)

    load_before = loadavg()
    setup = setup_times(env, warm_up=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(child_out), "--spans", f"{stem}.spans.csv",
    ]
    peak_kib = run_workload(cmd, env, start + DEADLINE_S)
    raw = json.loads(child_out.read_text(encoding="utf-8"))
    # Set-up timed on both sides of the workload, half a minute apart, so the
    # median does not rest on one moment of a shared host.
    setup += setup_times(env, warm_up=False)
    load_after = loadavg()

    if args.trace:
        values, wanted = raw["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end(raw, setup, peak_kib), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **raw["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": raw["workers"],
        "batches": raw["batches"],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    if not args.trace:
        environment["timed_jobs"] = len(raw["wall_s"])
        environment["wall_s_median"] = statistics.median(raw["wall_s"])
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = {"environment": environment, "result": result, "setup_s": setup, "raw": raw}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in raw["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    if raw["rate_gate_failed"]:
        print(f"note: {raw['rate_gate_failed']} job(s) missed the strong-error rate floor "
              "(exit code 1); recorded, not counted as failed", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
