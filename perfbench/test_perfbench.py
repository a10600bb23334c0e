"""Fast tests of the benchmark's own machinery; none runs a full workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weaktame.enkf  # noqa: E402
import weaktame.moments  # noqa: E402
from weaktame.brownian import TimeGrid  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_a_hand_built_span_tree(monkeypatch):
    # outer [0, 100) calls inner at [10, 30) and at [40, 80); the second inner
    # calls leaf at [50, 60).
    fake = types.ModuleType("perfbench_fake_layers")
    fake.leaf = lambda: None
    fake.inner = lambda deep: fake.leaf() if deep else None
    fake.outer = lambda: (fake.inner(False), fake.inner(True))
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    clock = iter([0, 10, 30, 40, 50, 60, 80, 100])
    monkeypatch.setattr(spans, "perf_counter_ns", lambda: next(clock))
    targets = [spans.Target(fake.__name__, name, name) for name in ("outer", "inner", "leaf")]

    with spans.Tracer(targets) as tracer:
        fake.outer()

    assert list(tracer.parent) == [spans.NO_PARENT, 0, 0, 2]
    assert tracer.durations() == {
        "outer": (1, pytest.approx(100e-9)),
        "inner": (2, pytest.approx(60e-9)),
        "leaf": (1, pytest.approx(10e-9)),
    }
    assert tracer.self_times() == pytest.approx({"outer": 40e-9, "inner": 50e-9, "leaf": 10e-9})


def test_metric_names_are_well_formed_and_match_what_the_benchmark_reports():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = end_to_end + per_layer
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)

    raw = {"wall_s": [2.0], "cpu_s": [3.0], "sample_steps": 10}
    assert list(run.end_to_end(raw, [0.5], 1024)) == end_to_end
    empty = spans.Tracer(())
    assert list(workload.layer_metrics(empty, empty, empty, 2, 0.0, 0)) == per_layer
    assert sorted(workload.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_a_flipped_report_byte_fails_the_digest_check():
    report = b"level,h,eta_error\n4,0.0625,0.031\n"
    flipped = bytearray(report)
    flipped[20] ^= 0x01
    produced = iter([report, bytes(flipped)])
    fake = workload.Workload(
        "fake", lambda seed, workers: workload.Outcome(next(produced)), lambda data: [],
        ops=1, sample_steps=1, batches=0, pinned=workload.digest(report),
    )

    good = workload.run_job(fake, 0, 1, fake.pinned, "pinned reference")
    bad = workload.run_job(fake, 0, 1, fake.pinned, "pinned reference")

    assert (good.failed_ops, good.messages) == (0, [])
    assert bad.failed_ops == 1
    assert bad.messages == ["report bytes differ from the pinned reference"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", w.pinned) for w in workload.WORKLOADS.values())


def test_tracer_wrappers_are_removed_afterwards():
    def current():
        return [vars(owner)[name] for owner, name in map(spans._owner, spans.LAYER_TARGETS)]

    originals = current()
    with spans.Tracer() as tracer:
        assert all(a is not b for a, b in zip(current(), originals))
        weaktame.moments.increment_block(0, 0, 2, TimeGrid(1.0, 3))
    assert tracer.durations()["brownian.increment_block"][0] == 1
    assert tracer.counts["brownian.increment_block"] == {"rows": 2, "draws": 16}

    assert all(a is b for a, b in zip(current(), originals))
    weaktame.moments.increment_block(0, 0, 2, TimeGrid(1.0, 3))
    weaktame.enkf.EnsembleState.from_particles(
        [[0.0], [1.0]], forward_map=[[1.0]], observation=[0.0], noise_cov=[[1.0]], h=0.1
    )
    assert len(tracer) == 1


def test_tree_peak_rss_counts_this_process():
    assert run.tree_peak_rss_kib(os.getpid()) > 0


def test_a_missed_rate_floor_is_recorded_only_where_allowed():
    # coarse levels with few samples land below the 0.40 slope floor (exit 1)
    argv = ["strong-error", "--levels", "2..5", "--M", "200", "--seed", "4", "--workers", "1"]
    gated = workload._cli(argv, rate_gate=True)
    strict = workload._cli(argv)
    assert (gated.rate_gate_failed, gated.failed_ops) == (1, 0)
    assert (strict.rate_gate_failed, strict.failed_ops) == (0, 1)
    assert gated.reference_check_failed == 1
