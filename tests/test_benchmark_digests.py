"""The benchmark's pinned report bytes, checked in the test suite.

perfbench/run.py refuses a run whose seed-0 report differs from the digest
pinned in perfbench/workload.py. Each workload's seed-0 job runs here once at
one worker, so a change that moves those bytes fails the suite first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_seed_0_job_is_correct_and_matches_its_pinned_digest(name):
    w = workload.WORKLOADS[name]
    out = w.call(workload.DEFAULT_SEED, 1)
    assert (out.failed_ops, out.messages) == (0, [])
    assert w.check(out.data) == []
    assert workload.digest(out.data) == w.pinned
