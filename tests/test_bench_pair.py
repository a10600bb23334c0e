"""The claim rule and the bound check of tools/bench_pair.py's summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = {
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
    "steps_per_s": {"better": "higher", "bound": 0.25},
    "moments.reduce_s": {"better": "lower"},
}


def pairs_of(name, base, change):
    return [
        {"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
        for b, c in zip(base, change)
    ]


def flags(name, base, change):
    entry = bench_pair.summarize(pairs_of(name, base, change), METRICS)[name]
    return entry["change_wins"], entry["claim_rule_met"], entry["beyond_bound"]


BASE = [140.0, 141.0, 142.0, 143.0, 144.0, 145.0, 146.0, 147.0, 148.0, 149.0]  # IQR 4.5


def test_nine_wins_by_more_than_the_base_spread_meet_the_claim_rule():
    change = [b - 8.0 for b in BASE]
    change[3] = 150.0  # one lost pair
    assert flags("peak_rss_mb", BASE, change) == (9, True, False)


def test_eight_wins_do_not_meet_the_claim_rule():
    change = [b - 8.0 for b in BASE]
    change[3] = change[7] = 150.0
    assert flags("peak_rss_mb", BASE, change) == (8, False, False)


def test_ten_wins_within_the_base_spread_do_not_meet_the_claim_rule():
    # every pair won, but the medians differ by 4, less than the base's q3 - q1
    change = [b - 4.0 for b in BASE]
    assert flags("peak_rss_mb", BASE, change) == (10, False, False)


def test_a_tie_is_no_win():
    change = [b - 8.0 for b in BASE]
    change[0] = BASE[0]
    entry = bench_pair.summarize(pairs_of("peak_rss_mb", BASE, change), METRICS)["peak_rss_mb"]
    assert (entry["change_wins"], entry["ties"], entry["claim_rule_met"]) == (9, 1, True)


@pytest.mark.parametrize(
    "shift, beyond",
    [(15.0, True), (14.0, False), (-20.0, False)],
    ids=["worse-than-bound", "worse-within-bound", "better"],
)
def test_beyond_bound_compares_the_medians_with_the_bound(shift, beyond):
    # base median 144.5, bound 0.1: worse by more than 14.45 MiB is beyond it
    change = [b + shift for b in BASE]
    assert flags("peak_rss_mb", BASE, change)[2] is beyond


def test_a_higher_is_better_metric_wins_by_rising():
    base = [1000.0 + 10.0 * k for k in range(10)]  # median 1045, IQR 45
    assert flags("steps_per_s", base, [b + 100.0 for b in base]) == (10, True, False)
    # a fall of 30 % is beyond the 0.25 bound
    assert flags("steps_per_s", base, [0.7 * b for b in base]) == (0, False, True)


def test_a_metric_without_a_bound_has_no_bound_flag():
    assert flags("moments.reduce_s", BASE, BASE) == (0, False, None)


def test_one_pair_has_no_spread():
    assert flags("peak_rss_mb", [100.0], [99.0]) == (1, True, False)
