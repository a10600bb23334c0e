"""Pinned report bytes of small strong-error, moments, blowup, enkf and
identity-check runs.

The files under ``golden/`` are the stdout of the commands below: for
strong-error the CSV table, then the rate-fit JSON; for moments, blowup and
enkf the CSV; for identity-check the JSON summary. The bytes depend on numpy's Philox
and scipy's ``ndtri``; ``golden/versions.json`` records the versions they
were made with.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from weaktame import cli, enkf, moments, schemes, strong_error

GOLDEN = Path(__file__).parent / "golden"

STRONG = ["strong-error", "--levels", "4..8", "--M", "256", "--seed", "1"]
CASES = [
    # (file, argv, exit code)
    ("strong_error_weak_tamed.txt", [], 0),
    # naive Euler blows up at levels 4..7 from u0 = 3
    ("strong_error_naive_em_u0_3.txt", ["--scheme", "naive-em", "--u0", "3"], 0),
]

# Five 256-row merge units: worker counts 1, 2 and 3 group them into tasks of
# four, three and two units, so the last task is short at 1 and 3 workers.
STRONG_M1280 = ["strong-error", "--levels", "4..8", "--M", "1280", "--seed", "1"]
MOMENTS = ["moments", "--levels", "4..8", "--p", "1,2,2.5", "--M", "1024", "--seed", "1"]
# naive Euler from u0 = 3 blows up in 0.2-9 % of the paths at levels 4..7, so
# the masked nodes of blown-up rows enter every moment
MOMENTS_NAIVE_EM = ["moments", "--scheme", "naive-em", "--u0", "3", "--p", "1,2",
                    "--levels", "4..7", "--M", "1024", "--seed", "1"]
BLOWUP = ["blowup", "--h", "0.2,0.1,0.05", "--u0", "3", "--M", "1024", "--seed", "1"]
ENKF = ["enkf", "--steps", "200", "--seed", "3"]

ENKF_CASES = [
    # J = 2, d = K = 1 carries the q column of the scalar reduction
    ("enkf_J2_d1_K1.txt", ["--J", "2", "--d", "1", "--K", "1", "--h", "0.25"]),
    ("enkf_J5_d3_K2.txt", ["--J", "5", "--d", "3", "--K", "2", "--h", "0.1"]),
]


def assert_golden(name, out):
    pinned = json.loads((GOLDEN / "versions.json").read_text())
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert out == (GOLDEN / name).read_text(), f"pinned with {pinned}, running {versions}"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name, extra, code", CASES, ids=[c[0][:-4] for c in CASES])
def test_strong_error_golden_bytes(name, extra, code, workers, capsys):
    assert cli.main(STRONG + ["--workers", str(workers)] + extra) == code
    assert_golden(name, capsys.readouterr().out)


@pytest.mark.parametrize("name, extra", ENKF_CASES, ids=[c[0][:-4] for c in ENKF_CASES])
def test_enkf_golden_bytes(name, extra, capsys):
    assert cli.main(ENKF + extra) == 0
    assert_golden(name, capsys.readouterr().out)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_strong_error_golden_bytes_with_uneven_tasks(workers, capsys):
    assert cli.main(STRONG_M1280 + ["--workers", str(workers)]) == 0
    assert_golden("strong_error_M1280.txt", capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_moments_golden_bytes(workers, capsys):
    assert cli.main(MOMENTS + ["--workers", str(workers)]) == 0
    assert_golden("moments_weak_tamed.txt", capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_moments_golden_bytes_with_blowups(workers, capsys):
    assert cli.main(MOMENTS_NAIVE_EM + ["--workers", str(workers)]) == 0
    assert_golden("moments_naive_em_u0_3.txt", capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blowup_golden_bytes(workers, capsys):
    assert cli.main(BLOWUP + ["--workers", str(workers)]) == 0
    assert_golden("blowup_u0_3.txt", capsys.readouterr().out)


def test_identity_check_golden_bytes(capsys):
    assert cli.main(["identity-check", "--workers", "1"]) == 0
    assert_golden("identity_check.txt", capsys.readouterr().out)


# Every private tuning constant at a small, an odd and a huge value. They
# trade speed against memory only, so no setting may move a byte. Forked
# workers inherit the patched values.
TUNING_CONSTANTS = {
    (schemes, "_CHUNK_BYTES"): (8, 100_003, 10**8),
    (schemes, "_RANGE_CHUNK"): (1, 7, 10**6),
    (strong_error, "_CHUNK_NODES"): (1, 600, 10**8),
    (strong_error, "_MAX_TASK_UNITS"): (1, 3, 1000),
    (enkf, "_NOISE_BLOCK_FLOATS"): (1, 777, 10**8),
    (moments, "_BOOTSTRAP_CHUNK"): (1, 7, 1000),
}

TUNED_RUNS = [
    ("strong_error_M1280.txt", STRONG_M1280),
    ("strong_error_naive_em_u0_3.txt", STRONG + ["--scheme", "naive-em", "--u0", "3"]),
    ("moments_weak_tamed.txt", MOMENTS),
    ("moments_naive_em_u0_3.txt", MOMENTS_NAIVE_EM),
    ("blowup_u0_3.txt", BLOWUP),
] + [(name, ENKF + extra) for name, extra in ENKF_CASES]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("setting", [0, 1, 2], ids=["small", "odd", "huge"])
def test_tuning_constants_leave_the_bytes_unchanged(setting, workers, monkeypatch, capsys):
    for (module, name), values in TUNING_CONSTANTS.items():
        monkeypatch.setattr(module, name, values[setting])
    for name, argv in TUNED_RUNS:
        assert cli.main(argv + ["--workers", str(workers)]) == 0
        assert_golden(name, capsys.readouterr().out)
