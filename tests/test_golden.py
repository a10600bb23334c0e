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

from weaktame import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # (file, argv, exit code)
    ("strong_error_weak_tamed.txt", [], 0),
    # naive Euler blows up at levels 4..7 from u0 = 3
    ("strong_error_naive_em_u0_3.txt", ["--scheme", "naive-em", "--u0", "3"], 0),
]

# Five 256-row merge units: worker counts 1, 2 and 3 group them into tasks of
# four, three and two units, so the last task is short at 1 and 3 workers.
STRONG_M1280 = ["strong-error", "--levels", "4..8", "--M", "1280", "--seed", "1"]

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
    argv = ["strong-error", "--levels", "4..8", "--M", "256", "--seed", "1",
            "--workers", str(workers)] + extra
    assert cli.main(argv) == code
    assert_golden(name, capsys.readouterr().out)


@pytest.mark.parametrize("name, extra", ENKF_CASES, ids=[c[0][:-4] for c in ENKF_CASES])
def test_enkf_golden_bytes(name, extra, capsys):
    argv = ["enkf", "--steps", "200", "--seed", "3"] + extra
    assert cli.main(argv) == 0
    assert_golden(name, capsys.readouterr().out)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_strong_error_golden_bytes_with_uneven_tasks(workers, capsys):
    assert cli.main(STRONG_M1280 + ["--workers", str(workers)]) == 0
    assert_golden("strong_error_M1280.txt", capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_moments_golden_bytes(workers, capsys):
    argv = ["moments", "--levels", "4..8", "--p", "1,2,2.5", "--M", "1024",
            "--seed", "1", "--workers", str(workers)]
    assert cli.main(argv) == 0
    assert_golden("moments_weak_tamed.txt", capsys.readouterr().out)


# naive Euler from u0 = 3 blows up in 0.2-9 % of the paths at levels 4..7, so
# the masked nodes of blown-up rows enter every moment
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_moments_golden_bytes_with_blowups(workers, capsys):
    argv = ["moments", "--scheme", "naive-em", "--u0", "3", "--p", "1,2",
            "--levels", "4..7", "--M", "1024", "--seed", "1", "--workers", str(workers)]
    assert cli.main(argv) == 0
    assert_golden("moments_naive_em_u0_3.txt", capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blowup_golden_bytes(workers, capsys):
    argv = ["blowup", "--h", "0.2,0.1,0.05", "--u0", "3", "--M", "1024", "--seed", "1",
            "--workers", str(workers)]
    assert cli.main(argv) == 0
    assert_golden("blowup_u0_3.txt", capsys.readouterr().out)


def test_identity_check_golden_bytes(capsys):
    assert cli.main(["identity-check", "--workers", "1"]) == 0
    assert_golden("identity_check.txt", capsys.readouterr().out)
