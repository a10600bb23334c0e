"""Pinned report bytes of small strong-error runs.

The files under ``golden/`` are the stdout (CSV table, then the rate-fit
JSON) of the commands below. The bytes depend on numpy's Philox and scipy's
``ndtri``; ``golden/versions.json`` records the versions they were made with.
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


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, extra, code", CASES, ids=[c[0][:-4] for c in CASES])
def test_strong_error_golden_bytes(name, extra, code, workers, capsys):
    argv = ["strong-error", "--levels", "4..8", "--M", "256", "--seed", "1",
            "--workers", str(workers)] + extra
    assert cli.main(argv) == code
    pinned = json.loads((GOLDEN / "versions.json").read_text())
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert capsys.readouterr().out == (GOLDEN / name).read_text(), (
        f"pinned with {pinned}, running {versions}"
    )
