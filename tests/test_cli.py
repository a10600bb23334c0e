"""Driver-level tests: argument handling, CSV/JSON output, exit codes."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weaktame import cli, moments

RATES_EXPECTED = (
    "alpha_or_eta,exponent,source_formula\n"
    "1,0.088235294117647051,pointwise_strong\n"
    "1,0.064516129032258063,pointwise_balanced\n"
    "0.5,0.10000000000000001,uniform_strong\n"
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # inherited env defaults would silently change pinned outputs
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)


def test_rates_pinned_csv(capsys):
    code = cli.main(["rates", "--alpha-grid", "1.0", "--eta-grid", "0.5"])
    assert code == 0
    assert capsys.readouterr().out == RATES_EXPECTED


def test_rates_grid_syntax(capsys):
    code = cli.main(["rates", "--eta-grid", "0.25:0.75:0.25"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.25", "0.5", "0.75"]


def test_identity_check_json(capsys):
    code = cli.main(["identity-check", "--samples", "20000", "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 20000
    assert payload["tolerance"] == 1e-12
    assert payload["passed"] is True
    assert 0.0 < payload["mean_residual"] <= payload["max_residual"] < 1e-12


def test_identity_check_failure_names_its_gate(monkeypatch, capsys):
    # every residual reaches a zero tolerance, so the gate fails
    monkeypatch.setattr(cli, "IDENTITY_TOLERANCE", 0.0)
    assert cli.main(["identity-check", "--samples", "1000"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    worst, tol = payload["max_residual"], payload["tolerance"]
    assert captured.err.splitlines() == [
        f"gate failed: identity-check max residual = {worst:.6g}, tolerance = {tol:.6g}, "
        f"margin {tol - worst:+.6g}"
    ]


def test_strong_error_small_run_fails_gate(capsys):
    # coarse levels with few samples land below the 0.40 slope floor, and
    # stderr names each failing fit
    with pytest.warns(UserWarning, match="reference self-consistency"):
        code = cli.main(["strong-error", "--levels", "2..5", "--M", "200", "--seed", "4"])
    assert code == 1
    captured = capsys.readouterr()
    fits = json.loads(captured.out[captured.out.index("{") :])
    assert fits["uniform"]["slope"] < 0.40
    floors = {name: max(f["theoretical"] - 0.05, 0.40) for name, f in fits.items()}
    failing = [name for name, f in fits.items() if f["slope"] < floors[name]]
    lines = captured.err.splitlines()
    assert len(lines) == len(failing)
    for name, line in zip(failing, lines):
        slope = fits[name]["slope"]
        assert line == (
            f"gate failed: {name} fit slope = {slope:.6g}, floor max(theoretical - 0.05, "
            f"0.40) = {floors[name]:.6g}, margin {slope - floors[name]:+.6g}"
        )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_strong_error_moderate_run_passes_gate(capsys):
    code = cli.main(["strong-error", "--levels", "4..8", "--M", "2000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    header, first = out.splitlines()[:2]
    assert header == "level,h,eta,alpha,eta_error,alpha_error,ci,M,blowup_count"
    assert first.startswith("4,0.0625,0.5,1,")
    fits = json.loads(out[out.index("{") :])
    assert set(fits) == {"uniform", "pointwise"}
    for fit in fits.values():
        assert fit["slope"] >= 0.40
        assert set(fit) == {"slope", "intercept", "r2", "theoretical"}


def test_moments_csv_and_gate(capsys):
    code = cli.main(
        ["moments", "--levels", "4,5", "--M", "1500", "--p", "1.0,2.0", "--seed", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scheme,h,p,sup_of_mean,mean_of_sup,integral_term,blowup_fraction,M"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[0] == "weak_tamed_enkf"
        assert fields[3] == "1"
        assert fields[6] == "0"
        assert fields[7] == "1500"


def test_moments_gate_failure_names_the_order(capsys):
    # E|u|^4 grows in time on the h = 2^-6 grid but not at h = 1, and E|u|
    # does not, so only p = 4 fails; M = 500 is one bootstrap batch, so the
    # half-widths are 0 and the allowance is 0.05
    argv = ["moments", "--levels", "0,6", "--M", "500", "--u0", "0.5", "--p", "1,4",
            "--workers", "1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    sups = [float(row.split(",")[3]) for row in captured.out.splitlines()[1:]
            if row.split(",")[2] == "4"]
    spread = max(sups) - min(sups)
    (line,) = captured.err.splitlines()
    assert line.startswith(f"gate failed: moments p = 4: max - min of sup_of_mean = {spread:.6g}, ")
    allowance = float(line.split("0.05 = ")[1].split(",")[0])
    assert allowance < spread
    assert line.endswith(f", margin {allowance - spread:+.6g}")


def test_moments_regularized_scheme(capsys):
    code = cli.main(
        ["moments", "--levels", "4", "--M", "400", "--scheme", "regularized-em",
         "--epsilon", "0.25", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("regularized_em(eps=0.25),")


def test_blowup_pinned_row(capsys):
    code = cli.main(["blowup", "--h", "0.1", "--M", "300", "--seed", "5"])
    assert code == 0
    assert capsys.readouterr().out == (
        "h,median_abs_endpoint,exceed_fraction\n"
        "0.10000000000000001,9.9999999999999998e+149,1\n"
    )


def test_enkf_scalar_pair_has_q_column(capsys):
    code = cli.main(["enkf", "--steps", "5", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_0,spread,q,misfit"
    assert len(lines) == 7
    assert [ln.split(",")[0] for ln in lines[1:]] == [str(n) for n in range(6)]


def test_enkf_general_shape(capsys):
    code = cli.main(
        ["enkf", "--J", "3", "--d", "2", "--K", "2", "--steps", "3", "--seed", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_0,mean_1,spread,misfit"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["rates"], "alpha-grid"),
        (["moments", "--levels", "4", "--M", "50", "--epsilon", "0.1"], "epsilon"),
        (["moments", "--levels", "4", "--M", "50", "--scheme", "regularized-em"], "epsilon"),
        (["enkf", "--steps", "-3"], "n_steps"),
        (["enkf", "--J", "1", "--steps", "2"], "ensemble_size"),
        (["identity-check", "--samples", "100", "--workers", "0"], "workers"),
        (["strong-error", "--levels", "4,5,6", "--M", "50"], "levels"),
        # u0*u0 overflows: the reference used to blow up with a traceback
        (["strong-error", "--u0", "1e160", "--levels", "1..4", "--M", "10",
          "--workers", "1"], "u0"),
        # ... and moments printed inf
        (["moments", "--u0=-1e160", "--levels", "1..2", "--M", "10",
          "--workers", "1"], "u0"),
        # u0 beyond the saturation sentinel: the step loop checks nodes from
        # 1 on, so strong-error printed 9e150 errors and moments reported
        # sup_of_mean = 1e151
        (["strong-error", "--u0", "1e151", "--levels", "0..3", "--M", "3",
          "--workers", "1"], "u0"),
        (["moments", "--u0", "1e151", "--p", "1", "--levels", "1..2", "--M", "10",
          "--workers", "1"], "u0"),
        (["blowup", "--u0=-1e151", "--M", "10", "--workers", "1"], "u0"),
        # two 512-row batches on a pool of 2: the error is raised in a worker
        (["moments", "--u0", "1e151", "--p", "1", "--levels", "1..2", "--M", "1024",
          "--workers", "2"], "u0"),
        (["blowup", "--u0=nan", "--M", "1024", "--workers", "2"], "u0"),
        # ... and with the caller one of the two workers, at the reference
        # (strong-error) and at the moments (both raise in every batch)
        (["strong-error", "--u0", "1e160", "--levels", "1..4", "--M", "600",
          "--workers", "2"], "u0 must lie in the range |u0| <= 1e+150"),
        (["moments", "--u0=-1e160", "--levels", "1..2", "--M", "1100",
          "--workers", "2"], "u0 must lie in the range |u0| <= 1e+150"),
        # the chain overflows; numpy warnings used to precede the error line
        (["enkf", "--J", "40", "--d", "3", "--K", "2", "--h", "1e308", "--steps", "3",
          "--workers", "1"], "anomalies must be finite"),
        # non-finite orders used to simulate every level, then report overflow
        (["moments", "--p", "nan", "--levels", "4", "--M", "50", "--workers", "1"],
         "finite and positive"),
        (["moments", "--p", "1,inf", "--levels", "4", "--M", "50", "--workers", "1"],
         "finite and positive"),
        # h * u overflows in the reference; this used to end in a RuntimeError
        (["strong-error", "--T", "1e300", "--u0", "1e150", "--levels", "0..3", "--M", "10",
          "--workers", "1"], "overflow float64"),
        # 80 PiB of increments, beyond the address space: numpy refuses at
        # once, and this used to end in a MemoryError traceback
        (["moments", "--levels", "50", "--M", "10", "--workers", "1"], "too large for memory"),
        # grids no float64 array can hold fail before anything is allocated;
        # these used to end in numpy's bare "Maximum allowed dimension exceeded"
        (["moments", "--levels", "70", "--M", "10", "--workers", "1"], "2**70 steps"),
        (["strong-error", "--levels", "60..63", "--M", "10", "--workers", "1"],
         "2**67 steps"),
        (["blowup", "--h", "1e-300", "--M", "10", "--workers", "1"], "too large for a float64"),
        (["blowup", "--h", "0.1", "--T", "1e300", "--M", "10", "--workers", "1"],
         "too large for a float64"),
        # horizon / h overflows to inf; round(inf) used to end in an
        # OverflowError traceback
        (["blowup", "--h", "1e-320", "--M", "10", "--workers", "1"], "h = 1e-320"),
        (["blowup", "--T", "1e300", "--h", "1e-300", "--M", "10", "--workers", "1"],
         "h = 1e-300"),
        # every error is zero; fit_rate's exclusion warning used to print
        # two lines before the error line
        (["strong-error", "--u0", "0", "--levels", "4..7", "--M", "64", "--workers", "1"],
         "positive-error levels"),
        (["strong-error", "--T", "1e-300", "--levels", "4..7", "--M", "64", "--workers", "1"],
         "positive-error levels"),
        # an -o path that cannot be written used to end in a traceback, exit 1
        (["rates", "--eta-grid", "0.5", "-o", "/no/such/dir/x.csv"],
         "cannot write '/no/such/dir/x.csv'"),
        (["rates", "--eta-grid", "0.5", "-o", ""], "Is a directory"),
    ],
)
# pytest captures warnings instead of printing them, so make them fail
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::UserWarning")
def test_usage_errors_exit_2(argv, fragment, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert fragment in err


# cli.main in a child whose address space is capped at 512 MiB, so that a
# flag's value that outgrows memory fails in seconds, not after filling RAM
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from weaktame import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        # argparse builds the level tuple and the grid while it reads the
        # flag; this used to end in a MemoryError traceback with exit 1
        ["moments", "--levels", "0..1000000000000"],
        ["rates", "--eta-grid", "0.1:0.2:1e-300"],
    ],
)
def test_flag_values_too_large_for_memory_exit_2(argv):
    # one BLAS thread: each thread's buffers count against the cap
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *argv, "--workers", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: run too large for memory\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moments_overflow_exits_2_without_a_table(tmp_path, capsys):
    # u0 lies in range, but its order-2.5 moments overflow
    out = tmp_path / "m.csv"
    argv = ["moments", "--u0", "1e150", "--levels", "1..2", "--M", "10",
            "--workers", "1", "-o", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert "p = 2" in captured.err
    assert not out.exists() and not out.with_suffix(".config.json").exists()


@pytest.mark.filterwarnings("error::UserWarning")
def test_strong_error_fit_failure_exits_2_without_a_table(tmp_path, capsys):
    # every error is zero at the fixed point u0 = 0, so no rate can be fitted
    out = tmp_path / "s.csv"
    argv = ["strong-error", "--u0", "0", "--levels", "4..7", "--M", "64",
            "--workers", "1", "-o", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert "positive-error levels" in captured.err
    assert not out.exists() and not out.with_suffix(".config.json").exists()


_every_grid_batch = moments._every_grid_batch


def _die_in_a_worker(*args):
    # a pooled batch ends its process the way the out-of-memory killer would
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _every_grid_batch(*args)


def test_a_dead_worker_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # 4 batches at 2 workers: one child runs batches 1 and 3, and dies at 1
    monkeypatch.setattr(moments, "_every_grid_batch", _die_in_a_worker)
    out = tmp_path / "m.csv"
    argv = ["moments", "--levels", "4..6", "--M", "2048", "--workers", "2", "--p", "2",
            "-o", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a worker process died (out of memory?)\n"
    assert "Traceback" not in captured.err
    assert not out.exists() and not out.with_suffix(".config.json").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("blocked", ["table", "sidecar"])
def test_failed_output_write_leaves_neither_file(blocked, tmp_path, monkeypatch, capsys):
    # a directory where one of the two files should go makes its write fail
    monkeypatch.chdir(tmp_path)
    paths = {"table": Path("d.csv"), "sidecar": Path("d.config.json")}
    paths[blocked].mkdir()
    assert cli.main(["rates", "--eta-grid", "0.5", "-o", "d.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write '{paths[blocked]}': Is a directory\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / paths[blocked]]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["strong-error", "--M", "1e400"],
        ["identity-check", "--samples", "1e400"],
        ["rates", "--alpha-grid", "0:inf:1"],
        ["rates", "--eta-grid", "0:1:1e-320"],
    ],
)
def test_non_finite_counts_and_grid_bounds_exit_2(argv, capsys):
    # int(round(inf)) used to end in an OverflowError traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert repr(argv[-1]) in capsys.readouterr().err


def test_env_seed_precedence(monkeypatch, capsys):
    code = cli.main(["identity-check", "--samples", "5000", "--seed", "7"])
    flagged = capsys.readouterr().out
    assert code == 0

    monkeypatch.setenv(cli.SEED_ENV, "7")
    cli.main(["identity-check", "--samples", "5000"])
    assert capsys.readouterr().out == flagged

    monkeypatch.setenv(cli.SEED_ENV, "3")
    cli.main(["identity-check", "--samples", "5000", "--seed", "7"])
    assert capsys.readouterr().out == flagged


def test_bad_env_value_names_variable(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "seven")
    assert cli.main(["identity-check"]) == 2
    assert cli.SEED_ENV in capsys.readouterr().err


def test_output_sidecar_roundtrip(tmp_path):
    out = tmp_path / "m.csv"
    argv = ["moments", "--levels", "4", "--M", "600", "--p", "2.0",
            "--seed", "9", "--workers", "1", "-o", str(out)]
    assert cli.main(argv) == 0
    sidecar = out.with_suffix(".config.json")
    assert sidecar.exists()
    text = sidecar.read_text()
    config = cli.parse_config(text)
    assert cli.emit_config(config) == text
    assert config.workers == 1

    rerun = tmp_path / "m2.csv"
    assert cli.run(cli.parse_config(text.replace("m.csv", "m2.csv"))) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_workers_env_does_not_change_bytes(monkeypatch, tmp_path):
    base = tmp_path / "w1.csv"
    cli.main(["moments", "--levels", "4", "--M", "600", "--p", "2.0",
              "--seed", "9", "--workers", "1", "-o", str(base)])

    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    env_out = tmp_path / "w2.csv"
    cli.main(["moments", "--levels", "4", "--M", "600", "--p", "2.0",
              "--seed", "9", "-o", str(env_out)])
    assert env_out.read_bytes() == base.read_bytes()
    sidecar = json.loads(env_out.with_suffix(".config.json").read_text())
    assert sidecar["workers"] == 2


def test_parse_config_rejects_unknown_keys():
    text = json.dumps({"subcommand": "rates", "nonsense": 1})
    with pytest.raises(ValueError, match="nonsense"):
        cli.parse_config(text)


SIDECAR_CASES = [
    ("rates", ["rates", "--alpha-grid", "1.0", "--eta-grid", "0.5"]),
    ("strong_error", ["strong-error"]),
    ("moments", ["moments"]),
    ("moments_regularized", ["moments", "--scheme", "regularized-em", "--epsilon", "0.1"]),
    ("blowup", ["blowup"]),
    ("enkf", ["enkf"]),
    ("identity_check", ["identity-check"]),
]


@pytest.mark.parametrize("name, argv", SIDECAR_CASES, ids=[c[0] for c in SIDECAR_CASES])
def test_default_config_sidecar_bytes_are_pinned(name, argv, tmp_path, monkeypatch):
    # Every flag resolved into the config of a default run: a field dropped,
    # renamed or defaulted differently changes these bytes. The runners are
    # replaced by one that only delivers, so nothing is simulated.
    def deliver_only(config):
        cli._deliver(config, "")
        return 0

    for subcommand in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, subcommand, deliver_only)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--workers", "1", "-o", "out.csv"]) == 0
    pinned = Path(__file__).parent / "golden" / "sidecars" / f"{name}.config.json"
    assert (tmp_path / "out.config.json").read_bytes() == pinned.read_bytes()
