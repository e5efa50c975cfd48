"""Config grammar, experiment runner, CSV/manifest formats, exit codes."""

import json
import os

import numpy as np
import pytest

from ctqrw import cli
from ctqrw.config import figure_presets, parse_config
from ctqrw.errors import ConfigError


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


GOOD_ENSEMBLE = """
[experiment]
kind = ensemble
seed = 1

[model]
type = depolarizing

[kernel]
type = fractional
amplitude = 0.70710678118654752
alpha = 0.5

[grid]
t_max_over_T = 10
n_points = 50

[ensemble]
n_realizations = 200

[output]
csv = out.csv
manifest = run.json
"""


def test_parse_good_config(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD_ENSEMBLE))
    assert cfg.kind == "ensemble"
    assert cfg.n_realizations == 200
    grid = cfg.grid()
    assert grid.size == 50
    assert grid[-1] == pytest.approx(20.0)  # T = 2 for this kernel


def test_parse_errors_name_keys(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        parse_config(write(tmp_path, "[experiment]\nkind = nonsense\n"))
    with pytest.raises(ConfigError, match="kernel"):
        parse_config(write(tmp_path, "[experiment]\nkind = classify\n"))
    bad_kernel = GOOD_ENSEMBLE.replace("type = fractional", "type = fractal")
    with pytest.raises(ConfigError, match="kernel.type"):
        parse_config(write(tmp_path, bad_kernel))


def test_run_ensemble_and_manifest(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out = tmp_path / "results"
    assert cli.run(path, str(out)) == 0
    csv = (out / "out.csv").read_text()
    lines = csv.splitlines()
    assert lines[0].split(",")[:4] == ["t", "mc_mean_Mx", "mc_stderr", "analytic_Mx"]
    assert len(lines) == 51
    manifest = json.loads((out / "run.json").read_text())
    cli.validate_manifest(manifest)
    assert manifest["experiment"] == "ensemble"
    assert manifest["wall_time_sec"] > 0


def test_rerun_is_byte_identical(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, str(out1)) == 0
    assert cli.run(path, str(out2)) == 0
    assert (out1 / "out.csv").read_bytes() == (out2 / "out.csv").read_bytes()


def test_threads_do_not_change_output(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, str(out1), threads=1) == 0
    assert cli.run(path, str(out2), threads=4) == 0
    assert (out1 / "out.csv").read_bytes() == (out2 / "out.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, str(out1)) == 0
    assert cli.run(path, str(out2), seed_override=99) == 0
    assert (out1 / "out.csv").read_bytes() != (out2 / "out.csv").read_bytes()


def test_empty_grid_is_config_error(tmp_path):
    bad = GOOD_ENSEMBLE.replace("n_points = 50", "n_points = 0")
    assert cli.run(write(tmp_path, bad), str(tmp_path / "o")) == 2


def test_missing_file_is_config_error(tmp_path):
    assert cli.run(str(tmp_path / "absent.ini"), str(tmp_path)) == 2


def test_classify_preset_dangerous(tmp_path):
    text = """
[experiment]
kind = classify

[kernel]
type = exponential
amplitude = 0.25
gamma = 0.5

[output]
csv = verdict.json
"""
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"] == "dangerous"
    assert doc["witness"]["w_value"] < 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"]["verdict"] == "dangerous"


def test_numeric_failure_exit_code(tmp_path):
    # subordination route on a dangerous kernel -> exit 3
    text = """
[experiment]
kind = solve

[model]
type = depolarizing

[kernel]
type = exponential
amplitude = 1.0
gamma = 1.0

[solve]
route = subordination

[grid]
n_points = 10
"""
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 3


def test_figure_presets_match_captions():
    p1 = figure_presets(1)
    assert p1.kind == "realizations"
    (label, kern), = p1.kernels
    assert kern.alpha == 0.5 and kern.amplitude == pytest.approx(1 / np.sqrt(2))
    p3 = figure_presets(3)
    kinds = {lbl: k for lbl, k in p3.kernels}
    assert kinds["markovian"].rate == 0.5
    assert kinds["exp_dangerous"].amplitude == 0.25
    assert kinds["exp_dangerous"].decay == 0.5
    p4 = figure_presets(4)
    kinds = {lbl: k for lbl, k in p4.kernels}
    assert kinds["markovian"].rate == 1.0
    assert kinds["exp_safe"].amplitude == 4.0
    assert p4.model.kappa == 0.75 and p4.model.p_down == 1.0
    # all grids span t/T in [0, 10] with 200 points
    for preset in (p1, p3, p4):
        grid = preset.grid()
        assert grid.size == 200
        from ctqrw.kernels import kernel_time_scale

        assert grid[-1] == pytest.approx(10.0 * kernel_time_scale(preset.kernels[0][1]))


def test_figure3_run_produces_four_curves(tmp_path):
    text = "[experiment]\nkind = figure3\nseed = 2\n"
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    header = (out / "figure3.csv").read_text().splitlines()[0]
    assert header == "t,delta_markovian,delta_fractional,delta_exp_safe,delta_exp_dangerous"


def test_solve_routes_cover_csv_columns(tmp_path):
    text = """
[experiment]
kind = solve

[model]
type = depolarizing

[kernel]
type = markovian
rate = 0.5

[solve]
route = series

[grid]
n_points = 20
"""
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    header = (out / "output.csv").read_text().splitlines()[0]
    assert header.startswith("t,P_up,P_down,")


def test_cp_audit_run(tmp_path):
    text = """
[experiment]
kind = cp-audit

[model]
type = depolarizing

[kernel]
type = exponential
amplitude = 0.75
gamma = 2.0

[grid]
n_points = 40
"""
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    rows = (out / "output.csv").read_text().splitlines()
    assert rows[0] == "t,cp_defect,min_state_eigenvalue"
    defects = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert defects.min() > -1e-9


GOOD_WIGNER = """
[experiment]
kind = wigner
seed = 4

[kernel]
type = markovian
rate = 1.0

[wigner]
n_walkers = 100
jump = gaussian
mean_abs_sq = 0.5

[grid]
n_points = 12
t_max_over_T = 5
"""


def test_wigner_run(tmp_path):
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, GOOD_WIGNER), str(out)) == 0
    header = (out / "output.csv").read_text().splitlines()[0]
    assert header == "t,mean_count,n_estimate"


@pytest.mark.parametrize(
    "text, line, key",
    [
        (GOOD_WIGNER, "n_walkers = 0", "wigner.n_walkers"),
        (GOOD_WIGNER, "n_walkers = -5", "wigner.n_walkers"),
        (GOOD_WIGNER, "n_walkers = many", "wigner.n_walkers"),
        (GOOD_ENSEMBLE, "n_realizations = 0", "ensemble.n_realizations"),
        (
            GOOD_ENSEMBLE.replace("kind = ensemble", "kind = realizations").replace(
                "[ensemble]", "[realizations]"
            ),
            "n_realizations = -1",
            "realizations.n_realizations",
        ),
    ],
)
def test_counts_below_one_are_config_errors(tmp_path, capsys, text, line, key):
    name = line.split(" = ")[0]
    bad = "\n".join(line if row.startswith(name + " =") else row for row in text.splitlines())
    assert cli.run(write(tmp_path, bad), str(tmp_path / "o")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, line, key",
    [
        (GOOD_ENSEMBLE, "t_max_over_T = nan", "grid.t_max_over_T"),
        (GOOD_ENSEMBLE, "t_max_over_T = inf", "grid.t_max_over_T"),
        (GOOD_ENSEMBLE, "t_max_over_T = -1", "grid.t_max_over_T"),
        (GOOD_ENSEMBLE.replace("seed = 1", "seed = 1\nthreads = 1"), "threads = 1.5",
         "experiment.threads"),
    ],
)
def test_bad_grid_span_and_threads_are_config_errors(tmp_path, capsys, text, line, key):
    test_counts_below_one_are_config_errors(tmp_path, capsys, text, line, key)


@pytest.mark.parametrize(
    "route, message", [("volterra", "uniform grid"), ("series", "reaches past t = 0")]
)
def test_single_point_grid_is_numeric_failure(tmp_path, capsys, route, message):
    text = GOOD_ENSEMBLE.replace("kind = ensemble", "kind = solve").replace(
        "[ensemble]\nn_realizations = 200", f"[solve]\nroute = {route}"
    )
    bad = text.replace("n_points = 50", "n_points = 1")
    assert cli.run(write(tmp_path, bad), str(tmp_path / "o")) == 3
    assert message in capsys.readouterr().err


GOOD_INTRINSIC = """
[experiment]
kind = intrinsic

[kernel]
type = markovian
rate = 1.0

[intrinsic]
levels = 0, 1, 2.5
phase = delta
tau_b = 0.7

[grid]
n_points = 15
"""


def test_intrinsic_run(tmp_path):
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, GOOD_INTRINSIC), str(out)) == 0
    header = (out / "output.csv").read_text().splitlines()[0]
    assert "re_rho_00" in header and "im_rho_22" in header


DEPOLARIZING_P = GOOD_ENSEMBLE.replace(
    "type = depolarizing", "type = depolarizing\np_x = 0.5\np_y = 0.5"
)
THERMAL_ENSEMBLE = GOOD_ENSEMBLE.replace(
    "type = depolarizing", "type = thermal\nkappa = 0.75\np_up = 0\np_down = 1"
)
LEVY_WIGNER = GOOD_WIGNER.replace(
    "jump = gaussian\nmean_abs_sq = 0.5", "jump = levy\nmu = 1.5\nsigma = 1"
)
MEAN_WIGNER = GOOD_WIGNER.replace("mean_abs_sq = 0.5", "mean_abs_sq = 0.5\nmean = 0")


@pytest.mark.parametrize(
    "text, line, key",
    [
        (GOOD_ENSEMBLE, "alpha = 1.5", "[kernel]"),
        (GOOD_ENSEMBLE, "amplitude = -1", "[kernel]"),
        (DEPOLARIZING_P, "p_x = 0.7", "[model]"),
        (DEPOLARIZING_P, "p_x = abc", "model.p_x"),
        (DEPOLARIZING_P, "p_y = nan", "model.p_y"),
        (THERMAL_ENSEMBLE, "kappa = 1.5", "[model]"),
        (LEVY_WIGNER, "mu = 3", "[wigner]"),
        (LEVY_WIGNER, "sigma = wide", "wigner.sigma"),
        (GOOD_WIGNER, "mean_abs_sq = abc", "wigner.mean_abs_sq"),
        (MEAN_WIGNER, "mean = 2", "[wigner]"),
        (MEAN_WIGNER, "mean = 1+", "wigner.mean"),
        (MEAN_WIGNER, "mean = inf", "wigner.mean"),
        (GOOD_INTRINSIC, "levels = 0,1,inf", "[intrinsic]"),
    ],
)
def test_bad_model_kernel_jump_and_spectrum_values_are_config_errors(
    tmp_path, capsys, text, line, key
):
    test_counts_below_one_are_config_errors(tmp_path, capsys, text, line, key)


def test_subordination_overflow_is_numeric_failure(tmp_path, capsys):
    text = (
        GOOD_ENSEMBLE.replace("kind = ensemble", "kind = solve")
        .replace("[ensemble]\nn_realizations = 200", "[solve]\nroute = subordination")
        .replace("alpha = 0.5", "alpha = 0.9")
    )
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "alpha=0.9" in err and "not finite" in err
    assert not (tmp_path / "o" / "out.csv").exists()


def test_env_threads_fallback(tmp_path, monkeypatch):
    path = write(tmp_path, GOOD_ENSEMBLE)
    monkeypatch.setenv("CTQRW_THREADS", "2")
    out1 = tmp_path / "env"
    assert cli.run(path, str(out1)) == 0
    out2 = tmp_path / "plain"
    monkeypatch.delenv("CTQRW_THREADS")
    assert cli.run(path, str(out2)) == 0
    assert (out1 / "out.csv").read_bytes() == (out2 / "out.csv").read_bytes()


def test_csv_17_digit_round_trip(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out = tmp_path / "o"
    cli.run(path, str(out))
    rows = (out / "out.csv").read_text().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    # formatting must be lossless: re-format and compare strings
    again = "\n".join(",".join(f"{v:.17g}" for v in row) for row in vals)
    assert again == "\n".join(rows)


def test_main_entry_point(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    code = cli.main(["--config", path, "--out-dir", str(tmp_path / "m")])
    assert code == 0


def test_cli_import_leaves_scipy_signal_unloaded():
    import subprocess
    import sys

    import ctqrw

    src = os.path.dirname(os.path.dirname(ctqrw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ctqrw.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
