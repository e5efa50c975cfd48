"""Config grammar, experiment runner, CSV/manifest formats, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from ctqrw import cli
from ctqrw.config import figure_presets, parse_config
from ctqrw.errors import ConfigError, ManifestError


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


def test_manifest_without_seeds_is_rejected():
    doc = {
        "experiment": "ensemble",
        "config": {},
        "library_version": "0.1.0",
        "wall_time_sec": 0.5,
        "outputs": ["out.csv"],
    }
    for _ in range(2):  # the second call reuses the cached validator
        with pytest.raises(ManifestError, match="seeds"):
            cli.validate_manifest(doc)
    cli.validate_manifest(dict(doc, seeds=[1]))


def test_manifest_records_dependency_versions(tmp_path):
    import platform
    from importlib import metadata

    path = write(tmp_path, GOOD_ENSEMBLE)
    out = tmp_path / "results"
    assert cli.run(path, str(out)) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["dependency_versions"] == {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    assert cli._dependency_versions() is cli._dependency_versions()  # read once per process
    bad = dict(manifest, dependency_versions={"python": "3", "numpy": 2})
    with pytest.raises(ManifestError):
        cli.validate_manifest(bad)


def test_realizations_manifest_names_the_run_seed(tmp_path):
    text = (
        GOOD_ENSEMBLE.replace("kind = ensemble", "kind = realizations")
        .replace("[ensemble]", "[realizations]")
        .replace("seed = 1", "seed = 17")
    )
    out = tmp_path / "results"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    manifest = json.loads((out / "run.json").read_text())
    cli.validate_manifest(manifest)
    assert manifest["seeds"] == [17]


@pytest.mark.parametrize("name", ["numpy", "scipy", "jsonschema", "pytest"])
def test_installed_version_is_the_metadata_version(name):
    from importlib import metadata

    assert cli._installed_version(name) == metadata.version(name)


def test_installed_version_falls_back_to_metadata(monkeypatch):
    from importlib import metadata

    monkeypatch.setattr(cli.importlib.util, "find_spec", lambda name: None)
    assert cli._installed_version("scipy") == metadata.version("scipy")


# one small config per runner kind, and the four figure presets: the real
# manifests the checker must pass, and the seeds of the mutations below
_KERNEL = "[kernel]\ntype = fractional\namplitude = 0.70710678118654752\nalpha = 0.5\n"
_MODEL_KERNEL = "[model]\ntype = depolarizing\n\n" + _KERNEL + "\n[grid]\nn_points = 9\n"
_DANGEROUS = "[kernel]\ntype = exponential\namplitude = 1\ngamma = 1\n"
MANIFEST_KINDS = {
    "realizations": "[experiment]\nkind = realizations\nseed = 4\n\n" + _MODEL_KERNEL,
    "ensemble": "[experiment]\nkind = ensemble\n\n" + _MODEL_KERNEL + "\n[ensemble]\nn_realizations = 20\n",
    "solve": "[experiment]\nkind = solve\n\n" + _MODEL_KERNEL + "\n[solve]\nroute = volterra\n",
    "classify": "[experiment]\nkind = classify\n\n" + _DANGEROUS,
    "cp-audit": "[experiment]\nkind = cp-audit\n\n" + _MODEL_KERNEL,
    "entropy": "[experiment]\nkind = entropy\n\n" + _MODEL_KERNEL,
    "wigner": "[experiment]\nkind = wigner\n\n" + _KERNEL + "\n[wigner]\nn_walkers = 20\n",
    "intrinsic": "[experiment]\nkind = intrinsic\n\n" + _KERNEL
                 + "\n[intrinsic]\nlevels = 0, 1.3\ntau_b = 0.5\n",
    **{f"figure{n}": f"[experiment]\nkind = figure{n}\n" for n in (1, 2, 3, 4)},
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    docs = {}
    for kind, text in MANIFEST_KINDS.items():
        base = tmp_path_factory.mktemp(kind)
        path = write(base, text)
        assert cli.run(path, str(base / "out")) == 0
        docs[kind] = json.loads((base / "out" / parse_config(path).manifest_name).read_text())
    return docs


def _schema():
    return json.loads((Path(cli.__file__).parent / "manifest_schema.json").read_text())


# values that break one type or another: booleans are neither integers nor
# numbers, 1.0 is an integer, -0.5 is below wall_time_sec's minimum
_VALUES = [True, False, 0, 1, -1, 1.0, 1.5, -0.5, -0.0, float("inf"), float("nan"), "", "1",
           None, [], [1], ["a"], [True], [1.0], [1.5], {}, {"a": 1}]


def _mutations(doc: dict):
    """The real manifest, and copies with one value replaced, one key
    deleted or one key added, at the top level and one level down."""
    yield "as is", doc
    yield "a list", [doc]
    for key in list(doc) + ["extra"]:
        yield f"without {key}", {k: v for k, v in doc.items() if k != key}
        for value in _VALUES:
            yield f"{key} = {value!r}", dict(doc, **{key: value})
        inner = doc.get(key)
        if isinstance(inner, dict):
            for sub in list(inner) + ["extra"]:
                yield f"without {key}.{sub}", dict(doc, **{key: {k: v for k, v in inner.items() if k != sub}})
                for value in _VALUES:
                    yield f"{key}.{sub} = {value!r}", dict(doc, **{key: dict(inner, **{sub: value})})
        if isinstance(inner, list):
            for value in _VALUES:
                yield f"{key}[0] = {value!r}", dict(doc, **{key: [value] + inner[1:]})
                yield f"{key} + [{value!r}]", dict(doc, **{key: inner + [value]})


def test_manifest_checker_agrees_with_jsonschema(manifests):
    import jsonschema

    oracle = jsonschema.Draft202012Validator(_schema())
    verdicts = {True: 0, False: 0}
    for kind, doc in manifests.items():
        cli.validate_manifest(doc)
        for what, mutant in _mutations(doc):
            try:
                cli.validate_manifest(mutant)
                accepted = True
            except ManifestError:
                accepted = False
            assert accepted == oracle.is_valid(mutant), f"{kind}: {what}"
            verdicts[accepted] += 1
    assert min(verdicts.values()) > 1000, verdicts  # both verdicts are well exercised


def test_manifest_error_names_the_path():
    doc = {"experiment": "solve", "config": {}, "seeds": [1, "7"], "library_version": "0",
           "wall_time_sec": 0.1, "outputs": []}
    with pytest.raises(ManifestError, match=r"manifest\.seeds\[1\] must be of type integer"):
        cli.validate_manifest(doc)
    with pytest.raises(ManifestError, match=r"manifest\.wall_time_sec = -1 is below its minimum 0"):
        cli.validate_manifest(dict(doc, seeds=[1], wall_time_sec=-1))
    with pytest.raises(ManifestError, match=r"manifest\.dependency_versions\.scipy is required"):
        cli.validate_manifest(dict(doc, seeds=[1], dependency_versions={"python": "3", "numpy": "2"}))


def test_manifest_schema_is_a_valid_draft_2020_12_schema():
    import jsonschema

    schema = _schema()
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    jsonschema.Draft202012Validator.check_schema(schema)
    assert cli._manifest_schema() == schema


@pytest.mark.parametrize(
    "where, edit, message",
    [
        ("experiment", {"pattern": "^[a-z]+$"}, "keyword 'pattern'"),
        ("seeds", {"items": {"type": "integer", "maximum": 5}}, "keyword 'maximum'"),
        ("outputs", {"items": True}, "not an object"),
        ("wall_time_sec", {"type": ["number", "null"]}, r"type \['number', 'null'\]"),
        ("verdict", {"type": "boolean"}, "type 'boolean'"),
        ("dependency_versions", {"additionalProperties": False}, "only additionalProperties: true"),
    ],
)
def test_schema_keyword_the_checker_lacks_is_refused(where, edit, message):
    schema = _schema()
    schema["properties"][where].update(edit)
    with pytest.raises(ManifestError, match=message):
        cli._check_schema(schema, "manifest_schema.json")


def test_manifest_error_is_not_a_numeric_failure(tmp_path, monkeypatch):
    # a manifest that misses its schema is a bug in ctqrw: run() raises it
    # instead of reporting exit 3
    build = cli._manifest
    monkeypatch.setattr(cli, "_manifest", lambda *args: dict(build(*args), seeds=["1"]))
    with pytest.raises(ManifestError, match=r"manifest\.seeds\[0\]"):
        cli.run(write(tmp_path, GOOD_ENSEMBLE), str(tmp_path / "out"))


def test_rerun_is_byte_identical(tmp_path):
    path = write(tmp_path, GOOD_ENSEMBLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, str(out1)) == 0
    assert cli.run(path, str(out2)) == 0
    assert (out1 / "out.csv").read_bytes() == (out2 / "out.csv").read_bytes()


@pytest.mark.parametrize(
    "text", [GOOD_ENSEMBLE, "[experiment]\nkind = figure2\nseed = 1\n"], ids=["ensemble", "figure2"]
)
def test_unnamed_experiment_key_is_ignored(tmp_path, text):
    # an old `threads = 2` line still runs, with the same bytes as without it
    plain = write(tmp_path, text, "plain.ini")
    keyed = write(tmp_path, text.replace("seed = 1", "seed = 1\nthreads = 2"), "keyed.ini")
    out1, out2 = tmp_path / "plain", tmp_path / "keyed"
    assert cli.run(plain, str(out1)) == 0
    assert cli.run(keyed, str(out2)) == 0
    csv = parse_config(plain).csv_name
    assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()


def test_threads_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", write(tmp_path, GOOD_ENSEMBLE), "--threads", "2"])
    assert exc.value.code == 2


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


FIGURE1 = "[experiment]\nkind = figure1\n"


@pytest.mark.parametrize(
    "text, words",
    [
        ("kind = figure1\n", ["no section headers", "run.ini", "line: 1"]),
        (FIGURE1 + "[experiment]\nkind = figure2\n", ["run.ini", "[line 3]", "'experiment'"]),
        (FIGURE1 + "kind = figure2\n", ["run.ini", "[line 3]", "'kind'"]),
        ("[experiment]\nkind = figure%1\n", ["experiment.kind", "'figure%1'"]),
        (FIGURE1 + "[output]\ncsv =\n", ["output.csv", "''"]),
        (FIGURE1 + "[output]\ncsv = sub/x.csv\n", ["output.csv", "'sub/x.csv'"]),
        (FIGURE1 + "[output]\nmanifest = ..\n", ["output.manifest", "'..'"]),
        (FIGURE1 + "[output]\ncsv = a.csv\nmanifest = a.csv\n", ["output.manifest", "output.csv"]),
    ],
    ids=["no-header", "duplicate-section", "duplicate-key", "percent", "empty-csv", "csv-path",
         "manifest-dots", "same-names"],
)
def test_malformed_input_is_config_error_naming_the_place(tmp_path, capsys, text, words):
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert all(word in err for word in words), err
    assert not (tmp_path / "o").exists()


def test_percent_in_a_value_is_read_literally(tmp_path):
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, FIGURE1 + "[output]\ncsv = a%b.csv\n"), str(out)) == 0
    assert sorted(os.listdir(out)) == ["a%b.csv", "manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["a%b.csv"]


def test_out_dir_naming_a_file_is_an_output_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert cli.run(write(tmp_path, FIGURE1), str(blocker)) == 2
    assert "--out-dir" in capsys.readouterr().err
    assert blocker.read_text() == ""


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
        assert grid[-1] == pytest.approx(10.0 * preset.kernels[0][1].time_scale)


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
    ],
)
def test_bad_grid_span_is_config_error(tmp_path, capsys, text, line, key):
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


@pytest.mark.parametrize(
    "kernel",
    ["type = markovian\nrate = 1.0", "type = exponential\namplitude = 1.0\ngamma = 2.0",
     "type = fractional\namplitude = 0.7\nalpha = 0.5"],
    ids=["markov", "exp", "frac"],
)
def test_intrinsic_one_level_run(tmp_path, kernel):
    # one level: no Bohr frequency, no decaying element, a constant state
    text = GOOD_INTRINSIC.replace("type = markovian\nrate = 1.0", kernel)
    text = text.replace("levels = 0, 1, 2.5", "levels = 1.5")
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    rows = (out / "output.csv").read_text().splitlines()
    assert rows[0] == "t,re_rho_00,im_rho_00"
    values = np.array([row.split(",")[1:] for row in rows[1:]], dtype=float)
    assert np.max(np.abs(values - [1.0, 0.0])) < 1e-12


@pytest.mark.parametrize("n_points", [2, 5])
def test_intrinsic_fractional_run_at_long_times_keeps_the_pole(tmp_path, n_points):
    # gamma_01 = 1 - e^{0.1 i}: at alpha = 0.97 the root of u^alpha =
    # -gamma_01 sits above the Talbot contours of t = 300 and 400
    from helpers import mittag_leffler_series

    text = (
        GOOD_INTRINSIC.replace("markovian\nrate = 1.0", "fractional\namplitude = 1\nalpha = 0.97")
        .replace("levels = 0, 1, 2.5", "levels = 0, 0.2")
        .replace("tau_b = 0.7", "tau_b = 0.5")
        .replace("n_points = 15", f"n_points = {n_points}\nt_max_over_T = 400")
    )
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    row = (out / "output.csv").read_text().splitlines()[-1].split(",")
    assert row[0] == "400"
    expected = mittag_leffler_series(0.97, (1.0 - np.exp(0.1j)) * 400.0**0.97) / 2
    assert abs(complex(float(row[3]), float(row[4])) - expected) < 1e-10


def test_intrinsic_one_level_exponential_population_is_exactly_one(tmp_path):
    # the stationary sector's decay factor is 1 for every kernel, not 1 to rounding
    text = GOOD_INTRINSIC.replace(
        "type = markovian\nrate = 1.0", "type = exponential\namplitude = 1.0\ngamma = 2.0"
    )
    text = text.replace("levels = 0, 1, 2.5", "levels = 1.5")
    text = text.replace("n_points = 15", "n_points = 400")
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    rows = (out / "output.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1"] * 400

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
SLOW_FRACTIONAL_SOLVE = (
    GOOD_ENSEMBLE.replace("kind = ensemble", "kind = solve")
    .replace("[ensemble]\nn_realizations = 200", "[solve]\nroute = series")
    .replace("alpha = 0.5", "alpha = 0.001")
)
MARKOVIAN_SOLVE = SLOW_FRACTIONAL_SOLVE.replace(
    "type = fractional\namplitude = 0.70710678118654752\nalpha = 0.001", "type = markovian\nrate = 1"
)


@pytest.mark.parametrize(
    "kind, section",
    [("ensemble", "[ensemble]\nn_realizations = 200"), ("entropy", ""), ("solve", "[solve]\nroute = closed")],
)
def test_closed_form_kinds_run_at_unequal_depolarizing_weights(tmp_path, kind, section):
    # the closed form reads every sector's rate off the channel, so the
    # kinds that use it serve p_x != p_y as cp-audit does
    text = (
        DEPOLARIZING_P.replace("p_x = 0.5\np_y = 0.5", "p_x = 0.3\np_y = 0.7")
        .replace("kind = ensemble", f"kind = {kind}")
        .replace("[ensemble]\nn_realizations = 200", section)
    )
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 0


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
        (GOOD_INTRINSIC.replace("phase = delta", "phase = exponential"), "tau_b = -1", "[intrinsic]"),
        # kernels with no finite time scale T > 0 (the grid is t_max_over_T * T)
        (SLOW_FRACTIONAL_SOLVE, "amplitude = 1e-8", "[kernel]"),
        (SLOW_FRACTIONAL_SOLVE, "amplitude = 1e300", "[kernel]"),
        (MARKOVIAN_SOLVE, "rate = 1e-320", "[kernel]"),
    ],
)
def test_bad_model_kernel_jump_and_spectrum_values_are_config_errors(
    tmp_path, capsys, text, line, key
):
    test_counts_below_one_are_config_errors(tmp_path, capsys, text, line, key)


@pytest.mark.parametrize("alpha", [0.75, 0.9])
def test_subordination_route_where_the_density_is_refused(tmp_path, alpha):
    # the route inverts each damping sector in the Laplace domain, so it
    # serves alpha where the internal-time density is not certified
    csvs = {}
    for route in ("subordination", "closed"):
        text = (
            GOOD_ENSEMBLE.replace("kind = ensemble", "kind = solve")
            .replace("[ensemble]\nn_realizations = 200", f"[solve]\nroute = {route}")
            .replace("alpha = 0.5", f"alpha = {alpha}")
        )
        assert cli.run(write(tmp_path, text), str(tmp_path / route)) == 0
        csvs[route] = np.loadtxt(tmp_path / route / "out.csv", delimiter=",", skiprows=1)
    assert csvs["subordination"].shape == csvs["closed"].shape == (50, 9)
    assert np.max(np.abs(csvs["subordination"] - csvs["closed"])) < 1e-9


def test_series_route_near_alpha_one_at_long_times(tmp_path):
    # alpha = 0.99 to 50 T: renewal-table poles above the Talbot contour
    text = (
        GOOD_ENSEMBLE.replace("kind = ensemble", "kind = solve")
        .replace("[ensemble]\nn_realizations = 200", "[solve]\nroute = series")
        .replace("alpha = 0.5", "alpha = 0.99")
        .replace("t_max_over_T = 10", "t_max_over_T = 50")
    )
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "out.csv").exists()


def test_write_csv_matches_per_value_formatting(tmp_path):
    values = [0.0, -0.0, 1.0 / 3.0, -2.5e-300, 1e300, 5e-324, np.nan, np.inf, -np.inf, 123456789.0]
    columns = [np.array(values), np.array(values[::-1]), np.arange(len(values), dtype=float)]
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), ["a", "b", "c"], columns)
    expected = "a,b,c\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in np.column_stack(columns)
    )
    assert path.read_bytes() == expected.encode()


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


def _fresh_run(*args: str, path: tuple = ()):
    """Run a new interpreter with `args`, finding this ctqrw and the
    directories `path`; returns the completed process, which exited 0."""
    import subprocess
    import sys

    import ctqrw

    src = os.path.dirname(os.path.dirname(ctqrw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *path, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out


def _fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that finds this ctqrw; returns stdout."""
    return _fresh_run("-c", code).stdout.strip()


def test_cli_import_loads_no_scipy():
    code = "import sys, ctqrw.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize("module", ["ctqrw", "ctqrw.cli"])
def test_import_loads_no_dataclasses_polynomial_or_argparse(module):
    # records share one set of methods, the Gauss-Legendre tables are
    # literals and argparse is main's own import: importing ctqrw runs none
    code = f"import sys, {module}; print([m for m in ('dataclasses', 'numpy.polynomial', 'argparse') if m in sys.modules])"
    assert _fresh_python(code) == "[]"


def test_cli_command_loads_no_dataclasses_or_polynomial(tmp_path):
    # python -m ctqrw.cli runs main, so argparse loads; the rest does not
    for name, text in MANIFEST_KINDS.items():
        path = write(tmp_path, text, f"{name}.ini")
        out = _fresh_run("-X", "importtime", "-m", "ctqrw.cli", "--config", path, "--out-dir", str(tmp_path / name))
        loaded = {line.split("|")[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
        assert "argparse" in loaded and not loaded & {"dataclasses", "numpy.polynomial"}, name


def test_manifest_schema_is_read_without_importlib_resources(tmp_path):
    # without site's start-up imports (python -S), importlib.resources would
    # pull in pathlib, tempfile, shutil and more; the schema is read beside
    # cli.py instead, and the manifest is still checked against it
    numpy_dir = os.path.dirname(os.path.dirname(np.__file__))
    path = write(tmp_path, GOOD_ENSEMBLE)
    code = (
        "import sys\n"
        "import ctqrw.cli\n"
        f"code = ctqrw.cli.run({path!r}, {str(tmp_path / 'out')!r})\n"
        "print(code, [m for m in ('importlib.resources', 'pathlib', 'tempfile') if m in sys.modules])"
    )
    assert _fresh_run("-S", "-c", code, path=(numpy_dir,)).stdout.strip() == "0 []"
    manifest = json.loads((tmp_path / "out" / parse_config(path).manifest_name).read_text())
    assert manifest["experiment"] == "ensemble"


def test_cli_runs_load_no_jsonschema_metadata_or_mpmath(tmp_path):
    # a fresh interpreter runs one config of each runner kind, a dangerous
    # kernel's classify and an exit-3 run; the manifests are still checked
    configs = dict(MANIFEST_KINDS)
    configs["exit-3"] = ("[experiment]\nkind = solve\n\n[model]\ntype = depolarizing\n\n" + _DANGEROUS
                         + "\n[solve]\nroute = series\n")
    paths = {name: write(tmp_path, text, f"{name}.ini") for name, text in configs.items()}
    code = (
        "import sys\n"
        "import ctqrw.cli\n"
        f"codes = [ctqrw.cli.run(p, {str(tmp_path / 'out')!r} + '-' + n) for n, p in {paths!r}.items()]\n"
        "banned = ('jsonschema', 'importlib.metadata', 'mpmath', 'email', 'scipy')\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith(banned)))"
    )
    assert _fresh_python(code) == f"{[0] * len(MANIFEST_KINDS) + [3]} []"


# Each route that needs scipy imports it on first use.  Tier-1 test modules
# import scipy.linalg themselves, so only a fresh interpreter shows that the
# route's own import is enough.
_LAZY_SCIPY_ROUTES = {
    "volterra-markovian": (
        "from ctqrw.kernels import MarkovianKernel\n"
        "out = solvers.volterra_solve(gen, MarkovianKernel(rate=1.0), rho, grid)"
    ),
    "telegraph-ode": (
        "from ctqrw.kernels import ExponentialKernel\n"
        "out = solvers.telegraph_ode_solve(gen, ExponentialKernel(amplitude=0.75, decay=2.0), rho, grid)"
    ),
    "gaussian-jumps": (
        "from ctqrw.kernels import MarkovianKernel\n"
        "from ctqrw.models import GaussianJumps, WignerWalkConfig, wigner_ctrw\n"
        "cfg = WignerWalkConfig(jumps=GaussianJumps(), kernel=MarkovianKernel(rate=1.0), n_walkers=50)\n"
        "out = wigner_ctrw(cfg, grid, base_seed=1).positions"
    ),
    "displacement-operator": (
        "from ctqrw.models import displacement_operator\n"
        "out = displacement_operator(0.3 + 0.2j, 8)"
    ),
    "exp-generator-to-kraus": (
        "from ctqrw.quantum import exp_generator_to_kraus\n"
        "out = np.array(exp_generator_to_kraus(gen, 0.5).operators)"
    ),
}


@pytest.mark.parametrize("route", sorted(_LAZY_SCIPY_ROUTES))
def test_lazily_importing_route_runs_in_a_fresh_interpreter(route):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import ctqrw.cli\n"
        "from ctqrw import engine, solvers\n"
        "from ctqrw.models import Depolarizing, qubit_kraus\n"
        "from ctqrw.quantum import lindblad_from_kraus\n"
        "assert 'scipy' not in sys.modules\n"
        "emap = qubit_kraus(Depolarizing())\n"
        "gen = lindblad_from_kraus(emap)\n"
        "rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)\n"
        "grid = np.linspace(0.0, 2.0, 21)\n"
        f"{_LAZY_SCIPY_ROUTES[route]}\n"
        "assert np.all(np.isfinite(out))\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules))"
    )
    assert _fresh_python(code) != "[]"


def test_series_route_on_exponential_phase_waiting_loads_no_scipy():
    # the count law of these laws is their closed-form generating function
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ctqrw import engine\n"
        "from ctqrw.kernels import ExponentialWaiting, HypoexponentialWaiting\n"
        "from ctqrw.models import Depolarizing, qubit_kraus\n"
        "emap = qubit_kraus(Depolarizing())\n"
        "rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)\n"
        "grid = np.linspace(0.0, 20.0, 201)\n"
        "for waiting in (ExponentialWaiting(rate=1.0), HypoexponentialWaiting(r1=0.5, r2=1.5)):\n"
        "    assert np.all(np.isfinite(engine.series_solution(rho, emap, waiting, grid)[0]))\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize(
    "line, typo, message",
    [
        ("alpha = 0.5", "alhpa = 0.5", "unknown key kernel.alhpa; did you mean kernel.alpha?"),
        ("n_points = 50", "n_pionts = 7", "unknown key grid.n_pionts; did you mean grid.n_points?"),
        ("n_realizations = 200", "n_realisations = 50",
         "unknown key ensemble.n_realisations; did you mean ensemble.n_realizations?"),
        ("[ensemble]", "[ensmble]", "unknown section [ensmble]; did you mean [ensemble]?"),
    ],
)
def test_unknown_key_or_section_is_config_error_naming_it(tmp_path, capsys, line, typo, message):
    assert cli.run(write(tmp_path, GOOD_ENSEMBLE.replace(line, typo)), str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "line, extra, message",
    [
        ("alpha = 0.5", "alpha = 0.5\ngamma = 3",
         "kernel.gamma is not a key of type = fractional (its keys: amplitude, alpha)"),
        ("type = depolarizing", "type = dephasing\np_x = 0.5",
         "model.p_x is not a key of type = dephasing (its keys: none)"),
    ],
)
def test_key_of_another_type_is_config_error_naming_it(tmp_path, capsys, line, extra, message):
    assert cli.run(write(tmp_path, GOOD_ENSEMBLE.replace(line, extra)), str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_key_of_another_type_is_refused_under_another_kind(tmp_path, capsys):
    # [wigner] is checked under kind = ensemble too, and keeps its plain key
    text = GOOD_ENSEMBLE + "[wigner]\nn_walkers = 5\njump = point\nmu = 1\n"
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "config error: wigner.mu is not a key of jump = point (its keys: beta0)\n"
    text = GOOD_ENSEMBLE + "[wigner]\nn_walkers = 5\njump = point\nbeta0 = 0.1\n"
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 0


@pytest.mark.parametrize(
    "extra, section",
    [("[kernel]\ntype = markovian\nrate = 5\n[grid]\nn_points = 7\n", "[kernel]"),
     ("[grid]\nn_points = 7\n", "[grid]")],
)
def test_figure_kind_refuses_other_sections(tmp_path, capsys, extra, section):
    text = "[experiment]\nkind = figure3\n" + extra
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 2
    assert section in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


REALIZATIONS = GOOD_ENSEMBLE.replace("kind = ensemble", "kind = realizations")


@pytest.mark.parametrize(
    "text, count",
    [
        (REALIZATIONS.replace("[ensemble]\nn_realizations = 200", ""), 3),
        (REALIZATIONS.replace("[ensemble]\nn_realizations = 200", "[realizations]"), 3),
        (REALIZATIONS, 3),
        (GOOD_ENSEMBLE + "[realizations]\nn_realizations = 5\n", 200),
        (GOOD_ENSEMBLE.replace("[ensemble]\nn_realizations = 200", "[realizations]\nn_realizations = 5"),
         10000),
    ],
    ids=["no-section", "empty-section", "other-kind-section", "both-sections", "only-other-section"],
)
def test_realization_count_comes_from_the_kind_section(tmp_path, text, count):
    assert parse_config(write(tmp_path, text)).n_realizations == count


def test_realizations_without_a_section_write_three_realizations(tmp_path):
    text = REALIZATIONS.replace("[ensemble]\nn_realizations = 200", "")
    out = tmp_path / "o"
    assert cli.run(write(tmp_path, text), str(out)) == 0
    header = (out / "out.csv").read_text().splitlines()[0].split(",")
    assert header == ["t"] + [f"{m}_r{k}" for k in range(3) for m in ("M_x", "M_y", "M_z")]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 1])
def test_seed_outside_the_philox_key_range_is_config_error(tmp_path, capsys, seed):
    bad = write(tmp_path, GOOD_ENSEMBLE.replace("seed = 1", f"seed = {seed}"), "bad.ini")
    assert cli.run(bad, str(tmp_path / "o")) == 2
    assert "experiment.seed" in capsys.readouterr().err
    good = write(tmp_path, GOOD_ENSEMBLE)
    assert cli.main(["--config", good, "--out-dir", str(tmp_path / "o"), "--seed-override", str(seed)]) == 2
    assert "--seed-override" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_the_range_are_read(tmp_path, seed):
    assert parse_config(write(tmp_path, GOOD_ENSEMBLE.replace("seed = 1", f"seed = {seed}"))).seed == seed


@pytest.mark.parametrize("state", ["bloch:nan,0,0", "bloch:inf,0,0", "bloch:0.8,0.8,0", "bloch:1,0",
                                   "plus_y"])
def test_initial_state_off_the_bloch_ball_is_config_error(tmp_path, capsys, state):
    text = GOOD_ENSEMBLE.replace("[grid]", f"[initial]\nstate = {state}\n\n[grid]")
    assert cli.run(write(tmp_path, text), str(tmp_path / "o")) == 2
    assert "initial.state" in capsys.readouterr().err


def test_fuzz_test_junks_every_key_the_grammar_reads():
    from ctqrw import config
    from test_cli_fuzz import KEYS

    grammar = {name: set(config._keys(name)) for name in [*config._PLAIN, *config._TYPED]}
    grammar["experiment"].discard("threads")
    del grammar["output"]
    assert grammar == {name: set(keys) for name, keys in KEYS.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_figure_preset_is_its_kind_read_from_a_file(tmp_path, n):
    cfg = parse_config(write(tmp_path, f"[experiment]\nkind = figure{n}\n"))
    preset = figure_presets(n)
    assert cfg.raw == {"experiment": {"kind": f"figure{n}"}} and preset.raw == {}
    cfg.raw = preset.raw
    assert repr(cfg) == repr(preset)
