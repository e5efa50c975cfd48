"""Experiment runner: config file in, CSV + JSON manifest out.

Usage::

    ctqrw --config run.ini [--out-dir DIR] [--seed-override N]

Exit codes: 0 success, 2 malformed configuration (message names the key,
or the file and line the INI grammar stops at) or an output directory that
cannot be used (message names ``--out-dir``), 3 numeric failure (message
names the operation).  Every Monte Carlo route
runs one vectorized pass over all realizations, so a run has no worker
count to set.

CSV files carry one header row naming columns (times in seconds, other
columns dimensionless), 17-significant-digit values, LF line endings.  Each
value is the bytes of ``'%.17g' % value``, formatted in numpy blocks
(``_csvformat``) with CPython as the per-value fallback.
The JSON manifest echoes the configuration, seeds, library version, the
python/numpy/scipy versions and wall time.  Before it is written, every
manifest is checked against ``manifest_schema.json`` by ``validate_manifest``,
which implements the keywords that schema uses and refuses a schema with any
other; jsonschema is the tests' oracle, not a run-time dependency.  A manifest
that misses its schema raises ``ManifestError``: a bug in ctqrw, not a numeric
failure, so it is not exit 3.  numpy's version is ``np.__version__``; scipy's
is read from its installed ``METADATA``, without importing scipy.
"""

import functools
import importlib.util
import json
import numbers
import os
import platform
import sys
import time

import numpy as np

from . import __version__, engine, models, solvers
from ._csvformat import format_rows
from .config import ExperimentConfig, parse_config, parse_seed
from .errors import ConfigError, CtqrwError, ManifestError
from .kernels import classify_kernel, waiting_from_kernel
from .models import qubit_closed_solution, qubit_kraus, wigner_ctrw, WignerWalkConfig
from .quantum import damping_basis, linear_entropy, lindblad_from_kraus


_CSV_BLOCK_VALUES = 8192


def write_csv(path: str, header: list, columns: list):
    """Columns are equal-length 1-d arrays; 17 significant digits, LF.

    Every value is written exactly as ``'%.17g' % value``.  Rows are
    formatted in numpy (``_csvformat.format_rows``) and written in blocks of
    whole rows holding about ``_CSV_BLOCK_VALUES`` values (one row, if a row
    holds more), so the work memory does not grow with the table's length.
    """
    table = np.column_stack(columns)
    rows = max(1, _CSV_BLOCK_VALUES // table.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), rows):
            fh.write(format_rows(table[start : start + rows]))


def _installed_version(name: str) -> str:
    """The ``Version:`` line of the package's ``dist-info/METADATA``, found
    beside the package by ``importlib.util.find_spec``, which imports
    nothing; ``importlib.metadata`` is asked only where no such file is."""
    spec = importlib.util.find_spec(name)
    if spec is not None and spec.origin is not None:
        site = os.path.dirname(os.path.dirname(spec.origin))
        for entry in sorted(os.listdir(site)):
            if entry.startswith(f"{name}-") and entry.endswith(".dist-info"):
                with open(os.path.join(site, entry, "METADATA"), encoding="utf-8") as fh:
                    for line in fh:
                        if line.startswith("Version:"):
                            return line[len("Version:") :].strip()
    from importlib import metadata

    return metadata.version(name)


@functools.cache
def _dependency_versions() -> dict:
    """Python, numpy and scipy versions, read once per process; scipy is not
    imported to read its version."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _installed_version("scipy"),
    }


def _manifest(cfg: ExperimentConfig, outputs, wall, extra: dict) -> dict:
    return {
        "experiment": cfg.kind,
        "config": cfg.raw,
        "seeds": [int(cfg.seed)],
        "library_version": __version__,
        "dependency_versions": dict(_dependency_versions()),
        "wall_time_sec": float(wall),
        "outputs": list(outputs),
        **extra,
    }


# the JSON Schema keywords ``manifest_schema.json`` uses, each checked below
# as Draft 2020-12 defines it; a schema with any other keyword is refused
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
}
_KEYWORDS = {"$schema", "title", "type", "required", "properties", "items", "minimum",
             "additionalProperties"}


def _check_schema(node, where: str):
    """Refuse a schema node that asks for more than `_check` implements."""
    if not isinstance(node, dict):
        raise ManifestError(f"{where}: a schema that is not an object is not implemented")
    unknown = sorted(set(node) - _KEYWORDS)
    if unknown:
        raise ManifestError(f"{where}: keyword {unknown[0]!r} is not implemented")
    if node.get("type", "object") not in list(_TYPES):  # a list of types is not hashable
        raise ManifestError(f"{where}: type {node['type']!r} is not implemented")
    if node.get("additionalProperties", True) is not True:
        raise ManifestError(f"{where}: only additionalProperties: true is implemented")
    for key, sub in node.get("properties", {}).items():
        _check_schema(sub, f"{where}.properties.{key}")
    if "items" in node:
        _check_schema(node["items"], f"{where}.items")


@functools.cache
def _manifest_schema() -> dict:
    """``manifest_schema.json``, package data beside this module, read and checked once per process."""
    with open(os.path.join(os.path.dirname(__file__), "manifest_schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    _check_schema(schema, "manifest_schema.json")
    return schema


def _check(value, node: dict, path: str):
    kind = node.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise ManifestError(f"{path} must be of type {kind}, got {value!r}")
    if "minimum" in node and _TYPES["number"](value) and value < node["minimum"]:
        raise ManifestError(f"{path} = {value!r} is below its minimum {node['minimum']}")
    if isinstance(value, dict):
        for key in node.get("required", ()):
            if key not in value:
                raise ManifestError(f"{path}.{key} is required")
        for key, sub in node.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in node:
        for i, item in enumerate(value):
            _check(item, node["items"], f"{path}[{i}]")


def validate_manifest(doc: dict):
    """Raise :class:`ManifestError`, naming the path, unless `doc` fits
    ``manifest_schema.json``."""
    _check(doc, _manifest_schema(), "manifest")


def _solution_columns(states, grid):
    from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z

    cols = {
        "t": grid,
        "P_up": states[:, 0, 0].real,
        "P_down": states[:, 1, 1].real,
        "re_coherence": states[:, 0, 1].real,
        "im_coherence": states[:, 0, 1].imag,
        "M_x": np.einsum("kij,ji->k", states, SIGMA_X).real,
        "M_y": np.einsum("kij,ji->k", states, SIGMA_Y).real,
        "M_z": np.einsum("kij,ji->k", states, SIGMA_Z).real,
        "linear_entropy": linear_entropy(states),
    }
    return list(cols.keys()), list(cols.values())


def _run_realizations(cfg, grid, out_csv):
    emap = qubit_kraus(cfg.model)
    waiting = waiting_from_kernel(cfg.kernels[0][1])
    counts = engine.event_counts(waiting, grid, cfg.n_realizations, cfg.seed)
    _, tables = engine.count_tables(cfg.initial, emap, int(counts.max()))
    header = ["t"]
    columns = [grid]
    for k in range(cfg.n_realizations):
        for name in ("M_x", "M_y", "M_z"):
            header.append(f"{name}_r{k}")
            columns.append(tables[name][counts[k]])
    write_csv(out_csv, header, columns)
    return {}


def _run_ensemble(cfg, grid, out_csv):
    emap = qubit_kraus(cfg.model)
    kernel = cfg.kernels[0][1]
    waiting = waiting_from_kernel(kernel)
    stats = engine.ensemble_average(
        cfg.initial,
        emap,
        waiting,
        grid,
        n_realizations=cfg.n_realizations,
        base_seed=cfg.seed,
    )
    sol = qubit_closed_solution(cfg.model, kernel, cfg.initial, grid)
    analytic_mx = 2.0 * sol.coherence_up.real
    header = ["t", "mc_mean_Mx", "mc_stderr", "analytic_Mx", "mc_mean_Mz", "mc_stderr_Mz"]
    columns = [
        grid,
        stats.observable_means["M_x"],
        stats.observable_stderrs["M_x"],
        analytic_mx,
        stats.observable_means["M_z"],
        stats.observable_stderrs["M_z"],
    ]
    write_csv(out_csv, header, columns)
    return {}


def _run_solve(cfg, grid, out_csv):
    emap = qubit_kraus(cfg.model)
    kernel = cfg.kernels[0][1]
    gen = lindblad_from_kraus(emap)
    if cfg.route == "closed":
        states = qubit_closed_solution(cfg.model, kernel, cfg.initial, grid).states
    elif cfg.route == "volterra":
        states = solvers.volterra_solve(gen, kernel, cfg.initial, grid)
    elif cfg.route == "subordination":
        states = solvers.subordination_solve(kernel, damping_basis(gen), cfg.initial, grid)
    else:  # series
        waiting = waiting_from_kernel(kernel)
        states, _ = engine.series_solution(cfg.initial, emap, waiting, grid)
    header, columns = _solution_columns(states, grid)
    write_csv(out_csv, header, columns)
    return {}


def _run_classify(cfg, grid, out_csv):
    label, kernel = cfg.kernels[0]
    verdict = classify_kernel(kernel)
    doc = {
        "kernel": label,
        "verdict": verdict.verdict,
        "certificate": verdict.certificate,
        "witness": verdict.witness,
    }
    with open(out_csv, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return {"verdict": doc}


def _run_cp_audit(cfg, grid, out_csv):
    emap = qubit_kraus(cfg.model)
    kernel = cfg.kernels[0][1]
    gen = lindblad_from_kraus(emap)
    basis = damping_basis(gen)

    def route(batch):
        return solvers.closed_form_solve(basis, kernel, batch, grid)

    defects = solvers.cp_defect_over_time(route, 2, grid)
    states = solvers.closed_form_solve(basis, kernel, cfg.initial, grid)
    min_eigs = np.linalg.eigvalsh((states + np.swapaxes(states, -1, -2).conj()) / 2).min(axis=-1)
    write_csv(
        out_csv,
        ["t", "cp_defect", "min_state_eigenvalue"],
        [grid, defects, min_eigs],
    )
    return {}


def _run_entropy(cfg, grid, out_csv):
    header = ["t"]
    columns = [grid]
    for label, kernel in cfg.kernels:
        sol = qubit_closed_solution(cfg.model, kernel, cfg.initial, grid)
        header.append(f"delta_{label}")
        columns.append(linear_entropy(sol.states))
    write_csv(out_csv, header, columns)
    return {}


def _run_wigner(cfg, grid, out_csv):
    wcfg = WignerWalkConfig(
        jumps=cfg.jumps, kernel=cfg.kernels[0][1], n_walkers=cfg.n_walkers
    )
    result = wigner_ctrw(wcfg, grid, base_seed=cfg.seed)
    header = ["t", "mean_count"]
    columns = [grid, result.mean_counts]
    if result.n_estimate is not None:
        header.append("n_estimate")
        columns.append(result.n_estimate)
    write_csv(out_csv, header, columns)
    return {}


def _run_intrinsic(cfg, grid, out_csv):
    kernel = cfg.kernels[0][1]
    dim = cfg.spectrum.dim
    rho0 = np.full((dim, dim), 1.0 / dim, dtype=complex)
    result = models.intrinsic_decoherence(cfg.spectrum, kernel, rho0, grid)
    header = ["t"]
    columns = [grid]
    for n in range(dim):
        for m in range(dim):
            header.append(f"re_rho_{n}{m}")
            columns.append(result.states[:, n, m].real)
            header.append(f"im_rho_{n}{m}")
            columns.append(result.states[:, n, m].imag)
    write_csv(out_csv, header, columns)
    return {}


# each runner writes its output file and returns the manifest's extra keys
_RUNNERS = {
    "realizations": _run_realizations,
    "ensemble": _run_ensemble,
    "solve": _run_solve,
    "classify": _run_classify,
    "cp-audit": _run_cp_audit,
    "entropy": _run_entropy,
    "wigner": _run_wigner,
    "intrinsic": _run_intrinsic,
}


def run(config_path: str, out_dir: str = ".", seed_override: int | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        cfg = parse_config(config_path)
        if seed_override is not None:
            cfg.seed = parse_seed(seed_override, "--seed-override")
        grid = cfg.grid()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    runner = _RUNNERS[cfg.kind]
    try:
        os.makedirs(out_dir, exist_ok=True)
        extra = runner(cfg, grid, os.path.join(out_dir, cfg.csv_name))
        wall = time.perf_counter() - t0
        manifest = _manifest(cfg, [cfg.csv_name], wall, extra)
        validate_manifest(manifest)
        with open(os.path.join(out_dir, cfg.manifest_name), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
    except ManifestError:
        raise  # a manifest that misses its schema is a bug in ctqrw, not exit 3
    except CtqrwError as exc:
        print(f"numeric failure in {cfg.kind}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: --out-dir {out_dir!r} cannot be used: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    import argparse  # loaded by the command line only, off the import path of run()

    parser = argparse.ArgumentParser(
        prog="ctqrw", description="run a configured renewal-dynamics experiment"
    )
    parser.add_argument("--config", required=True, help="experiment file (INI grammar)")
    parser.add_argument("--out-dir", default=".", help="directory for CSV/manifest outputs")
    parser.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.config, args.out_dir, args.seed_override)


if __name__ == "__main__":
    sys.exit(main())
