"""Declarative experiment configuration.

Config files are INI-style (``[section]`` headers, ``key = value`` lines,
``#`` comments; values are read literally, ``%`` included).  Sections and
keys:

``[experiment]``
    kind   one of realizations | ensemble | solve | classify | cp-audit |
           entropy | wigner | intrinsic | figure1..figure4
    seed   integer base seed (default 1)

``[model]``
    type = depolarizing | dephasing | thermal, with p_x/p_y or
    kappa/p_up/p_down

``[kernel]`` (repeatable as [kernel.NAME] for multi-curve experiments)
    type = markovian | exponential | fractional, with rate (A1, 1/sec),
    amplitude/gamma (A_eps 1/sec^2, gamma 1/sec) or amplitude/alpha
    (A_alpha 1/sec^alpha)

``[grid]``
    t_max_over_T (default 10), n_points (default 200); times are measured
    in the shared scale T with A1 = A_alpha^(1/alpha) = A_eps/gamma = 1/T

``[initial]``
    state = plus_x | up | down | bloch:x,y,z

``[ensemble]`` n_realizations; ``[realizations]`` n_realizations;
``[solve]`` route = closed | volterra | subordination | series;
``[wigner]`` n_walkers, jump = gaussian | point | levy with moments;
``[intrinsic]`` levels = comma list, phase = delta | exponential | log,
tau_b; ``[output]`` csv, manifest (two different plain file names, written
inside the output directory).
"""

import configparser
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMomentsError, BadParametersError, ConfigError
from .kernels import ExponentialKernel, FractionalKernel, MarkovianKernel
from .models import (
    DeltaPhase,
    Depolarizing,
    Dephasing,
    ExponentialPhase,
    GaussianJumps,
    LevyJumps,
    LogFormalPhase,
    PointMassJumps,
    SpectrumModel,
    Thermal,
)

KINDS = (
    "realizations",
    "ensemble",
    "solve",
    "classify",
    "cp-audit",
    "entropy",
    "wigner",
    "intrinsic",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
)


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 1
    model: object | None = None
    kernels: list = field(default_factory=list)  # (label, kernel) pairs
    t_max_over_scale: float = 10.0
    n_points: int = 200
    initial: np.ndarray | None = None
    n_realizations: int = 10000
    route: str = "closed"
    n_walkers: int = 10000
    jumps: object | None = None
    spectrum: SpectrumModel | None = None
    csv_name: str = "output.csv"
    manifest_name: str = "manifest.json"
    raw: dict = field(default_factory=dict)

    def grid(self) -> np.ndarray:
        if self.n_points < 1:
            raise ConfigError("grid.n_points must be >= 1")
        scale = self.kernels[0][1].time_scale if self.kernels else 1.0
        return np.linspace(0.0, self.t_max_over_scale * scale, self.n_points)


def _bloch_state(x: float, y: float, z: float) -> np.ndarray:
    from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z

    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def _parse_initial(text: str) -> np.ndarray:
    text = text.strip()
    if text == "plus_x":
        return _bloch_state(1.0, 0.0, 0.0)
    if text == "up":
        return _bloch_state(0.0, 0.0, 1.0)
    if text == "down":
        return _bloch_state(0.0, 0.0, -1.0)
    if text.startswith("bloch:"):
        try:
            x, y, z = (float(v) for v in text[len("bloch:") :].split(","))
        except ValueError as exc:
            raise ConfigError(f"initial.state: cannot parse Bloch vector {text!r}") from exc
        if x * x + y * y + z * z > 1.0 + 1e-12:
            raise ConfigError("initial.state: Bloch vector must have norm <= 1")
        return _bloch_state(x, y, z)
    raise ConfigError(f"initial.state: unknown preset {text!r}")


def _get_float(section, key: str, section_name: str, default: float | None = None) -> float:
    """Finite float `section_name.key`; `default` when the key is absent."""
    if key not in section and default is not None:
        return default
    if key not in section:
        raise ConfigError(f"missing key {section_name}.{key}")
    try:
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key}: not a number ({section[key]!r})") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{section_name}.{key} must be finite, got {value!r}")
    return value


def _get_complex(section, key: str, section_name: str, default: complex) -> complex:
    """Finite complex `section_name.key`; `default` when the key is absent."""
    text = section.get(key, str(default))
    try:
        value = complex(text)
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key}: not a complex number ({text!r})") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{section_name}.{key} must be finite, got {value!r}")
    return value


@contextmanager
def _section(name: str):
    """Report a parameter error of the model, kernel, jump law or spectrum
    built from section `name` as a config error naming that section."""
    try:
        yield
    except (BadParametersError, BadMomentsError) as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _get_count(section, key: str, section_name: str, default: int) -> int:
    """Integer `section_name.key` that must be at least 1."""
    text = section.get(key, str(default))
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key}: not an integer ({text!r})") from exc
    if value < 1:
        raise ConfigError(f"{section_name}.{key} must be >= 1, got {value}")
    return value


def _parse_kernel(section, name: str):
    ktype = section.get("type", "").strip()
    if ktype == "markovian":
        return MarkovianKernel(rate=_get_float(section, "rate", name))
    if ktype == "exponential":
        return ExponentialKernel(
            amplitude=_get_float(section, "amplitude", name),
            decay=_get_float(section, "gamma", name),
        )
    if ktype == "fractional":
        return FractionalKernel(
            amplitude=_get_float(section, "amplitude", name),
            alpha=_get_float(section, "alpha", name),
        )
    raise ConfigError(f"{name}.type: unknown kernel type {ktype!r}")


def _parse_model(section):
    mtype = section.get("type", "").strip()
    if mtype == "depolarizing":
        return Depolarizing(
            p_x=_get_float(section, "p_x", "model", 0.5),
            p_y=_get_float(section, "p_y", "model", 0.5),
        )
    if mtype == "dephasing":
        return Dephasing()
    if mtype == "thermal":
        return Thermal(
            kappa=_get_float(section, "kappa", "model"),
            p_up=_get_float(section, "p_up", "model"),
            p_down=_get_float(section, "p_down", "model"),
        )
    raise ConfigError(f"model.type: unknown model type {mtype!r}")


def _parse_jumps(section):
    jtype = section.get("jump", "gaussian").strip()
    if jtype == "gaussian":
        return GaussianJumps(
            mean=_get_complex(section, "mean", "wigner", 0j),
            mean_sq=_get_complex(section, "mean_sq", "wigner", 0j),
            mean_abs_sq=_get_float(section, "mean_abs_sq", "wigner", 1.0),
        )
    if jtype == "point":
        return PointMassJumps(beta0=_get_complex(section, "beta0", "wigner", 0j))
    if jtype == "levy":
        return LevyJumps(
            mu=_get_float(section, "mu", "wigner"),
            sigma=_get_float(section, "sigma", "wigner", 1.0),
        )
    raise ConfigError(f"wigner.jump: unknown jump law {jtype!r}")


def _parse_spectrum(section) -> SpectrumModel:
    if "levels" not in section:
        raise ConfigError("missing key intrinsic.levels")
    try:
        levels = np.array([float(v) for v in section["levels"].split(",")])
    except ValueError as exc:
        raise ConfigError("intrinsic.levels: expected a comma list of numbers") from exc
    phase_kind = section.get("phase", "delta").strip()
    tau_b = _get_float(section, "tau_b", "intrinsic")
    if phase_kind == "delta":
        phase = DeltaPhase(tau_b=tau_b)
    elif phase_kind == "exponential":
        phase = ExponentialPhase(tau_b=tau_b)
    elif phase_kind == "log":
        phase = LogFormalPhase(tau_b=tau_b)
    else:
        raise ConfigError(f"intrinsic.phase: unknown phase law {phase_kind!r}")
    return SpectrumModel(levels=levels, phase=phase)


def _parse_output(parser, cfg: ExperimentConfig):
    """``[output] csv`` and ``manifest``: two different plain file names,
    which the run writes inside the output directory."""
    if "output" not in parser:
        return
    section = parser["output"]
    cfg.csv_name = section.get("csv", cfg.csv_name)
    cfg.manifest_name = section.get("manifest", cfg.manifest_name)
    for key, name in (("csv", cfg.csv_name), ("manifest", cfg.manifest_name)):
        if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
            raise ConfigError(f"output.{key} must be a plain file name, got {name!r}")
    if cfg.csv_name == cfg.manifest_name:
        raise ConfigError(f"output.manifest must differ from output.csv, both are {cfg.csv_name!r}")


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment file; raises :class:`ConfigError`
    naming the offending key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "experiment" not in parser:
        raise ConfigError("missing section [experiment]")
    exp = parser["experiment"]
    kind = exp.get("kind", "").strip()
    if kind not in KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}; expected one of {KINDS}")
    cfg = ExperimentConfig(kind=kind)
    try:
        cfg.seed = int(exp.get("seed", 1))
    except ValueError as exc:
        raise ConfigError("experiment.seed: not an integer") from exc

    if kind.startswith("figure"):
        preset = figure_presets(int(kind[-1]))
        preset.seed = cfg.seed
        _parse_output(parser, preset)
        preset.raw = {s: dict(parser[s]) for s in parser.sections()}
        return preset

    kernel_sections = [s for s in parser.sections() if s == "kernel" or s.startswith("kernel.")]
    for s in kernel_sections:
        label = s.split(".", 1)[1] if "." in s else "kernel"
        with _section(s):
            cfg.kernels.append((label, _parse_kernel(parser[s], s)))
    if not cfg.kernels:
        raise ConfigError("missing section [kernel]")

    if "model" in parser:
        with _section("model"):
            cfg.model = _parse_model(parser["model"])
    if "grid" in parser:
        g = parser["grid"]
        cfg.t_max_over_scale = _get_float(g, "t_max_over_T", "grid", 10.0)
        if cfg.t_max_over_scale <= 0:
            raise ConfigError(f"grid.t_max_over_T must be > 0, got {cfg.t_max_over_scale!r}")
        cfg.n_points = _get_count(g, "n_points", "grid", 200)
    if "initial" in parser:
        cfg.initial = _parse_initial(parser["initial"].get("state", "plus_x"))
    if "ensemble" in parser:
        cfg.n_realizations = _get_count(parser["ensemble"], "n_realizations", "ensemble", 10000)
    if "realizations" in parser:
        cfg.n_realizations = _get_count(
            parser["realizations"], "n_realizations", "realizations", 3
        )
    if "solve" in parser:
        cfg.route = parser["solve"].get("route", "closed").strip()
        if cfg.route not in ("closed", "volterra", "subordination", "series"):
            raise ConfigError(f"solve.route: unknown route {cfg.route!r}")
    if "wigner" in parser:
        w = parser["wigner"]
        cfg.n_walkers = _get_count(w, "n_walkers", "wigner", 10000)
        with _section("wigner"):
            cfg.jumps = _parse_jumps(w)
    if "intrinsic" in parser:
        with _section("intrinsic"):
            cfg.spectrum = _parse_spectrum(parser["intrinsic"])
    _parse_output(parser, cfg)

    _validate(cfg)
    cfg.raw = {s: dict(parser[s]) for s in parser.sections()}
    return cfg


def _validate(cfg: ExperimentConfig):
    needs_model = cfg.kind in ("realizations", "ensemble", "solve", "cp-audit", "entropy")
    if needs_model and cfg.model is None:
        raise ConfigError(f"experiment kind {cfg.kind!r} needs a [model] section")
    if needs_model and cfg.initial is None:
        cfg.initial = _parse_initial("plus_x")
    if cfg.kind == "wigner" and cfg.jumps is None:
        cfg.jumps = GaussianJumps()
    if cfg.kind == "intrinsic" and cfg.spectrum is None:
        raise ConfigError("experiment kind 'intrinsic' needs an [intrinsic] section")


def figure_presets(n: int) -> ExperimentConfig:
    """Fully specified configs for the four reference figures.

    1: stochastic realizations (depolarizing, fractional alpha = 1/2,
       A_alpha = 1/sqrt(2));
    2: 10^4-realization ensemble of M_x vs the Mittag-Leffler closed form;
    3: linear entropy, depolarizing: Markovian A1 = 0.5, fractional
       (0.5, 1/sqrt2), exponential (gamma=2, A=1) and (gamma=0.5, A=0.25);
    4: linear entropy, thermal p_down = 1, kappa = 0.75: Markovian A1 = 1,
       fractional (0.5, 1), exponential (4, 4) and (1, 1).

    All grids span t/T in [0, 10] with 200 points.
    """
    if n not in (1, 2, 3, 4):
        raise ConfigError(f"figure preset must be 1..4, got {n}")
    frac_half = FractionalKernel(amplitude=1.0 / np.sqrt(2.0), alpha=0.5)
    if n == 1:
        cfg = ExperimentConfig(kind="realizations")
        cfg.model = Depolarizing()
        cfg.kernels = [("fractional", frac_half)]
        cfg.initial = _bloch_state(1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))
        cfg.n_realizations = 3
        cfg.csv_name = "figure1.csv"
        return cfg
    if n == 2:
        cfg = ExperimentConfig(kind="ensemble")
        cfg.model = Depolarizing()
        cfg.kernels = [("fractional", frac_half)]
        cfg.initial = _parse_initial("plus_x")
        cfg.n_realizations = 10000
        cfg.csv_name = "figure2.csv"
        return cfg
    if n == 3:
        cfg = ExperimentConfig(kind="entropy")
        cfg.model = Depolarizing()
        cfg.kernels = [
            ("markovian", MarkovianKernel(rate=0.5)),
            ("fractional", frac_half),
            ("exp_safe", ExponentialKernel(amplitude=1.0, decay=2.0)),
            ("exp_dangerous", ExponentialKernel(amplitude=0.25, decay=0.5)),
        ]
        cfg.initial = _parse_initial("plus_x")
        cfg.csv_name = "figure3.csv"
        return cfg
    cfg = ExperimentConfig(kind="entropy")
    cfg.model = Thermal(kappa=0.75, p_up=0.0, p_down=1.0)
    cfg.kernels = [
        ("markovian", MarkovianKernel(rate=1.0)),
        ("fractional", FractionalKernel(amplitude=1.0, alpha=0.5)),
        ("exp_safe", ExponentialKernel(amplitude=4.0, decay=4.0)),
        ("exp_dangerous", ExponentialKernel(amplitude=1.0, decay=1.0)),
    ]
    cfg.initial = _parse_initial("plus_x")
    cfg.csv_name = "figure4.csv"
    return cfg
