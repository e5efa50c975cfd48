"""Declarative experiment configuration.

Config files are INI-style (``[section]`` headers, ``key = value`` lines,
``#`` comments; values are read literally, ``%`` included).  Two tables
name every section and key, and one reader applies both to every section:

* ``_PLAIN``: section -> key -> (``ExperimentConfig`` field, parser,
  default text);
* ``_TYPED``: section -> (field, type key, default type, type -> (class,
  key -> (constructor argument, parser, default text))), for ``[kernel]``
  (repeatable as ``[kernel.NAME]``), ``[model]``, the ``[wigner]`` jump law
  and the ``[intrinsic]`` phase law.

A default of None marks a required key.  A section or key the tables do not
name is refused, with the closest known name as a hint, and so is a key that
only another type of its section reads.  A section named
after a kind sets fields only under that kind, which reads it as empty when
it is absent; under another kind it is checked and dropped.  The
``figure1..figure4`` kinds are INI texts (``_FIGURES``) read by the same
reader; their file may carry only ``[experiment]`` and ``[output]``, whose
keys replace the preset's.
"""

import configparser
import os

import numpy as np

from ._record import Field, record
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


@record(frozen=False)
class ExperimentConfig:
    """One experiment as the grammar reads it; a field is None when the
    experiment's kind does not read the section that sets it."""

    kind: str
    seed: int | None = None
    model: object | None = None
    kernels: list = Field(default_factory=list)  # (label, kernel) pairs
    t_max_over_scale: float | None = None
    n_points: int | None = None
    initial: np.ndarray | None = None
    n_realizations: int | None = None
    route: str | None = None
    n_walkers: int | None = None
    jumps: object | None = None
    spectrum: SpectrumModel | None = None
    csv_name: str | None = None
    manifest_name: str | None = None
    raw: dict = Field(default_factory=dict)

    def grid(self) -> np.ndarray:
        if self.n_points < 1:
            raise ConfigError("grid.n_points must be >= 1")
        scale = self.kernels[0][1].time_scale if self.kernels else 1.0
        return np.linspace(0.0, self.t_max_over_scale * scale, self.n_points)


def _checked(convert, what: str, ok=lambda value: True, rule: str = ""):
    """Parser of ``convert(text)``, refused unless `ok` holds.  A parser takes
    the value text and the ``section.key`` name that its errors name."""

    def parse(text, name: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: not {what} ({text!r})") from exc
        if not ok(value):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")
        return value

    return parse


def _choice(*options: str):
    return _checked(str, "text", lambda value: value in options, f"one of {options}")


_float = _checked(float, "a number", np.isfinite, "finite")
_complex = _checked(complex, "a complex number", np.isfinite, "finite")
_positive = _checked(float, "a number", lambda value: 0 < value < np.inf, "finite and > 0")
_count = _checked(int, "an integer", lambda value: value >= 1, ">= 1")
# seeding.uniforms keys Philox with the seed mod 2**64: a seed outside would
# run another seed's stream under its own name
parse_seed = _checked(int, "an integer", lambda value: 0 <= value < 2**64, "in [0, 2**64)")
_levels = _checked(lambda text: np.array([float(v) for v in text.split(",")]),
                   "a comma list of numbers")
_file_name = _checked(str, "text", lambda text: text not in ("", ".", "..") and "\0" not in text
                      and os.path.basename(text) == text, "a plain file name")
_STATES = {"plus_x": "bloch:1,0,0", "up": "bloch:0,0,1", "down": "bloch:0,0,-1"}


def _qubit_state(text: str) -> np.ndarray:
    """The density matrix of a named state or ``bloch:x,y,z``."""
    from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z

    head, _, vector = _STATES.get(text, text).partition(":")
    x, y, z = (float(v) for v in vector.split(","))
    if head != "bloch" or not x * x + y * y + z * z <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(text)
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


_state = _checked(_qubit_state, "plus_x, up, down or bloch:x,y,z with norm <= 1")

# section -> key -> (ExperimentConfig field, parser, default text); a field
# of None marks a key that is checked and then dropped
_PLAIN = {
    "experiment": {
        "kind": ("kind", _choice(*KINDS), None),
        "seed": ("seed", parse_seed, "1"),
        "threads": (None, _count, "1"),  # every run is one vectorized pass
    },
    "grid": {  # times in the shared scale T: A1 = A_alpha^(1/alpha) = A_eps/gamma = 1/T
        "t_max_over_T": ("t_max_over_scale", _positive, "10"),
        "n_points": ("n_points", _count, "200"),
    },
    "initial": {"state": ("initial", _state, "plus_x")},
    "ensemble": {"n_realizations": ("n_realizations", _count, "10000")},
    "realizations": {"n_realizations": ("n_realizations", _count, "3")},
    "solve": {"route": ("route", _choice("closed", "volterra", "subordination", "series"), "closed")},
    "wigner": {"n_walkers": ("n_walkers", _count, "10000")},
    "output": {
        "csv": ("csv_name", _file_name, "output.csv"),
        "manifest": ("manifest_name", _file_name, "manifest.json"),
    },
}


def _spectrum(phase):
    def build(levels: np.ndarray, tau_b: float) -> SpectrumModel:
        return SpectrumModel(levels=levels, phase=phase(tau_b=tau_b))

    return build


_AMPLITUDE = ("amplitude", _float, None)
_SPECTRUM = {"levels": ("levels", _levels, None), "tau_b": ("tau_b", _float, None)}

# section -> (ExperimentConfig field, type key, default type,
#             type -> (class, key -> (constructor argument, parser, default text)))
# Kernel units: rate A1 in 1/sec; amplitude A_eps in 1/sec^2 with gamma in
# 1/sec; amplitude A_alpha in 1/sec^alpha with alpha.
_TYPED = {
    "kernel": ("kernels", "type", None, {
        "markovian": (MarkovianKernel, {"rate": ("rate", _float, None)}),
        "exponential": (ExponentialKernel, {"amplitude": _AMPLITUDE,
                                            "gamma": ("decay", _float, None)}),
        "fractional": (FractionalKernel, {"amplitude": _AMPLITUDE,
                                          "alpha": ("alpha", _float, None)}),
    }),
    "model": ("model", "type", None, {
        "depolarizing": (Depolarizing, {"p_x": ("p_x", _float, "0.5"),
                                        "p_y": ("p_y", _float, "0.5")}),
        "dephasing": (Dephasing, {}),
        "thermal": (Thermal, {"kappa": ("kappa", _float, None),
                              "p_up": ("p_up", _float, None),
                              "p_down": ("p_down", _float, None)}),
    }),
    "wigner": ("jumps", "jump", "gaussian", {
        "gaussian": (GaussianJumps, {"mean": ("mean", _complex, "0"),
                                     "mean_sq": ("mean_sq", _complex, "0"),
                                     "mean_abs_sq": ("mean_abs_sq", _float, "1")}),
        "point": (PointMassJumps, {"beta0": ("beta0", _complex, "0")}),
        "levy": (LevyJumps, {"mu": ("mu", _float, None), "sigma": ("sigma", _float, "1")}),
    }),
    "intrinsic": ("spectrum", "phase", "delta", {
        "delta": (_spectrum(DeltaPhase), _SPECTRUM),
        "exponential": (_spectrum(ExponentialPhase), _SPECTRUM),
        "log": (_spectrum(LogFormalPhase), _SPECTRUM),
    }),
}


def _keys(section: str) -> list:
    """The keys the tables name in `section` (none for an unknown one)."""
    keys = list(_PLAIN.get(section, ()))
    if section in _TYPED:
        _, selector, _, types = _TYPED[section]
        keys += [selector, *(key for _, args in types.values() for key in args)]
    return list(dict.fromkeys(keys))


def _unknown(name: str, known: list) -> ConfigError:
    import difflib  # only a refused config pays for it

    close = difflib.get_close_matches(name, known, n=1)
    return ConfigError(f"unknown {name}" + (f"; did you mean {close[0]}?" if close else ""))


def _value(body, name: str, key: str, parse, default):
    text = body.get(key, default)
    if text is None:
        raise ConfigError(f"missing key {name}.{key}")
    return parse(text, f"{name}.{key}")


def _read_section(parser: configparser.ConfigParser, name: str) -> dict:
    """Field -> value for section `name`, read as empty when absent."""
    body = parser[name] if name in parser else {}
    base = "kernel" if name.startswith("kernel.") else name
    known = _keys(base)
    if not known:
        raise _unknown(f"section [{name}]", [f"[{s}]" for s in dict.fromkeys([*_PLAIN, *_TYPED])])
    for key in body:
        if key not in map(parser.optionxform, known):
            raise _unknown(f"key {name}.{key}", [f"{name}.{k}" for k in known])
    fields = {
        attr: _value(body, name, key, parse, default)
        for key, (attr, parse, default) in _PLAIN.get(base, {}).items()
    }
    if base in _TYPED:
        attr, selector, default_type, types = _TYPED[base]
        chosen = _value(body, name, selector, _choice(*types), default_type)
        build, args = types[chosen]
        read = [*_PLAIN.get(base, ()), selector, *args]
        for key in body:
            if key not in map(parser.optionxform, read):
                raise ConfigError(f"{name}.{key} is not a key of {selector} = {chosen} "
                                  f"(its keys: {', '.join(args) or 'none'})")
        values = {arg: _value(body, name, key, parse, default)
                  for key, (arg, parse, default) in args.items()}
        try:
            fields[attr] = build(**values)
        except (BadParametersError, BadMomentsError) as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc
    fields.pop(None, None)
    return fields


def _read(parser: configparser.ConfigParser) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("missing section [experiment]")
    kind = _read_section(parser, "experiment")["kind"]
    if kind.startswith("figure"):
        others = [s for s in parser.sections() if s not in ("experiment", "output")]
        if others:
            raise ConfigError(f"[{others[0]}]: {kind} is a preset; its file may carry only "
                              "[experiment] and [output]")
        preset = _parser()
        preset.read_string(_FIGURES[kind])
        preset.read_dict({s: {k: v for k, v in parser[s].items() if k != "kind"}
                          for s in parser.sections()})
        return _read(preset)
    fields, kernels = {}, []
    # the sections present, then those whose defaults apply when absent: the
    # kind's own and the plain ones named after no kind
    defaulted = [s for s in [*_PLAIN, *_TYPED] if s == kind or s in _PLAIN and s not in KINDS]
    for name in dict.fromkeys([*parser.sections(), *defaulted]):
        values = _read_section(parser, name)
        if "kernels" in values:
            label = name.split(".", 1)[1] if "." in name else "kernel"
            kernels.append((label, values.pop("kernels")))
        if name == kind or name not in KINDS:
            fields.update(values)
    if not kernels:
        raise ConfigError("missing section [kernel]")
    cfg = ExperimentConfig(kernels=kernels, **fields)
    if kind in ("realizations", "ensemble", "solve", "cp-audit", "entropy") and cfg.model is None:
        raise ConfigError(f"experiment kind {kind!r} needs a [model] section")
    if cfg.csv_name == cfg.manifest_name:
        raise ConfigError(f"output.manifest must differ from output.csv, both are {cfg.csv_name!r}")
    return cfg


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment file; raises :class:`ConfigError`
    naming the offending key."""
    parser = _parser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = _read(parser)
    cfg.raw = {s: dict(parser[s]) for s in parser.sections()}
    return cfg


def figure_presets(n: int) -> ExperimentConfig:
    """The config of reference figure `n` (1..4), read from its text in
    ``_FIGURES`` as a file holding only ``kind = figure<n>`` is."""
    parser = _parser()
    parser.read_string(f"[experiment]\nkind = figure{n}\n")
    return _read(parser)


# The reference figures, on the [grid] defaults: t/T in [0, 10], 200 points.
_FIGURES = {
    "figure1": """
        # stochastic realizations, depolarizing, fractional kernel
        [experiment]
        kind = realizations
        [model]
        type = depolarizing
        [kernel.fractional]
        type = fractional
        amplitude = 0.7071067811865475  # 1/sqrt(2)
        alpha = 0.5
        [initial]
        state = bloch:0.5773502691896258,0.5773502691896258,0.5773502691896258
        [output]
        csv = figure1.csv
    """,
    "figure2": """
        # 10^4-realization ensemble of M_x against the Mittag-Leffler closed form
        [experiment]
        kind = ensemble
        [model]
        type = depolarizing
        [kernel.fractional]
        type = fractional
        amplitude = 0.7071067811865475  # 1/sqrt(2)
        alpha = 0.5
        [output]
        csv = figure2.csv
    """,
    "figure3": """
        # linear entropy, depolarizing, safe and dangerous exponential kernels
        [experiment]
        kind = entropy
        [model]
        type = depolarizing
        [kernel.markovian]
        type = markovian
        rate = 0.5
        [kernel.fractional]
        type = fractional
        amplitude = 0.7071067811865475  # 1/sqrt(2)
        alpha = 0.5
        [kernel.exp_safe]
        type = exponential
        amplitude = 1.0
        gamma = 2.0
        [kernel.exp_dangerous]
        type = exponential
        amplitude = 0.25
        gamma = 0.5
        [output]
        csv = figure3.csv
    """,
    "figure4": """
        # linear entropy, zero-temperature thermal channel
        [experiment]
        kind = entropy
        [model]
        type = thermal
        kappa = 0.75
        p_up = 0.0
        p_down = 1.0
        [kernel.markovian]
        type = markovian
        rate = 1.0
        [kernel.fractional]
        type = fractional
        amplitude = 1.0
        alpha = 0.5
        [kernel.exp_safe]
        type = exponential
        amplitude = 4.0
        gamma = 4.0
        [kernel.exp_dangerous]
        type = exponential
        amplitude = 1.0
        gamma = 1.0
        [output]
        csv = figure4.csv
    """,
}
