"""Fuzz the CLI exit-code contract: every INI file ends in exit code 0, 2 or
3 (never a traceback), and every exit-2 message names a config section."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqrw import cli

SECTIONS = (
    "experiment", "model", "kernel", "grid", "initial", "ensemble", "realizations", "solve",
    "wigner", "intrinsic",
)

# junk for any key: non-numbers, non-finite values, negatives, values
# outside the ranges of alpha, p_x, kappa and mu, unknown enum values
JUNK = st.sampled_from(
    ["abc", "", "nan", "inf", "-inf", "1e400", "1+2j", "-1", "0", "1.5", "3", "bogus"]
)


def number(lo, hi):
    return st.floats(lo, hi).map(lambda v: f"{v:.6g}")


def section(required, **optional):
    return st.fixed_dictionaries(required, optional=optional)


PROBABILITY = st.sampled_from([0.0, 0.25, 0.5, 1.0])
MOMENT = st.sampled_from(["0", "0.3", "0.2+0.1j", "-0.5j"])

# every section is present with small counts (n_points <= 40, at most 50
# realizations or walkers), so no run falls back to the 10^4-realization
# defaults
VALID = st.fixed_dictionaries(
    {
        "experiment": section(
            {"kind": st.sampled_from(["realizations", "ensemble", "solve", "classify",
                                      "cp-audit", "entropy", "wigner", "intrinsic"])},
            seed=st.integers(0, 2**31 - 1).map(str),
            threads=st.integers(1, 4).map(str),
        ),
        "kernel": section(
            {"type": st.sampled_from(["markovian", "exponential", "fractional"]),
             "rate": number(0.2, 3.0), "amplitude": number(0.2, 3.0),
             "gamma": number(0.2, 3.0), "alpha": number(0.2, 1.0)},
        ),
        "grid": section({"n_points": st.integers(1, 40).map(str)}, t_max_over_T=number(0.1, 10.0)),
        "ensemble": section({"n_realizations": st.integers(1, 50).map(str)}),
        "realizations": section({"n_realizations": st.integers(1, 50).map(str)}),
        "wigner": section(
            {"n_walkers": st.integers(1, 50).map(str),
             "jump": st.sampled_from(["gaussian", "point", "levy"]),
             "mean_abs_sq": number(1.0, 2.0), "beta0": MOMENT, "mu": number(0.2, 2.0),
             "sigma": number(0.2, 2.0)},
        ),
        "model": PROBABILITY.flatmap(lambda p: section(
            {"type": st.sampled_from(["depolarizing", "dephasing", "thermal"]),
             "p_x": st.just(str(p)), "p_y": st.just(str(1.0 - p)), "kappa": number(0.05, 1.0),
             "p_up": st.just(str(p)), "p_down": st.just(str(1.0 - p))},
        )),
        "initial": section(
            {"state": st.sampled_from(["plus_x", "up", "down", "bloch:0.1,0.2,0.3"])}
        ),
        "solve": section(
            {"route": st.sampled_from(["closed", "volterra", "subordination", "series"])}
        ),
        "intrinsic": section(
            {"levels": st.lists(number(-3.0, 3.0), min_size=1, max_size=4).map(",".join),
             "tau_b": number(0.1, 2.0)},
            phase=st.sampled_from(["delta", "exponential", "log"]),
        ),
    },
)

KEYS = {
    "experiment": ("kind", "seed", "threads"),
    "kernel": ("type", "rate", "amplitude", "gamma", "alpha"),
    "grid": ("n_points", "t_max_over_T"),
    "ensemble": ("n_realizations",),
    "realizations": ("n_realizations",),
    "wigner": ("n_walkers", "jump", "mean", "mean_sq", "mean_abs_sq", "beta0", "mu", "sigma"),
    "model": ("type", "p_x", "p_y", "kappa", "p_up", "p_down"),
    "initial": ("state",),
    "solve": ("route",),
    "intrinsic": ("levels", "phase", "tau_b"),
}


@st.composite
def configs(draw):
    """A valid config with up to two values swapped for junk."""
    sections = draw(VALID)
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(sections)))
        sections[name][draw(st.sampled_from(KEYS[name]))] = draw(JUNK)
    return sections


def ini(sections: dict) -> str:
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
    )


SOLVE = {"kind": "solve"}
DEPOLARIZING = {"type": "depolarizing"}


@settings(max_examples=300, deadline=None, derandomize=True)
@example({"experiment": SOLVE, "model": DEPOLARIZING,
          "kernel": {"type": "fractional", "amplitude": "1", "alpha": "1.5"}})
@example({"experiment": SOLVE, "model": {"type": "depolarizing", "p_x": "abc"},
          "kernel": {"type": "markovian", "rate": "1"}})
@given(configs())
def test_every_config_exits_0_2_or_3(sections):
    text = ini(sections)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(str(path), str(Path(tmp) / "out"))
    assert code in (0, 2, 3), text
    if code == 2:
        assert any(name in err.getvalue() for name in SECTIONS), (err.getvalue(), text)
