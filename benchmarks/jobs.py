"""Workload definitions: each job is one INI file for ``ctqrw.cli.run``.

Every input is derived from the benchmark seed: Monte Carlo jobs get their
``experiment.seed`` from it and most deterministic solves get their initial
Bloch vector (the intrinsic run its level spacings) from it.  The amount of work per job does not depend on the
seed, so run-to-run differences in time come from the machine, not from
the inputs.  Each job also names the correctness check that the gate
applies to its CSV, with the parameters the reference needs.

Standard library only: the parent process imports this module without
paying for numpy or ctqrw.
"""

import hashlib
import math
import random

WORKLOADS = ("mc-ensemble", "renewal-series", "volterra-audit")

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Jobs whose check fails on the current code for a known, documented
# reason.  Their check still runs with its full tolerance and every failure
# is printed; run.py counts them apart from the unexpected failures.
KNOWN_DEFECTS = {
    "subordination-a0.9": "subordination_solve returns NaN at fractional alpha = 0.9",
}


def _job_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _bloch(seed: int, name: str):
    """A seed-derived Bloch vector of length 0.95."""
    rng = random.Random(_job_seed(seed, name))
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r_xy = math.sqrt(1.0 - z * z)
    return tuple(round(0.95 * v, 6) for v in (r_xy * math.cos(phi), r_xy * math.sin(phi), z))


def _ini(sections: dict) -> str:
    lines = []
    for header, body in sections.items():
        lines.append(f"[{header}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    return "\n".join(lines)


def _kernel_section(kernel: dict) -> dict:
    if kernel["type"] == "fractional":
        return {"type": "fractional", "amplitude": repr(kernel["amplitude"]),
                "alpha": repr(kernel["alpha"])}
    return {"type": "exponential", "amplitude": repr(kernel["amplitude"]),
            "gamma": repr(kernel["gamma"])}


def _model_section(model: dict) -> dict:
    return {k: (v if isinstance(v, str) else repr(v)) for k, v in model.items()}


def _job(name, kind, seed, check, params=None, seed_of=None, threads=None, **sections):
    experiment = {"kind": kind, "seed": str(_job_seed(seed, seed_of or name))}
    if threads is not None:
        experiment["threads"] = str(threads)
    body = {"experiment": experiment}
    body.update(sections)
    body["output"] = {"csv": f"{name}.csv", "manifest": f"{name}.json"}
    return {"name": name, "ini": _ini(body), "csv": f"{name}.csv", "check": check,
            "params": params or {}}


DEPOLARIZING = {"type": "depolarizing"}
THERMAL = {"type": "thermal", "kappa": 0.75, "p_up": 0.0, "p_down": 1.0}
FRAC_HALF = {"type": "fractional", "amplitude": SQRT_HALF, "alpha": 0.5}
FRAC_09 = {"type": "fractional", "amplitude": 1.0, "alpha": 0.9}
EXP_SAFE = {"type": "exponential", "amplitude": 1.0, "gamma": 2.0}
PLUS_X = (1.0, 0.0, 0.0)


def _solve(seed, name, route, kernel, model=DEPOLARIZING, n_points=200, tol=None, check="solve",
           bloch=None):
    x, y, z = bloch or _bloch(seed, name)
    return _job(
        name, "solve", seed, check,
        {"model": model, "kernel": kernel, "bloch": [x, y, z], "tol": tol},
        model=_model_section(model),
        kernel=_kernel_section(kernel),
        grid={"t_max_over_T": "10", "n_points": str(n_points)},
        initial={"state": f"bloch:{x!r},{y!r},{z!r}"},
        solve={"route": route},
    )


def mc_ensemble(seed: int) -> list:
    frac_walk = {"type": "fractional", "amplitude": 1.0, "alpha": 0.7}
    return [
        _job("figure2", "figure2", seed, "ensemble",
             {"model": DEPOLARIZING, "kernel": FRAC_HALF, "bloch": PLUS_X,
              "observables": ["M_x"], "n_realizations": 10000}),
        # same seed as figure2, two worker threads: the CSV must not change
        _job("figure2-t2", "figure2", seed, "same-as", {"other": "figure2.csv"},
             seed_of="figure2", threads=2),
        _job("thermal-ensemble", "ensemble", seed, "ensemble",
             {"model": THERMAL, "kernel": EXP_SAFE, "bloch": PLUS_X,
              "observables": ["M_x", "M_z"], "n_realizations": 2000},
             model=_model_section(THERMAL), kernel=_kernel_section(EXP_SAFE),
             initial={"state": "plus_x"}, ensemble={"n_realizations": "2000"}),
        _job("wigner", "wigner", seed, "wigner",
             {"kernel": frac_walk, "n_walkers": 10000},
             kernel=_kernel_section(frac_walk), wigner={"n_walkers": "10000"}),
        _job("realizations", "realizations", seed, "realizations", {},
             model=_model_section(DEPOLARIZING), kernel=_kernel_section(FRAC_HALF),
             initial={"state": "plus_x"}, realizations={"n_realizations": "300"}),
    ]


def renewal_series(seed: int) -> list:
    # The series route is checked on plus_x, the input its 1e-6 tolerance
    # was set for.  Off the equator its population error at alpha = 1/2 is
    # about 1.4e-6 at t = 0.05 T, inside the 1e-5 the package's own tests
    # allow for that channel.
    return [
        _solve(seed, "series-a0.5", "series", FRAC_HALF, tol=1e-6, bloch=PLUS_X),
        _solve(seed, "series-a0.9", "series", FRAC_09, tol=1e-6, bloch=PLUS_X),
        _solve(seed, "series-exp", "series", EXP_SAFE, tol=1e-6, bloch=PLUS_X),
        _solve(seed, "subordination-a0.5", "subordination", FRAC_HALF, tol=1e-4),
        _solve(seed, "subordination-a0.9", "subordination", FRAC_09, tol=1e-4),
        _solve(seed, "closed-a0.97", "closed",
               {"type": "fractional", "amplitude": 1.0, "alpha": 0.97}, check="ml-spot"),
        _job("figure3", "figure3", seed, "entropy-range", {"dangerous": None}),
        _job("figure4", "figure4", seed, "entropy-range", {"dangerous": "delta_exp_dangerous"}),
    ]


def volterra_audit(seed: int) -> list:
    x, y, z = _bloch(seed, "intrinsic")
    return [
        _solve(seed, "volterra-a0.5", "volterra", FRAC_HALF, n_points=8001, tol=1e-4),
        _solve(seed, "volterra-thermal-exp", "volterra",
               {"type": "exponential", "amplitude": 1.0, "gamma": 1.0},
               model=THERMAL, n_points=8001, tol=1e-6),
        _job("intrinsic", "intrinsic", seed, "intrinsic", {"dim": 3},
             kernel=_kernel_section(FRAC_HALF),
             grid={"t_max_over_T": "10", "n_points": "2001"},
             intrinsic={"levels": f"0,{1.0 + abs(x):.6f},{2.5 + abs(y):.6f}",
                        "phase": "delta", "tau_b": "0.5"}),
        _job("cp-audit", "cp-audit", seed, "cp-audit",
             {"kernel": {"type": "exponential", "amplitude": 4.0, "gamma": 1.0}},
             model=_model_section(DEPOLARIZING),
             kernel=_kernel_section({"type": "exponential", "amplitude": 4.0, "gamma": 1.0}),
             grid={"t_max_over_T": "10", "n_points": "2000"}),
    ]


def jobs(workload: str, seed: int) -> list:
    """The job list of a workload, fully determined by `seed`."""
    return {"mc-ensemble": mc_ensemble, "renewal-series": renewal_series,
            "volterra-audit": volterra_audit}[workload](seed)
