"""Correctness gate: compare each job's CSV with an independent reference.

Runs after the timed passes, never inside them.  ``check_job`` returns a
list of failure reasons; an empty list means the job passed.  References
come from a different route than the one the job exercised (closed forms,
the 50-digit Mittag-Leffler oracle, renewal moments), so a wrong answer on
the benchmarked path cannot agree with its own reference by construction.
"""

import math
import os

import numpy as np

from ctqrw.engine import renewal_probabilities
from ctqrw.kernels import (
    ExponentialKernel,
    FractionalKernel,
    renewal_mean_count,
    waiting_from_kernel,
)
from ctqrw.models import Depolarizing, Thermal, qubit_closed_solution, qubit_kraus
from ctqrw.quantum import SIGMA_X, SIGMA_Z, apply_kraus
from ctqrw.special import ml_reference

SIGMAS = 5.0  # Monte Carlo tolerance in standard errors (seeds vary per run)
ROUNDING = 1e-12  # absolute slack for 17-digit CSV round trips
ENTROPY_FLOOR = -1e-10
ML_SPOT_TOL = 1e-8  # mittag_leffler's documented worst-case accuracy
CP_TOL = 1e-12
CP_VIOLATION = -1e-9
INTRINSIC_TOL = 1e-6
PAULI = {"M_x": SIGMA_X, "M_z": SIGMA_Z}


def read_csv(path: str) -> dict:
    """Columns of a ctqrw CSV by header name (NaN and inf parse as such)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def make_model(spec: dict):
    if spec["type"] == "depolarizing":
        return Depolarizing()
    return Thermal(kappa=spec["kappa"], p_up=spec["p_up"], p_down=spec["p_down"])


def make_kernel(spec: dict):
    if spec["type"] == "fractional":
        return FractionalKernel(amplitude=spec["amplitude"], alpha=spec["alpha"])
    return ExponentialKernel(amplitude=spec["amplitude"], decay=spec["gamma"])


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def _nonfinite(cols: dict, names) -> list:
    bad = sum(int(np.count_nonzero(~np.isfinite(cols[n]))) for n in names)
    total = sum(cols[n].size for n in names)
    return [f"{bad}/{total} non-finite values"] if bad else []


def _exceeds(label: str, err: np.ndarray, tol: np.ndarray | float) -> list:
    excess = err - tol
    if np.all(excess <= 0):
        return []
    k = int(np.argmax(excess))
    tol_k = tol if np.isscalar(tol) else tol[k]
    return [f"{label}: error {err[k]:.3g} > tolerance {tol_k:.3g} at row {k} "
            f"({int(np.count_nonzero(excess > 0))} rows out of tolerance)"]


def exact_stderr(model, kernel, rho0, grid, n_realizations: int, observables: dict) -> dict:
    """Standard error of an n-realization mean from the exact count law.

    After n events a realization sits in ``E^n[rho0]``, so the per-realization
    variance is ``sum_n P_n(t) O_n^2 - (sum_n P_n(t) O_n)^2`` with P_n from the
    series route.  The sample estimate is not used: late in a run the mean is
    carried by a handful of realizations with few events, and when none of
    them is drawn the sample error collapses to almost zero.
    """
    probs = renewal_probabilities(waiting_from_kernel(kernel), None, grid, min_points=4000)
    emap = qubit_kraus(model)
    states = [rho0]
    for _ in range(probs.n_max):
        states.append(apply_kraus(emap, states[-1]))
    out = {}
    for name, op in observables.items():
        o_n = np.einsum("ij,nji->n", op, np.array(states)).real
        var = probs.table.T @ o_n**2 - (probs.table.T @ o_n) ** 2
        out[name] = np.sqrt(np.clip(var, 0.0, None) / n_realizations)
    return out


def check_ensemble(cols: dict, p: dict) -> list:
    """Monte Carlo means within SIGMAS standard errors of the closed form."""
    names = {"M_x": "mc_mean_Mx", "M_z": "mc_mean_Mz"}
    fails = _nonfinite(cols, [names[o] for o in p["observables"]])
    if fails:
        return fails
    model, kernel = make_model(p["model"]), make_kernel(p["kernel"])
    rho0 = bloch_state(*p["bloch"])
    sol = qubit_closed_solution(model, kernel, rho0, cols["t"])
    ref = {"M_x": 2.0 * sol.coherence_up.real, "M_z": sol.p_up - sol.p_down}
    ops = {o: PAULI[o] for o in p["observables"]}
    se = exact_stderr(model, kernel, rho0, cols["t"], p["n_realizations"], ops)
    for obs in p["observables"]:
        err = np.abs(cols[names[obs]] - ref[obs])
        fails += _exceeds(obs, err, SIGMAS * se[obs] + ROUNDING)
    return fails


def check_same_as(path: str, p: dict, out_dir: str) -> list:
    with open(path, "rb") as a, open(os.path.join(out_dir, p["other"]), "rb") as b:
        same = a.read() == b.read()
    return [] if same else [f"CSV bytes differ from {p['other']}"]


def check_wigner(cols: dict, p: dict) -> list:
    """Mean count within SIGMAS standard errors of <N(t)>, with the
    fractional-Poisson variance ``mu + (A t^a)^2 (2/G(1+2a) - 1/G(1+a)^2)``."""
    fails = _nonfinite(cols, ["mean_count"])
    if fails:
        return fails
    t = cols["t"]
    k = p["kernel"]
    a, amp = k["alpha"], k["amplitude"]
    mu = renewal_mean_count(make_kernel(k), t)
    var = mu + (amp * t**a) ** 2 * (2.0 / math.gamma(1 + 2 * a) - 1.0 / math.gamma(1 + a) ** 2)
    se = np.sqrt(var / p["n_walkers"])
    return _exceeds("mean_count", np.abs(cols["mean_count"] - mu), SIGMAS * se + ROUNDING)


def check_realizations(cols: dict, p: dict) -> list:
    runs = sorted({name.rsplit("_r", 1)[1] for name in cols if name != "t"}, key=int)
    names = [f"{o}_r{k}" for k in runs for o in ("M_x", "M_y", "M_z")]
    fails = _nonfinite(cols, names)
    if fails:
        return fails
    norms = np.array([np.sqrt(cols[f"M_x_r{k}"] ** 2 + cols[f"M_y_r{k}"] ** 2
                              + cols[f"M_z_r{k}"] ** 2) for k in runs])
    worst = float(norms.max())
    return [] if worst <= 1.0 + ROUNDING else [f"Bloch norm {worst:.17g} > 1"]


def check_solve(cols: dict, p: dict) -> list:
    """State entries within the route's tolerance of the closed form."""
    names = ["P_up", "P_down", "re_coherence", "im_coherence"]
    fails = _nonfinite(cols, names)
    if fails:
        return fails
    sol = qubit_closed_solution(make_model(p["model"]), make_kernel(p["kernel"]),
                                bloch_state(*p["bloch"]), cols["t"])
    ref = {"P_up": sol.p_up, "P_down": sol.p_down,
           "re_coherence": sol.coherence_up.real, "im_coherence": sol.coherence_up.imag}
    err = np.max([np.abs(cols[n] - ref[n]) for n in names], axis=0)
    return _exceeds("state", err, p["tol"])


def check_ml_spot(cols: dict, p: dict) -> list:
    """Depolarizing Bloch components against the 50-digit oracle:
    ``M_{x,y}(t) = M_{x,y}(0) E_a(-A t^a)`` and ``M_z(t) = M_z(0) E_a(-2 A t^a)``."""
    fails = _nonfinite(cols, ["M_x", "M_y", "M_z"])
    if fails:
        return fails
    a, amp = p["kernel"]["alpha"], p["kernel"]["amplitude"]
    x, y, z = p["bloch"]
    rows = np.linspace(0, cols["t"].size - 1, 8).astype(int)
    for k in rows:
        s = amp * cols["t"][k] ** a
        e1, e2 = ml_reference(a, s), ml_reference(a, 2.0 * s)
        err = max(abs(cols["M_x"][k] - x * e1), abs(cols["M_y"][k] - y * e1),
                  abs(cols["M_z"][k] - z * e2))
        if err > ML_SPOT_TOL:
            fails.append(f"Bloch vector off the Mittag-Leffler oracle by {err:.3g} at row {k}")
    return fails


def check_entropy_range(cols: dict, p: dict) -> list:
    """Safe curves stay in [ENTROPY_FLOOR, 1/2]; a dangerous curve dips below 0."""
    curves = [n for n in cols if n != "t"]
    fails = _nonfinite(cols, curves)
    if fails:
        return fails
    for name in curves:
        lo, hi = float(cols[name].min()), float(cols[name].max())
        if name == p["dangerous"]:
            if lo >= 0.0:
                fails.append(f"{name}: dangerous curve never goes below 0")
        elif lo < ENTROPY_FLOOR or hi > 0.5:
            fails.append(f"{name}: range [{lo:.3g}, {hi:.3g}] leaves [0, 0.5]")
    return fails


def check_cp_audit(cols: dict, p: dict) -> list:
    """cp_defect equals 2 min(g_I, g_x, g_y, g_z) and shows the violation."""
    fails = _nonfinite(cols, ["cp_defect"])
    if fails:
        return fails
    sol = qubit_closed_solution(Depolarizing(), make_kernel(p["kernel"]),
                                bloch_state(1.0, 0.0, 0.0), cols["t"])
    ref = 2.0 * np.min(np.stack(list(sol.g.values())), axis=0)
    fails = _exceeds("cp_defect", np.abs(cols["cp_defect"] - ref), CP_TOL)
    if cols["cp_defect"].min() >= CP_VIOLATION:
        fails.append(f"cp_defect never below {CP_VIOLATION:g}")
    return fails


def check_intrinsic(cols: dict, p: dict) -> list:
    """Populations stay at their initial values and the trace stays 1."""
    names = [n for n in cols if n != "t"]
    fails = _nonfinite(cols, names)
    if fails:
        return fails
    pops = np.stack([cols[f"re_rho_{n}{n}"] for n in range(p["dim"])])
    fails += _exceeds("population drift", np.max(np.abs(pops - pops[:, :1]), axis=0),
                      INTRINSIC_TOL)
    fails += _exceeds("trace", np.abs(pops.sum(axis=0) - 1.0), INTRINSIC_TOL)
    return fails


CHECKS = {
    "ensemble": check_ensemble,
    "wigner": check_wigner,
    "realizations": check_realizations,
    "solve": check_solve,
    "ml-spot": check_ml_spot,
    "entropy-range": check_entropy_range,
    "cp-audit": check_cp_audit,
    "intrinsic": check_intrinsic,
}


def check_job(job: dict, out_dir: str, exit_code: int) -> list:
    """Failure reasons for one job's output (empty when it passed)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    path = os.path.join(out_dir, job["csv"])
    if not os.path.exists(path):
        return [f"missing output {job['csv']}"]
    if job["check"] == "same-as":
        return check_same_as(path, job["params"], out_dir)
    with np.errstate(all="ignore"):
        return CHECKS[job["check"]](read_csv(path), job["params"])
