"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line (run pytest with
``-s`` to see them all).  Criterion 5 checks the Choi-matrix CP audit of the
depolarizing model against the Pauli-channel closed form written out in the
test itself, not read back from the package.  For the exponential kernel
A e^(-gamma t) the map stays completely positive up to
A_eps/gamma^2 = 2.6209 (bisection on that closed form; a direct ODE
integration of rho'' + gamma rho' = A L rho agrees), so the audit must find a
violation at (gamma, A_eps) = (0.5, 1.0), where A_eps/gamma^2 = 4, and none
at the dangerous-but-CP pair (0.5, 0.25) or at the safe pair (2, 0.75).
"""

import time

import numpy as np
import pytest
from scipy.special import erfcx, gamma as gamma_fn, gammaln

from ctqrw import engine, solvers
from ctqrw.kernels import (
    ExponentialKernel,
    FractionalKernel,
    MarkovianKernel,
    MittagLefflerWaiting,
    classify_kernel,
    waiting_from_kernel,
    waiting_survival,
)
from ctqrw.models import (
    Dephasing,
    Depolarizing,
    GaussianJumps,
    SpectrumModel,
    DeltaPhase,
    Thermal,
    WignerWalkConfig,
    intrinsic_decoherence,
    milburn_generator,
    qubit_closed_solution,
    qubit_kraus,
    wigner_ctrw,
)
from ctqrw.quantum import damping_basis, linear_entropy, lindblad_from_kraus, make_density, vec
from ctqrw.seeding import WAITING_LANE, uniforms
from ctqrw.special import mittag_leffler

PLUS_X = make_density(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
AMP_HALF = 1.0 / np.sqrt(2.0)


def report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_figure2_reproduction():
    grid = np.linspace(0.0, 20.0, 200)  # t/T in [0, 10], T = 2
    emap = qubit_kraus(Depolarizing())
    waiting = MittagLefflerWaiting(amplitude=AMP_HALF, alpha=0.5)
    t0 = time.perf_counter()
    stats = engine.ensemble_average(PLUS_X, emap, waiting, grid, 10_000, base_seed=1)
    runtime = time.perf_counter() - t0
    analytic = mittag_leffler(0.5, AMP_HALF * np.sqrt(grid))
    diff = np.abs(stats.observable_means["M_x"] - analytic)
    bound = 3.0 * stats.observable_stderrs["M_x"]
    ok = bool(np.all(diff <= bound + 1e-15) and runtime < 60.0)
    assert report(
        1,
        ok,
        f"10^4-realization mean M_x within 3 stderr at all 200 points "
        f"(max excess {np.max(diff - bound):.2e}), runtime {runtime:.1f}s < 60s",
    )


def test_criterion_02_mittag_leffler_identity():
    x = np.linspace(0.0, 10.0, 1000)
    err = np.max(np.abs(mittag_leffler(0.5, x) - erfcx(x)))
    assert report(2, bool(err < 1e-10), f"max |E_1/2(-x) - e^(x^2) erfc(x)| = {err:.2e} < 1e-10")


def test_criterion_03_route_agreement():
    gen = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    basis = damping_basis(gen)

    exp_kern = ExponentialKernel(amplitude=0.75, decay=2.0)
    t_scale = 2.0 / 0.75
    n = 10_000
    grid_e = np.linspace(0.0, 10.0 * t_scale, n + 1)  # step 1e-3 T
    err_exp = np.max(
        np.abs(
            solvers.volterra_solve(gen, exp_kern, PLUS_X, grid_e)
            - solvers.closed_form_solve(basis, exp_kern, PLUS_X, grid_e)
        )
    )

    frac = FractionalKernel(amplitude=AMP_HALF, alpha=0.5)
    grid_f = np.linspace(0.0, 20.0, 10_001)  # T = 2, step 1e-3 T
    err_frac = np.max(
        np.abs(
            solvers.volterra_solve(gen, frac, PLUS_X, grid_f)
            - solvers.closed_form_solve(basis, frac, PLUS_X, grid_f)
        )
    )

    sub_grid_f = np.linspace(0.0, 20.0, 51)
    err_sub_f = np.max(
        np.abs(
            solvers.subordination_solve(frac, basis, PLUS_X, sub_grid_f)
            - solvers.closed_form_solve(basis, frac, PLUS_X, sub_grid_f)
        )
    )
    sub_grid_e = np.linspace(0.0, 10.0 * t_scale, 51)
    err_sub_e = np.max(
        np.abs(
            solvers.subordination_solve(exp_kern, basis, PLUS_X, sub_grid_e)
            - solvers.closed_form_solve(basis, exp_kern, PLUS_X, sub_grid_e)
        )
    )
    ok = bool(err_exp < 1e-6 and err_frac < 1e-4 and err_sub_f < 1e-4 and err_sub_e < 1e-4)
    assert report(
        3,
        ok,
        f"volterra vs closed: exp {err_exp:.2e} < 1e-6, frac {err_frac:.2e} < 1e-4; "
        f"subordination: frac {err_sub_f:.2e}, exp {err_sub_e:.2e} < 1e-4",
    )


def test_criterion_04_safe_dangerous_boundary():
    a_eps = 0.75
    g2 = 4.0 * a_eps
    safe = classify_kernel(ExponentialKernel(amplitude=a_eps, decay=np.sqrt(g2 * (1 + 1e-6))))
    dang = classify_kernel(ExponentialKernel(amplitude=a_eps, decay=np.sqrt(g2 * (1 - 1e-6))))
    witness_ok = dang.verdict == "dangerous" and dang.witness["w_value"] < 0 and np.isfinite(
        dang.witness["log10_abs_w"]
    )
    ok = bool(safe.verdict == "safe" and witness_ok)
    assert report(
        4,
        ok,
        f"gamma^2 = 4A(1+1e-6) -> {safe.verdict}; 4A(1-1e-6) -> {dang.verdict} with "
        f"w({dang.witness.get('t', float('nan')):.3g}) < 0 "
        f"(log10|w| = {dang.witness.get('log10_abs_w', float('nan')):.1f})",
    )


def depolarizing_choi_min(kern: ExponentialKernel, grid) -> np.ndarray:
    """Minimum Choi eigenvalue (trace-2 normalisation) of the depolarizing
    solution map under K = A e^(-gamma t), from the Pauli-channel closed form.

    The map has Bloch factors h_x = h_y = h_1 and h_z = h_2 with
    h_c(t) = e^(-gamma t/2) (cos w_c t + gamma/(2 w_c) sin w_c t) and
    w_c = sqrt(c A - gamma^2/4) (imaginary when overdamped); its Choi
    eigenvalues are (1 + h_2 +- 2 h_1)/2 and (1 - h_2)/2.
    """
    a, gam = kern.amplitude, kern.decay
    t = np.asarray(grid, dtype=float)

    def h(c):
        w = np.sqrt(complex(c * a - gam**2 / 4.0))
        return (np.exp(-gam * t / 2.0) * (np.cos(w * t) + gam / (2.0 * w) * np.sin(w * t))).real

    h1, h2 = h(1.0), h(2.0)
    return np.minimum.reduce([(1 + h2 + 2 * h1) / 2, (1 + h2 - 2 * h1) / 2, (1 - h2) / 2])


def test_criterion_05_cp_violation_detection():
    """The Choi audit finds the CP loss at (gamma, A_eps) = (0.5, 1.0),
    A_eps/gamma^2 = 4 > 2.6209, while the state PLUS_X stays positive; it
    stays silent at the dangerous but CP pair (0.5, 0.25), A_eps/gamma^2 = 1
    (a dangerous kernel alone implies no violation), and at the safe kernel
    (2, 0.75).  At every grid point of all three the audit matches the
    Pauli-channel closed form of ``depolarizing_choi_min`` within 1e-9."""
    gen = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    basis = damping_basis(gen)

    def audit(kern, grid):
        def route(batch):
            return solvers.closed_form_solve(basis, kern, batch, grid)

        defects = solvers.cp_defect_over_time(route, 2, grid)
        states = solvers.closed_form_solve(basis, kern, PLUS_X, grid)
        eigs = np.array([np.linalg.eigvalsh((s + s.conj().T) / 2).min() for s in states])
        mismatch = np.max(np.abs(defects - depolarizing_choi_min(kern, grid)))
        return defects, eigs, mismatch

    grid_d = np.linspace(0.0, 20.0, 201)  # T = 2
    violating = ExponentialKernel(amplitude=1.0, decay=0.5)
    defects_v, eigs_v, mismatch_v = audit(violating, grid_d)
    expected_v = depolarizing_choi_min(violating, grid_d).min()

    dangerous_cp = ExponentialKernel(amplitude=0.25, decay=0.5)
    defects_d, _, mismatch_d = audit(dangerous_cp, grid_d)

    safe = ExponentialKernel(amplitude=0.75, decay=2.0)
    grid_s = np.linspace(0.0, 10.0 * 2.0 / 0.75, 201)
    defects_s, _, mismatch_s = audit(safe, grid_s)

    clause_violation = bool(defects_v.min() < -1e-4 and eigs_v.min() >= -1e-10)
    clause_dangerous_cp = bool(defects_d.min() >= -1e-9)
    clause_safe = bool(defects_s.min() >= -1e-9)
    mismatch = max(mismatch_v, mismatch_d, mismatch_s)
    clause_closed_form = bool(mismatch < 1e-9)
    ok = clause_violation and clause_dangerous_cp and clause_safe and clause_closed_form
    assert report(
        5,
        ok,
        f"(0.5, 1.0): min cp_defect = {defects_v.min():.3e} < -1e-4 (closed form "
        f"{expected_v:.3e}), min state eig = {eigs_v.min():.1e} >= -1e-10; "
        f"(0.5, 0.25): min cp_defect = {defects_d.min():.3e} >= -1e-9; (2, 0.75): "
        f"min cp_defect = {defects_s.min():.3e} >= -1e-9; max |audit - closed form| = "
        f"{mismatch:.1e} < 1e-9 "
        f"(CP lost above A_eps/gamma^2 = 2.6209)",
    )


def test_criterion_06_thermal_positivity_loss():
    model = Thermal(kappa=0.75, p_up=0.0, p_down=1.0)
    grid = np.linspace(0.0, 10.0, 201)  # T = 1 for both kernels below
    bad = qubit_closed_solution(model, ExponentialKernel(amplitude=1.0, decay=1.0), PLUS_X, grid)
    deltas_bad = np.array([linear_entropy(s) for s in bad.states])
    good = qubit_closed_solution(model, ExponentialKernel(amplitude=4.0, decay=4.0), PLUS_X, grid)
    deltas_good = np.array([linear_entropy(s) for s in good.states])
    ok = bool(
        deltas_bad.min() < 0.0
        and deltas_good.min() >= -1e-10
        and deltas_good.max() <= 0.5 + 1e-12
    )
    assert report(
        6,
        ok,
        f"(1,1): min delta = {deltas_bad.min():.3f} < 0; (4,4): delta in "
        f"[{deltas_good.min():.1e}, {deltas_good.max():.3f}] within [-1e-10, 0.5]",
    )


def test_criterion_07_renewal_probabilities():
    a1 = 0.5
    grid = np.linspace(0.0, 20.0, 201)  # t/T in [0,10], T = 2
    probs = engine.renewal_probabilities(
        waiting_from_kernel(MarkovianKernel(rate=a1)), 10, grid
    )
    n = np.arange(11)[:, None]
    lam = a1 * grid[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.exp(
            np.where(lam > 0, n * np.log(lam), np.where(n > 0, -np.inf, 0.0))
            - lam
            - gammaln(n + 1)
        )
    err = np.max(np.abs(probs.table - expected))
    assert report(7, bool(err < 1e-8), f"P_n vs Poisson closed form: max err {err:.2e} < 1e-8")


def test_criterion_08_sampler_fidelity():
    n = 100_000
    ks_vals = {}
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        w = MittagLefflerWaiting(amplitude=1.0, alpha=alpha)
        draws = np.sort(w.from_uniforms(uniforms(2026, i, np.arange(n), WAITING_LANE, w.uniforms)))
        emp = np.arange(1, n + 1) / n
        cdf = 1.0 - waiting_survival(w, draws)
        ks_vals[alpha] = float(np.max(np.abs(cdf - emp)))
    from ctqrw.kernels import HypoexponentialWaiting

    hypo = HypoexponentialWaiting(r1=0.5, r2=1.5)
    draws = hypo.from_uniforms(uniforms(2027, 0, np.arange(n), WAITING_LANE, hypo.uniforms))
    mean_err = abs(draws.mean() - (2.0 + 2.0 / 3.0))
    se = draws.std(ddof=1) / np.sqrt(n)
    ok = bool(all(v < 0.0052 for v in ks_vals.values()) and mean_err < 3 * se)
    assert report(
        8,
        ok,
        "ML sampler KS = "
        + ", ".join(f"{a}: {v:.4f}" for a, v in ks_vals.items())
        + f" (< 0.0052); hypoexponential mean err {mean_err:.3f} < 3se = {3 * se:.3f}",
    )


def test_criterion_09_subdiffusion_exponent():
    kern = FractionalKernel(amplitude=AMP_HALF, alpha=0.5)  # T = 2
    t_scale = 2.0
    grid = np.geomspace(10.0 * t_scale, 1000.0 * t_scale, 25)
    cfg = WignerWalkConfig(
        jumps=GaussianJumps(mean_abs_sq=1.0), kernel=kern, n_walkers=10_000
    )
    res = wigner_ctrw(cfg, grid, base_seed=3)
    slope = np.polyfit(np.log(grid), np.log(res.n_estimate - 0.0), 1)[0]
    ok = bool(abs(slope - 0.5) <= 0.05)
    assert report(9, ok, f"fitted log-log slope of n(t) - n(0): {slope:.3f} = 0.50 +- 0.05")


def test_criterion_10_short_time_entropy_laws():
    emap = qubit_kraus(Depolarizing())
    excited = [1.0, 0.0]
    cases = {
        "fractional": (FractionalKernel(amplitude=AMP_HALF, alpha=0.5), 0.5, 2.0),
        "exponential": (ExponentialKernel(amplitude=1.0, decay=2.0), 2.0, 2.0),
        "markovian": (MarkovianKernel(rate=0.5), 1.0, 2.0),
    }
    results = {}
    for name, (kern, expo_expected, t_scale) in cases.items():
        st = solvers.short_time_entropy(emap, excited, kern)
        window = np.geomspace(1e-3 * t_scale, 1e-2 * t_scale, 40)
        fit = np.polyfit(np.log(window), np.log(st.law(window)), 1)
        results[name] = (fit[0], np.exp(fit[1]), st.coefficient)
    frac_prefactor = results["fractional"][1]
    expected_pref = 2.0 * AMP_HALF / gamma_fn(1.5) * 1.0  # <<E>> = 1 for |0>
    expo_ok = (
        abs(results["fractional"][0] - 0.5) <= 0.02
        and abs(results["exponential"][0] - 2.0) <= 0.02
        and abs(results["markovian"][0] - 1.0) <= 0.02
    )
    pref_ok = abs(frac_prefactor / expected_pref - 1.0) <= 0.02
    coeff_ok = abs(results["fractional"][2] - 1.0) < 1e-12
    ok = bool(expo_ok and pref_ok and coeff_ok)
    assert report(
        10,
        ok,
        f"law exponents frac {results['fractional'][0]:.3f}/0.5, exp "
        f"{results['exponential'][0]:.3f}/2, markov {results['markovian'][0]:.3f}/1; "
        f"fractional prefactor {frac_prefactor:.5f} vs 2A<<E>>/Gamma(1.5) = "
        f"{expected_pref:.5f} (within 2%)",
    )


def test_criterion_11_stationarity():
    cases = [
        (Depolarizing(), make_density(np.eye(2) / 2)),
        (Dephasing(), make_density(np.diag([0.3, 0.7]))),
        (Thermal(kappa=0.6, p_up=0.2, p_down=0.8), make_density(np.diag([0.2, 0.8]))),
    ]
    kernels = [
        MarkovianKernel(rate=0.5),
        ExponentialKernel(amplitude=0.75, decay=2.0),
        FractionalKernel(amplitude=AMP_HALF, alpha=0.5),
    ]
    worst = 0.0
    for model, eq in cases:
        gen = lindblad_from_kraus(qubit_kraus(model))
        basis = damping_basis(gen)
        for kern in kernels:
            grid = np.linspace(0.0, 20.0, 201)
            for states in (
                qubit_closed_solution(model, kern, eq, grid).states,
                solvers.volterra_solve(gen, kern, eq, grid),
                solvers.subordination_solve(kern, basis, eq, grid),
            ):
                worst = max(worst, float(np.max(np.abs(states - eq.matrix[None]))))
    assert report(
        11,
        bool(worst < 1e-9),
        f"max departure of stationary states over 3 models x 3 kernels x 3 routes: "
        f"{worst:.2e} < 1e-9",
    )


def test_criterion_12_milburn_reduction():
    import scipy.linalg

    spectrum = SpectrumModel(levels=np.array([0.0, 1.0, 2.5]), phase=DeltaPhase(tau_b=0.7))
    tau_a = 1.0
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    grid = np.linspace(0.0, 10.0, 101)
    res = intrinsic_decoherence(spectrum, MarkovianKernel(rate=1 / tau_a), rho0, grid)
    gen = milburn_generator(spectrum, tau_a)
    err = 0.0
    for k in range(grid.size):
        exact = scipy.linalg.expm(grid[k] * gen) @ vec(rho0)
        err = max(err, float(np.max(np.abs(vec(res.states[k]) - exact))))
    assert report(
        12, bool(err < 1e-8), f"intrinsic route vs direct Milburn integration: {err:.2e} < 1e-8"
    )
