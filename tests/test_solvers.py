"""Deterministic routes: h-functions, Volterra quadrature, subordination,
short-time entropy, CP audit."""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ctqrw import solvers
from ctqrw.errors import (
    DangerousKernelError,
    DimMismatchError,
    DomainError,
    SubordinationUnavailableError,
    UnstableStepError,
    UnsupportedKernelError,
)
from ctqrw.kernels import ExponentialKernel, FractionalKernel, LaplaceKernel, MarkovianKernel
from ctqrw.models import Dephasing, Depolarizing, Thermal, qubit_kraus
from ctqrw.quantum import damping_basis, lindblad_from_kraus, make_density
from ctqrw.solvers import telegraph_h
from ctqrw.special import mittag_leffler

PLUS_X = make_density(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
EXC = make_density(np.diag([1.0, 0.0]))

EXP_SAFE = ExponentialKernel(amplitude=0.75, decay=2.0)
FRAC_HALF = FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5)
MARKOV = MarkovianKernel(rate=0.5)


def depol_basis():
    gen = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    return gen, damping_basis(gen)


# -- h functions -------------------------------------------------------------


def test_telegraph_h_stationary_eigenvalue_is_one():
    t = np.linspace(0.0, 30.0, 400)
    assert np.max(np.abs(telegraph_h(t, 0.0, 2.0, 0.75) - 1.0)) < 1e-12


def test_telegraph_h_closed_value():
    # gamma=2, A=0.75, lam=1: Phi=1, h(1) = e^-1 (cosh 0.5 + 2 sinh 0.5);
    # the characteristic-root oracle gives 1.5 e^{-1/2} - 0.5 e^{-3/2}
    val = telegraph_h(np.array([1.0]), 1.0, 2.0, 0.75)[0]
    expected = np.exp(-1.0) * (np.cosh(0.5) + 2.0 * np.sinh(0.5))
    assert val == pytest.approx(expected, abs=1e-14)
    oracle = 1.5 * np.exp(-0.5) - 0.5 * np.exp(-1.5)
    assert val == pytest.approx(oracle, abs=1e-14)


def test_telegraph_h_degenerate_limit():
    # gamma=2, A=1, lam=1: Phi=0, h = e^-t (1 + t)
    t = np.linspace(0.0, 10.0, 200)
    vals = telegraph_h(t, 1.0, 2.0, 1.0)
    assert np.max(np.abs(vals - np.exp(-t) * (1 + t))) < 1e-9


def test_telegraph_h_continuity_across_degeneracy():
    t = np.linspace(0.0, 5.0, 50)
    below = telegraph_h(t, 1.0 - 1e-9, 2.0, 1.0)
    above = telegraph_h(t, 1.0 + 1e-9, 2.0, 1.0)
    assert np.max(np.abs(below - above)) < 1e-7


def test_telegraph_h_solves_its_ode():
    # h'' + gamma h' + lam A h = 0, h(0)=1, h'(0)=0 (residual by high-order
    # finite differences)
    gamma, a_eps, lam = 2.0, 0.75, 2.0
    h = 1e-4
    t = np.linspace(10 * h, 3.0, 117)
    stencil = np.array([-2, -1, 0, 1, 2]) * h
    vals = telegraph_h((t[:, None] + stencil[None, :]).ravel(), lam, gamma, a_eps).reshape(
        t.size, 5
    )
    d1 = (vals[:, 0] - 8 * vals[:, 1] + 8 * vals[:, 3] - vals[:, 4]) / (12 * h)
    d2 = (-vals[:, 0] + 16 * vals[:, 1] - 30 * vals[:, 2] + 16 * vals[:, 3] - vals[:, 4]) / (
        12 * h * h
    )
    resid = d2 + gamma * d1 + lam * a_eps * vals[:, 2]
    assert np.max(np.abs(resid)) < 1e-6


def test_telegraph_h_magnitude_bound():
    # damped oscillator started at rest never exceeds 1 in magnitude
    t = np.linspace(0.0, 60.0, 3000)
    for lam in (0.5, 1.0, 2.0):
        for gamma, a_eps in ((0.5, 0.25), (2.0, 0.75), (1.0, 1.0)):
            assert np.max(np.abs(telegraph_h(t, lam, gamma, a_eps))) <= 1.0 + 1e-12


def test_mittag_leffler_h_slopes():
    # stretched-exponential onset (slope alpha) and power-law tail (-alpha)
    alpha, amp = 0.5, 1 / np.sqrt(2)
    t_small = np.geomspace(1e-8, 1e-6, 10)
    slope_small = np.polyfit(np.log(t_small), np.log(1.0 - FRAC_HALF.decay_factor(1.0, t_small)), 1)[0]
    assert slope_small == pytest.approx(alpha, abs=0.01)
    t_big = np.geomspace(1e6, 1e9, 10)
    slope_big = np.polyfit(np.log(t_big), np.log(FRAC_HALF.decay_factor(1.0, t_big)), 1)[0]
    assert slope_big == pytest.approx(-alpha, abs=0.01)


# -- closed form vs volterra vs ode vs subordination -------------------------


def grid_for(kernel, t_over_scale=10.0, step_over_scale=1e-3):
    from ctqrw.kernels import kernel_time_scale

    scale = kernel_time_scale(kernel)
    n = int(round(t_over_scale / step_over_scale))
    return np.linspace(0.0, t_over_scale * scale, n + 1)


def test_volterra_markovian_matches_exponential_map():
    import scipy.linalg

    gen, basis = depol_basis()
    grid = np.linspace(0.0, 10.0, 201)
    states = solvers.volterra_solve(gen, MARKOV, PLUS_X, grid)
    # exact: expm(A1 L t) applied to vec(rho0)
    from ctqrw.quantum import unvec, vec

    err = 0.0
    for k in (50, 125, 200):
        exact = unvec(
            scipy.linalg.expm(MARKOV.rate * grid[k] * gen.matrix) @ vec(PLUS_X.matrix), 2
        )
        err = max(err, np.max(np.abs(states[k] - exact)))
    assert err < 1e-8


def test_volterra_exponential_against_closed_form():
    # criterion-3 tolerance: max error < 1e-6 at step 1e-3 T
    gen, basis = depol_basis()
    grid = grid_for(EXP_SAFE)
    states = solvers.volterra_solve(gen, EXP_SAFE, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, EXP_SAFE, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 1e-6


def test_volterra_fractional_against_closed_form():
    gen, basis = depol_basis()
    grid = grid_for(FRAC_HALF)
    states = solvers.volterra_solve(gen, FRAC_HALF, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, FRAC_HALF, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 1e-4


def test_volterra_refinement_order():
    # halving the step reduces the error at least by the advertised order
    gen, basis = depol_basis()
    errs = {}
    for factor in (1, 2):
        grid = grid_for(EXP_SAFE, t_over_scale=4.0, step_over_scale=4e-3 / factor)
        sub = solvers.volterra_solve(gen, EXP_SAFE, PLUS_X, grid)
        closed = solvers.closed_form_solve(basis, EXP_SAFE, PLUS_X, grid)
        errs[factor] = np.max(np.abs(sub - closed))
    assert errs[1] / errs[2] > 3.5  # second order or better

    errs = {}
    for factor in (1, 2):
        grid = grid_for(FRAC_HALF, t_over_scale=4.0, step_over_scale=4e-3 / factor)
        sub = solvers.volterra_solve(gen, FRAC_HALF, PLUS_X, grid)
        closed = solvers.closed_form_solve(basis, FRAC_HALF, PLUS_X, grid)
        errs[factor] = np.max(np.abs(sub - closed))
    assert errs[1] / errs[2] > 1.8  # at least first order


def test_telegraph_ode_route_agrees():
    gen, basis = depol_basis()
    grid = grid_for(EXP_SAFE, step_over_scale=2e-3)
    ode = solvers.telegraph_ode_solve(gen, EXP_SAFE, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, EXP_SAFE, PLUS_X, grid)
    assert np.max(np.abs(ode - closed)) < 1e-9


def test_volterra_custom_kernel_matches_exponential():
    # the same exponential kernel fed through the generic Talbot-moment
    # path must reproduce the exact-moment path to quadrature noise
    gen, basis = depol_basis()
    custom = LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0), scale=0.75 / 2.0)
    grid = grid_for(EXP_SAFE, t_over_scale=5.0, step_over_scale=5e-3)
    states = solvers.volterra_solve(gen, custom, PLUS_X, grid)
    exact = solvers.volterra_solve(gen, EXP_SAFE, PLUS_X, grid)
    assert np.max(np.abs(states - exact)) < 1e-9
    closed = solvers.closed_form_solve(basis, EXP_SAFE, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 3e-5  # h^2 at this coarser step


def test_trace_preserved_along_routes():
    gen, basis = depol_basis()
    for kernel in (MARKOV, EXP_SAFE, FRAC_HALF):
        grid = grid_for(kernel, t_over_scale=8.0, step_over_scale=4e-3)
        for states in (
            solvers.volterra_solve(gen, kernel, PLUS_X, grid),
            solvers.closed_form_solve(basis, kernel, PLUS_X, grid),
        ):
            traces = np.einsum("kii->k", states).real
            assert np.max(np.abs(traces - 1.0)) < 1e-8


def test_volterra_nan_from_a_step_far_beyond_the_kernel_memory_raises():
    # gamma h = 810: the kernel moments overflow, and the NaN trace must fail
    # the drift check instead of passing it
    gen, _ = depol_basis()
    with pytest.warns(RuntimeWarning), pytest.raises(UnstableStepError, match="nan"):
        solvers.volterra_solve(gen, ExponentialKernel(amplitude=1.0, decay=9.0), PLUS_X, [0.0, 90.0])


def test_closed_form_rejects_custom_kernel():
    _, basis = depol_basis()
    with pytest.raises(UnsupportedKernelError):
        solvers.closed_form_solve(
            basis, LaplaceKernel(transform=lambda u: 1 / (1 + u)), PLUS_X, [0.0, 1.0]
        )


# -- subordination ------------------------------------------------------------


def test_subordination_markovian_is_delta():
    line = solvers.subordination_pdf(MARKOV, 3.0, 1.0)
    assert isinstance(line, solvers.DeltaLine)
    assert line.location == pytest.approx(1.5)


def test_subordination_pdf_fractional_half_gaussian():
    # alpha = 1/2: P(t,tau) = exp(-tau^2/(4 A^2 t)) / (A sqrt(pi t))
    kern = FRAC_HALF
    a = kern.amplitude
    t = 2.5
    taus = np.linspace(0.01, 6.0, 25)
    vals = solvers.subordination_pdf(kern, t, taus)
    expected = np.exp(-(taus**2) / (4 * a * a * t)) / (a * np.sqrt(np.pi * t))
    assert np.max(np.abs(vals - expected)) < 1e-8


def test_subordination_pdf_normalization():
    kern = FRAC_HALF
    for t in (0.5, 2.0, 10.0):
        val, _ = quad(lambda tau: solvers.subordination_pdf(kern, t, tau), 0.0, 40.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_subordination_pdf_exponential_unavailable():
    with pytest.raises(SubordinationUnavailableError):
        solvers.subordination_pdf(EXP_SAFE, 1.0, 1.0)


def test_subordination_pdf_needs_positive_time():
    for t in (0.0, -1.0):
        with pytest.raises(DomainError, match="t must be > 0"):
            solvers.subordination_pdf(FRAC_HALF, t, 1.0)


@pytest.mark.parametrize("alpha", [0.9, 0.97])
def test_subordination_overflow_raises_instead_of_nan(alpha):
    # for alpha > 1/2, exp(-tau s/Ktilde(s)) overflows on the Talbot
    # contour's left arm; the route must say so, not return NaN
    kern = FractionalKernel(amplitude=1.0, alpha=alpha)
    gen, basis = depol_basis()
    grid = np.linspace(0.0, 10.0 * kern.time_scale, 200)
    with pytest.raises(SubordinationUnavailableError, match=f"alpha={alpha}.*t = "):
        solvers.subordination_solve(kern, basis, PLUS_X, grid)
    with pytest.raises(SubordinationUnavailableError, match=f"alpha={alpha}"):
        solvers.subordination_pdf(kern, 1.0, np.linspace(0.0, 20.0, 50))


def test_subordination_dangerous_kernel_refused():
    bad = ExponentialKernel(amplitude=1.0, decay=1.0)
    gen, basis = depol_basis()
    with pytest.raises(DangerousKernelError):
        solvers.subordination_pdf(bad, 1.0, 1.0)
    with pytest.raises(DangerousKernelError):
        solvers.subordination_solve(bad, basis, PLUS_X, np.linspace(0, 5, 6))


def test_subordination_h_matches_mittag_leffler():
    # int P(t,tau) e^(-lam tau) dtau = E_alpha(-lam A t^alpha)
    kern = FRAC_HALF
    gen, basis = depol_basis()
    grid = np.linspace(0.0, 20.0, 41)
    states = solvers.subordination_solve(kern, basis, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, kern, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 1e-5


def test_subordination_telegraph_laplace_route():
    gen, basis = depol_basis()
    grid = np.linspace(0.0, 26.0, 53)
    states = solvers.subordination_solve(EXP_SAFE, basis, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, EXP_SAFE, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 1e-4


def test_subordination_stationary_state_constant():
    gen, basis = depol_basis()
    eq = make_density(np.eye(2) / 2)
    grid = np.linspace(0.0, 20.0, 21)
    states = solvers.subordination_solve(FRAC_HALF, basis, eq, grid)
    assert np.max(np.abs(states - eq.matrix[None])) < 1e-9


# -- short-time entropy -------------------------------------------------------


def test_scattering_spread_values():
    from ctqrw.quantum import KrausMap

    ident = KrausMap(operators=(np.eye(2, dtype=complex),))
    st = solvers.short_time_entropy(ident, [1, 0], MARKOV)
    assert st.coefficient == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(st.law([0.1, 1.0]), 0.0)

    st = solvers.short_time_entropy(qubit_kraus(Depolarizing()), [1, 0], FRAC_HALF)
    assert st.coefficient == pytest.approx(1.0, abs=1e-14)


def test_short_time_laws_match_exact_delta():
    # the law is the leading asymptote of delta(t) = 1 - Tr rho^2
    from ctqrw.models import qubit_closed_solution
    from ctqrw.quantum import linear_entropy

    emap = qubit_kraus(Depolarizing())
    for kernel in (MARKOV, EXP_SAFE, FRAC_HALF):
        st = solvers.short_time_entropy(emap, [1, 0], kernel)
        t_ref = 1e-6 * 2.0  # deep asymptotic regime, t/T = 1e-6
        sol = qubit_closed_solution(Depolarizing(), kernel, EXC, np.array([0.0, t_ref]))
        exact = linear_entropy(sol.states[1])
        assert exact == pytest.approx(float(st.law(t_ref)), rel=5e-3)


def test_short_time_law_exponents():
    emap = qubit_kraus(Depolarizing())
    assert solvers.short_time_entropy(emap, [1, 0], MARKOV).exponent == 1.0
    assert solvers.short_time_entropy(emap, [1, 0], EXP_SAFE).exponent == 2.0
    assert solvers.short_time_entropy(emap, [1, 0], FRAC_HALF).exponent == 0.5


# -- CP audit -----------------------------------------------------------------


def closed_route(kernel):
    gen, basis = depol_basis()
    def route(batch):
        return solvers.closed_form_solve(basis, kernel, batch, GRID_CP)
    return route


GRID_CP = np.linspace(0.0, 20.0, 201)


def test_cp_defect_safe_kernels_nonnegative():
    for kernel in (FRAC_HALF, EXP_SAFE):
        defects = solvers.cp_defect_over_time(closed_route(kernel), 2, GRID_CP)
        assert defects.min() > -1e-9


def test_cp_defect_detects_violation_deep_in_dangerous_region():
    # A_eps/gamma^2 = 4 > 2.62: the map genuinely loses complete positivity
    # while the state itself stays positive (|h| <= 1 keeps det rho >= 0)
    kern = ExponentialKernel(amplitude=1.0, decay=0.5)
    grid = np.linspace(0.0, 40.0, 401)
    gen, basis = depol_basis()

    def route(batch):
        return solvers.closed_form_solve(basis, kern, batch, grid)

    defects = solvers.cp_defect_over_time(route, 2, grid)
    assert defects.min() < -1e-2
    states = solvers.closed_form_solve(basis, kern, PLUS_X, grid)
    eigs = np.array([np.linalg.eigvalsh((s + s.conj().T) / 2).min() for s in states])
    assert eigs.min() > -1e-10


def test_cp_defect_matches_choi_of_map_at_every_point():
    # the batched audit and the one-map Choi builder share one assembly:
    # same defects, bit for bit, on a random d = 3 channel
    from ctqrw.quantum import choi_of_map

    emap, gen, basis, rho, grid = qutrit_problem()

    def route(batch):
        return solvers.volterra_solve(gen, EXP_SAFE, batch, grid)

    defects = solvers.cp_defect_over_time(route, 3, grid)
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    images = route(units)
    for k in range(grid.size):
        _, expected = choi_of_map(lambda m: np.tensordot(m.ravel(), images[:, k], axes=(0, 0)), 3)
        assert defects[k] == expected
    with pytest.raises(DimMismatchError):
        solvers.cp_defect_over_time(route, 3, grid[:-1])


def test_cp_defect_matches_g_coefficients():
    # for the depolarizing model cp_defect = 2 min(g): the Choi eigenvalues
    # of a Pauli channel are twice its map-decomposition weights
    from ctqrw.models import qubit_closed_solution

    kern = ExponentialKernel(amplitude=1.0, decay=0.5)
    grid = np.linspace(0.0, 30.0, 121)
    gen, basis = depol_basis()

    def route(batch):
        return solvers.closed_form_solve(basis, kern, batch, grid)

    defects = solvers.cp_defect_over_time(route, 2, grid)
    sol = qubit_closed_solution(Depolarizing(), kern, PLUS_X, grid)
    gmin = np.minimum.reduce([sol.g["g_I"], sol.g["g_x"], sol.g["g_y"], sol.g["g_z"]])
    assert np.max(np.abs(defects - 2.0 * gmin)) < 1e-9


# -- cross-route agreement beyond qubits -------------------------------------


def qutrit_problem():
    """A random d = 3 channel whose damping rates are complex."""
    from ctqrw.quantum import random_density, random_kraus_map

    rng = np.random.default_rng(3)
    emap = random_kraus_map(3, 2, rng)
    rho = random_density(3, rng)
    gen = lindblad_from_kraus(emap)
    return emap, gen, damping_basis(gen), rho, np.linspace(0.0, 5.0, 51)


def test_qutrit_routes_agree_exponential_kernel():
    from ctqrw.engine import series_solution
    from ctqrw.kernels import waiting_from_kernel

    emap, gen, basis, rho, grid = qutrit_problem()
    assert np.max(np.abs(basis.rates.imag)) > 0.1
    closed = solvers.closed_form_solve(basis, EXP_SAFE, rho, grid)
    series, _ = series_solution(rho, emap, waiting_from_kernel(EXP_SAFE), grid)
    for states, tol in (
        (solvers.telegraph_ode_solve(gen, EXP_SAFE, rho, grid), 1e-9),
        (solvers.volterra_solve(gen, EXP_SAFE, rho, grid), 1e-6),
        (series, 1e-5),
        (solvers.subordination_solve(EXP_SAFE, basis, rho, grid), 1e-4),
    ):
        assert np.max(np.abs(states - closed)) < tol


def test_qutrit_routes_agree_fractional_kernel():
    from ctqrw.engine import series_solution
    from ctqrw.kernels import waiting_from_kernel

    emap, gen, basis, rho, grid = qutrit_problem()
    series, _ = series_solution(rho, emap, waiting_from_kernel(FRAC_HALF), grid)
    subordination = solvers.subordination_solve(FRAC_HALF, basis, rho, grid)
    assert np.max(np.abs(subordination - series)) < 1e-5
    volterra = solvers.volterra_solve(gen, FRAC_HALF, rho, grid)
    assert np.max(np.abs(volterra - series)) < 1e-4
    with pytest.raises(UnsupportedKernelError):
        solvers.closed_form_solve(basis, FRAC_HALF, rho, grid)
