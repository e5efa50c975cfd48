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


def test_telegraph_h_is_exactly_one_at_rate_zero():
    t = np.linspace(0.0, 300.0, 400)
    h = telegraph_h(t, np.array([0.0, 0.5, 0.0 + 0.0j])[:, None], 2.0, 0.75)
    assert np.all(h[[0, 2]] == 1.0) and np.all(h[1, 1:] < 1.0)


def test_telegraph_h_at_huge_times_is_finite_without_warnings():
    # the small-argument series is formed only where it is used: z * z of a
    # huge oscillatory z would overflow (an error under the warning filter)
    t = np.geomspace(1e150, 1e305, 6)
    h = telegraph_h(t, np.array([1.0 - 0.5j, 0.3, 1.0 + 2.0j])[:, None], 2.0, 0.75)
    assert np.all(np.isfinite(h)) and np.max(np.abs(h)) < 1e-300


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


@pytest.mark.parametrize("lam", [2.0, 1.0, 0.5])
def test_telegraph_h_slow_exponent_against_mpmath(telegraph_mp, lam):
    # gamma t / 2 reaches 5e6 at 10 T: forming the slow exponent as
    # t (Phi - gamma) / 2 cancelled to 3e-10 relative; the closed form
    # 2 lam A / (gamma + Phi) keeps it to rounding
    import mpmath

    kernel = ExponentialKernel(amplitude=1e-6, decay=1.0)
    grid = np.linspace(0.0, 10.0 * kernel.time_scale, 41)
    got = kernel.decay_factor(lam, grid)
    with mpmath.workdps(50):
        ref = np.array([float(telegraph_mp(t, lam, 1.0, 1e-6)) for t in grid])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_telegraph_h_array_rate_equals_scalar_calls():
    t = np.array([0.0, 0.3, 2.0, 40.0, 300.0])
    lam = np.array([0.0, 0.5, 1.0 + 0.5j, 2.0 - 3.0j, 1.0 + 1e-9, 7.0])
    got = telegraph_h(t, lam[:, None], 2.0, 1.0)
    assert got.shape == (lam.size, t.size)
    for row, rate in zip(got, lam):
        assert np.array_equal(row, telegraph_h(t, rate, 2.0, 1.0).astype(complex))


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
    scale = kernel.time_scale
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


def test_volterra_step_far_beyond_the_kernel_memory_stays_finite():
    # gamma h = 810 (a 2-point grid to 10 T): the scaled kernel moments stay
    # finite, and the one step is the linear product rule
    # y1 = (I - b1 G)^-1 (I + (b0 - b1) G) y0 with
    # b_p = h int_0^1 R((1 - theta) h) theta^p dtheta, R(x) = (A/g)(1 - e^{-g x})
    import mpmath

    gen, _ = depol_basis()
    a_eps, g, h = 1.0, 9.0, 90.0
    kern = ExponentialKernel(amplitude=a_eps, decay=g)
    states = solvers.volterra_solve(gen, kern, PLUS_X, [0.0, h])
    assert np.all(np.isfinite(states))
    def moment(p):
        return h * mpmath.quad(lambda th: (a_eps / g) * -mpmath.expm1(-g * (1 - th) * h) * th**p, [0, 1])

    b0, b1 = float(moment(0)), float(moment(1))
    y0 = PLUS_X.matrix.T.reshape(-1)  # column stacking
    y1 = np.linalg.solve(np.eye(4) - b1 * gen.matrix, y0 + (b0 - b1) * gen.matrix @ y0)
    assert np.max(np.abs(states[1] - y1.reshape(2, 2).T)) < 1e-12


def test_volterra_nan_trace_fails_the_drift_check():
    gen, _ = depol_basis()
    rho = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(UnstableStepError, match="nan"):
        solvers.volterra_solve(gen, EXP_SAFE, rho, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize(
    "grid",
    [[0.0, np.inf], [0.0, np.nan], [0.0, 1.0, np.inf], np.append(np.linspace(0.0, 1.0, 5), np.nan)],
    ids=["inf-end", "nan-end", "inf-after-step", "nan-after-linspace"],
)
def test_solvers_refuse_nonfinite_grids(time_budget, grid):
    from ctqrw.errors import BadParametersError

    gen, basis = depol_basis()
    calls = [
        lambda: solvers.volterra_solve(gen, MARKOV, PLUS_X, grid),
        lambda: solvers.volterra_solve(gen, EXP_SAFE, PLUS_X, grid),
        lambda: solvers.volterra_solve(gen, FRAC_HALF, PLUS_X, grid),
        lambda: solvers.telegraph_ode_solve(gen, EXP_SAFE, PLUS_X, grid),
        lambda: solvers.closed_form_solve(basis, MARKOV, PLUS_X, grid),
        lambda: solvers.subordination_solve(FRAC_HALF, basis, PLUS_X, grid),
    ]
    for call in calls:
        with time_budget(5.0), pytest.raises(BadParametersError, match="finite"):
            call()


def test_uniform_solvers_keep_refusing_uneven_grids():
    from ctqrw.errors import BadParametersError

    gen, _ = depol_basis()
    for grid in ([0.0], [0.5, 1.0, 1.5], [0.0, 1.0, 3.0], [0.0, -1.0, -2.0]):
        with pytest.raises(BadParametersError):
            solvers.volterra_solve(gen, MARKOV, PLUS_X, grid)
        with pytest.raises(BadParametersError):
            solvers.telegraph_ode_solve(gen, EXP_SAFE, PLUS_X, grid)


def _per_step_volterra(gen, kernel, y0, grid):
    """O(n^2) oracle: the product-integration rules with their history
    recomputed in full at every step (one weight vector per step)."""
    from scipy.special import gammaln

    h = grid[1] - grid[0]
    n = grid.size - 1
    g_mat = gen.matrix
    eye = np.eye(g_mat.shape[0])
    if isinstance(kernel, FractionalKernel):
        alpha, a_amp = kernel.alpha, kernel.amplitude
        n_subtract = max(1, int(np.ceil(2.0 / alpha)) - 1)
        m_arr = np.arange(n, dtype=float)
        up, dn = (m_arr + 1.0) ** alpha, m_arr**alpha
        d0 = h**alpha * (up - dn) / alpha
        d1 = h**alpha * (
            (m_arr + 1.0) * (up - dn) / alpha
            - ((m_arr + 1.0) ** (alpha + 1.0) - m_arr ** (alpha + 1.0)) / (alpha + 1.0)
        )
        c_pref = a_amp / np.exp(gammaln(alpha))
        c_vecs = [y0.astype(complex)]
        for k in range(1, n_subtract + 2):
            c_vecs.append(
                a_amp * (g_mat @ c_vecs[-1]) * np.exp(gammaln(1 + (k - 1) * alpha) - gammaln(1 + k * alpha))
            )
        t_pows = np.array([grid ** (k * alpha) for k in range(n_subtract + 2)])
        lhs_inv = np.linalg.inv(eye - c_pref * d1[0] * g_mat)
        phi = np.zeros((n + 1,) + y0.shape, dtype=complex)
        gphi = np.zeros_like(phi)
        for k in range(1, n + 1):
            conv = np.tensordot((d0 - d1)[:k][::-1], gphi[:k], axes=(0, 0))
            if k > 1:
                conv += np.tensordot(d1[1:k][::-1], gphi[1:k], axes=(0, 0))
            phi[k] = lhs_inv @ (t_pows[n_subtract + 1][k] * c_vecs[n_subtract + 1] + c_pref * conv)
            gphi[k] = g_mat @ phi[k]
        series = np.einsum("kt,kdr->tdr", t_pows[: n_subtract + 1].astype(complex), np.stack(c_vecs[:-1]))
        return series + phi
    b0, b1, b2 = solvers._regular_kernel_moments(kernel, h, n)
    w_first = np.stack([(b2 - 3 * b1 + 2 * b0) / 2, 2 * b1 - b2, (b2 - b1) / 2])
    w_second = np.stack([(b2 - b1) / 2, b0 - b2, (b2 + b1) / 2])
    y = np.zeros((n + 1,) + y0.shape, dtype=complex)
    y[0] = y0
    gy = np.zeros_like(y)
    gy[0] = g_mat @ y[0]
    for k in range(1, n + 1):
        w = np.zeros(k + 1)
        if k == 1:
            w[0], w[1] = b0[0] - b1[0], b1[0]
        else:
            # quadratic pairs (2i, 2i+1, 2i+2) over cells 0 .. n_paired - 1
            n_paired = k if k % 2 == 0 else k - 1
            for i in range(n_paired // 2):
                for p in range(3):
                    w[2 * i + p] += w_first[p][k - 1 - 2 * i] + w_second[p][k - 2 - 2 * i]
            if k % 2 == 1:  # trailing cell k-1 through the backward pair
                for p in range(3):
                    w[k - 2 + p] += w_second[p][0]
        y[k] = np.linalg.solve(eye - w[k] * g_mat, y[0] + np.tensordot(w[:k], gy[:k], axes=(0, 0)))
        gy[k] = g_mat @ y[k]
    return y


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "kernel",
    [
        FractionalKernel(amplitude=1.0, alpha=0.5),
        FractionalKernel(amplitude=1.0, alpha=0.9),
        EXP_SAFE,
        LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0), scale=0.75 / 2.0),
    ],
    ids=["fractional-0.5", "fractional-0.9", "exponential", "laplace"],
)
def test_volterra_blocked_history_matches_per_step_sums(kernel, dim):
    # the blocked Toeplitz solve reproduces the per-step rule across block
    # edges: the fractional rule solves steps 1 .. n, B per block; the
    # regular rule solves steps 2 .. n in (even, odd) pairs, B pairs per
    # block, with a padded last pair when n is even
    from ctqrw.quantum import vec
    from helpers import random_density, random_kraus_map

    rng = np.random.default_rng(dim)
    gen = lindblad_from_kraus(random_kraus_map(dim, 2, rng))
    batch = np.stack([random_density(dim, rng).matrix for _ in range(2)])
    y0 = np.stack([vec(b) for b in batch], axis=1)
    block = solvers._BLOCK
    edges = (block - 1, block, block + 1, block + 2, 2 * block, 2 * block + 1, 2 * block + 2, 2 * block + 3)
    for n in (1, 2, 3, 4, 5) + edges + (4 * block + 3,):
        grid = np.linspace(0.0, 5.0, n + 1)
        states = solvers.volterra_solve(gen, kernel, batch, grid)
        oracle = solvers._unvec_trajectories(_per_step_volterra(gen, kernel, y0, grid), dim)
        err = np.max(np.abs(states - oracle)) / np.max(np.abs(oracle))
        assert err < 1e-12, (n, err)


def test_volterra_blocked_solve_matches_per_step_sums_at_intrinsic_shape():
    # a qutrit batch at the 2000 steps to 10 T of the benchmark's intrinsic job
    from ctqrw.quantum import vec
    from helpers import random_density, random_kraus_map

    rng = np.random.default_rng(2000)
    gen = lindblad_from_kraus(random_kraus_map(3, 2, rng))
    batch = np.stack([random_density(3, rng).matrix for _ in range(2)])
    y0 = np.stack([vec(b) for b in batch], axis=1)
    grid = np.linspace(0.0, 10.0 * FRAC_HALF.time_scale, 2001)
    states = solvers.volterra_solve(gen, FRAC_HALF, batch, grid)
    oracle = solvers._unvec_trajectories(_per_step_volterra(gen, FRAC_HALF, y0, grid), 3)
    assert np.max(np.abs(states - oracle)) / np.max(np.abs(oracle)) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_volterra_fractional_long_horizon_keeps_second_order_error(alpha):
    # 4000 steps of h = 0.02 T to 80 T: 16 blocks of the Toeplitz solve, and
    # the O(h^2) error stays flat (measured 4.5e-6 to 1.0e-5 at this step)
    gen, basis = depol_basis()
    kernel = FractionalKernel(amplitude=1.0, alpha=alpha)
    grid = np.linspace(0.0, 80.0 * kernel.time_scale, 4001)
    states = solvers.volterra_solve(gen, kernel, PLUS_X, grid)
    exact = solvers.closed_form_solve(basis, kernel, PLUS_X, grid)
    assert np.max(np.abs(states - exact)) < 2e-5


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


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
def test_fractional_talbot_decay_matches_series_at_complex_rates(alpha):
    # h_lam(t) = E_alpha(-lam t^alpha) at the complex rates of a random
    # channel, against the power series summed at 40 digits
    from helpers import mittag_leffler_series, random_kraus_map

    gen = lindblad_from_kraus(random_kraus_map(3, 2, np.random.default_rng(3)))
    rates = damping_basis(gen).rates
    rates = rates[np.abs(rates) > 1e-12]
    assert rates.size == 8 and np.all(np.abs(rates.imag) > 1e-6)
    times = np.linspace(0.1, 5.0, 12)

    kernel = FractionalKernel(amplitude=1.0, alpha=alpha)
    for lam in rates:
        got = kernel.talbot_decay_factor(lam, times)
        expected = np.array([mittag_leffler_series(alpha, lam * t**alpha) for t in times])
        assert np.max(np.abs(got - expected)) < 1e-10, lam


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


@pytest.mark.parametrize("alpha", [0.75, 0.8, 0.9, 0.97])
def test_subordination_overflow_raises_instead_of_nan(alpha):
    # for alpha > 1/2, exp(-tau s/Ktilde(s)) overflows on the Talbot
    # contour's left arm; the density must say so, not return NaN
    kern = FractionalKernel(amplitude=1.0, alpha=alpha)
    with pytest.raises(SubordinationUnavailableError, match=f"alpha={alpha}"):
        solvers.subordination_pdf(kern, 1.0, np.linspace(0.0, 20.0, 50))


@pytest.mark.parametrize("model", [Depolarizing(), Thermal(kappa=0.75, p_up=0.25, p_down=0.75)])
@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.75, 0.9, 0.97, 0.99, 1.0])
def test_subordination_matches_closed_form_at_every_alpha(model, alpha):
    # the Laplace-domain sectors need no internal-time density, so alpha
    # where the density is refused is served too
    kern = FractionalKernel(amplitude=1.0, alpha=alpha)
    basis = damping_basis(lindblad_from_kraus(qubit_kraus(model)))
    grid = np.linspace(0.0, 10.0 * kern.time_scale, 200)
    states = solvers.subordination_solve(kern, basis, PLUS_X, grid)
    closed = solvers.closed_form_solve(basis, kern, PLUS_X, grid)
    assert np.max(np.abs(states - closed)) < 1e-9


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


def test_subordination_solve_is_one_inversion(monkeypatch):
    # the eight complex decaying rates of a random qutrit channel share one
    # laplace.invert call
    from ctqrw import laplace

    calls = []
    invert = laplace.invert

    def counted(fhat, t):
        calls.append(np.size(t))
        return invert(fhat, t)

    monkeypatch.setattr(laplace, "invert", counted)
    _, _, basis, rho, grid = qutrit_problem()
    solvers.subordination_solve(FRAC_HALF, basis, rho, grid)
    assert calls == [grid.size - 1]


@pytest.mark.parametrize("kernel", [MARKOV, EXP_SAFE, FRAC_HALF], ids=["markov", "exp", "frac"])
def test_identity_map_gives_constant_states(kernel):
    # every damping rate is zero: the closed route's family is all lam = 0,
    # the subordination route's decaying family is empty
    from ctqrw.quantum import KrausMap

    basis = damping_basis(lindblad_from_kraus(KrausMap(operators=(np.eye(3, dtype=complex),))))
    assert np.all(basis.rates == 0)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho[0, 2], rho[2, 0] = 0.1j, -0.1j
    grid = np.linspace(0.0, 10.0, 21)
    for solve in (solvers.closed_form_solve, lambda b, k, r, g: solvers.subordination_solve(k, b, r, g)):
        states = solve(basis, kernel, rho, grid)
        assert np.max(np.abs(states - rho[None])) < 1e-12


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
    from helpers import random_density, random_kraus_map

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
    # the complex rates take the Talbot decay factors of the closed route
    closed = solvers.closed_form_solve(basis, FRAC_HALF, rho, grid)
    assert np.max(np.abs(closed - series)) < 1e-5
