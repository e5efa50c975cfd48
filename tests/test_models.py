"""Qubit reservoirs, Fock-space walk, intrinsic decoherence."""

import numpy as np
import pytest
import scipy.linalg

from ctqrw import engine, laplace, solvers
from ctqrw.errors import BadMomentsError, BadParametersError, DangerousKernelError, NotADistributionError
from ctqrw.kernels import (
    ExponentialKernel,
    FractionalKernel,
    LaplaceKernel,
    MarkovianKernel,
    renewal_mean_count,
    waiting_from_kernel,
)
from ctqrw.models import (
    DeltaPhase,
    Dephasing,
    Depolarizing,
    ExponentialPhase,
    GaussianJumps,
    LevyJumps,
    LogFormalPhase,
    PointMassJumps,
    SpectrumModel,
    Thermal,
    WignerWalkConfig,
    displacement_operator,
    fourier_mode_rate,
    intrinsic_decoherence,
    ladder_operators,
    milburn_generator,
    positive_stable,
    qubit_closed_solution,
    qubit_kraus,
    second_order_generator,
    wigner_ctrw,
)
from ctqrw.quantum import (
    KrausMap,
    damping_basis,
    linear_entropy,
    lindblad_from_kraus,
    make_density,
    mixture_generator,
    vec,
)
from ctqrw.seeding import MARK_LANE, uniforms
from ctqrw.special import mittag_leffler

PLUS_X = make_density(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
EXC = make_density(np.diag([1.0, 0.0]))
GRID = np.linspace(0.0, 20.0, 201)

EXP_SAFE = ExponentialKernel(amplitude=0.75, decay=2.0)
FRAC_HALF = FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5)
MARKOV = MarkovianKernel(rate=0.5)


# -- qubit closed solutions ---------------------------------------------------


def test_depolarizing_g_at_zero():
    sol = qubit_closed_solution(Depolarizing(), EXP_SAFE, PLUS_X, GRID)
    assert sol.g["g_I"][0] == pytest.approx(1.0, abs=1e-12)
    for key in ("g_x", "g_y", "g_z"):
        assert sol.g[key][0] == pytest.approx(0.0, abs=1e-12)


def test_depolarizing_g_trace_identity():
    for kernel in (MARKOV, EXP_SAFE, FRAC_HALF, ExponentialKernel(amplitude=0.25, decay=0.5)):
        sol = qubit_closed_solution(Depolarizing(), kernel, PLUS_X, GRID)
        total = sol.g["g_I"] + sol.g["g_x"] + sol.g["g_y"] + sol.g["g_z"]
        assert np.max(np.abs(total - 1.0)) < 1e-10


def test_depolarizing_determinant_never_negative():
    # paper's positivity claim: det rho(t) >= 0 for any parameters
    for kernel in (ExponentialKernel(amplitude=0.25, decay=0.5), ExponentialKernel(amplitude=1.0, decay=0.5)):
        sol = qubit_closed_solution(Depolarizing(), kernel, PLUS_X, GRID)
        dets = np.linalg.det(sol.states).real
        assert dets.min() > -1e-12


def test_depolarizing_closed_matches_volterra_route():
    # an independent quadrature oracle for the closed formulas
    gen = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    grid = np.linspace(0.0, 10.0, 2001)
    for kernel in (MARKOV, EXP_SAFE):
        sol = qubit_closed_solution(Depolarizing(), kernel, PLUS_X, grid)
        vol = solvers.volterra_solve(gen, kernel, PLUS_X, grid)
        assert np.max(np.abs(sol.states - vol)) < 1e-5


def test_depolarizing_fractional_rates():
    # Phi_pop = 2 A_alpha, Phi_coh = A_alpha
    amp = 1 / np.sqrt(2)
    sol = qubit_closed_solution(Depolarizing(), FRAC_HALF, EXC, GRID)
    assert np.max(np.abs(sol.p_up - (0.5 + 0.5 * mittag_leffler(0.5, 2 * amp * np.sqrt(GRID))))) < 1e-12
    sol = qubit_closed_solution(Depolarizing(), FRAC_HALF, PLUS_X, GRID)
    assert np.max(np.abs(sol.coherence_up.real - 0.5 * mittag_leffler(0.5, amp * np.sqrt(GRID)))) < 1e-12


def test_depolarizing_markovian_limit_of_exponential():
    # gamma, A -> inf with A/gamma = A1: h -> exp(-lam A1 t)
    a1 = 0.5
    big = 4000.0
    kern = ExponentialKernel(amplitude=a1 * big, decay=big)
    sol = qubit_closed_solution(Depolarizing(), kern, EXC, GRID)
    expected = 0.5 + 0.5 * np.exp(-2 * a1 * GRID)
    assert np.max(np.abs(sol.p_up - expected)) < 2e-3


def test_depolarizing_general_px_rejected_in_closed_form():
    from ctqrw.errors import UnsupportedKernelError

    with pytest.raises(UnsupportedKernelError):
        qubit_closed_solution(Depolarizing(p_x=0.3, p_y=0.7), EXP_SAFE, PLUS_X, GRID)


def test_dephasing_populations_frozen_and_cp():
    sol = qubit_closed_solution(Dephasing(), EXP_SAFE, make_density(np.diag([0.3, 0.7])), GRID)
    assert np.max(np.abs(sol.p_up - 0.3)) < 1e-14
    # Phi_d = sqrt(gamma^2 - 8 A_eps); |h| <= 1 makes the map CP always
    gen = lindblad_from_kraus(qubit_kraus(Dephasing()))
    basis = damping_basis(gen)
    for kernel in (EXP_SAFE, ExponentialKernel(amplitude=0.25, decay=0.5)):
        def route(batch, _k=kernel):
            return solvers.closed_form_solve(basis, _k, batch, GRID)
        defects = solvers.cp_defect_over_time(route, 2, GRID)
        assert defects.min() > -1e-9


def test_dephasing_coherence_rate():
    # lam_coh = 2: h(t, sqrt(gamma^2 - 8 A))
    sol = qubit_closed_solution(Dephasing(), EXP_SAFE, PLUS_X, GRID)
    expected = 0.5 * solvers.telegraph_h(GRID, 2.0, 2.0, 0.75)
    assert np.max(np.abs(sol.coherence_up - expected)) < 1e-12


def test_thermal_equilibrium_and_rates():
    model = Thermal(kappa=0.75, p_up=0.25, p_down=0.75)
    sol = qubit_closed_solution(model, EXP_SAFE, EXC, GRID)
    assert sol.p_up[-1] == pytest.approx(0.25, abs=2e-3)
    # Phi_pop = sqrt(gamma^2 - 4 kappa A); Phi_coh = sqrt(gamma^2 - 2(kappa+4 kt)A)
    kt = model.kappa_tilde
    h_pop = solvers.telegraph_h(GRID, model.kappa, 2.0, 0.75)
    assert np.max(np.abs(sol.h_pop - h_pop)) < 1e-12
    lam_coh = (model.kappa + 4 * kt) / 2.0
    h_coh = solvers.telegraph_h(GRID, lam_coh, 2.0, 0.75)
    assert np.max(np.abs(sol.h_coh - h_coh)) < 1e-12


def test_thermal_fractional_rate_relation():
    # extracted decay of log h obeys Phi_coh^(a) = (kappa/2 + 2 kt) A_alpha
    model = Thermal(kappa=0.6, p_up=0.2, p_down=0.8)
    sol = qubit_closed_solution(model, FRAC_HALF, PLUS_X, GRID)
    lam_coh = model.kappa / 2.0 + 2.0 * model.kappa_tilde
    expected = mittag_leffler(0.5, lam_coh * FRAC_HALF.amplitude * np.sqrt(GRID))
    assert np.max(np.abs(sol.h_coh - expected)) < 1e-12


def test_thermal_positivity_loss_fig4_parameters():
    # p_down=1, kappa=0.75: gamma=1, A=1 loses state positivity; gamma=4,
    # A=4 stays positive with delta in [0, 1/2]
    model = Thermal(kappa=0.75, p_up=0.0, p_down=1.0)
    grid = np.linspace(0.0, 10.0, 201)
    bad = qubit_closed_solution(model, ExponentialKernel(amplitude=1.0, decay=1.0), PLUS_X, grid)
    deltas = np.array([linear_entropy(s) for s in bad.states])
    assert deltas.min() < -1e-3
    good = qubit_closed_solution(model, ExponentialKernel(amplitude=4.0, decay=4.0), PLUS_X, grid)
    deltas = np.array([linear_entropy(s) for s in good.states])
    assert deltas.min() > -1e-10
    assert deltas.max() < 0.5 + 1e-10


def test_thermal_stationarity_under_all_kernels():
    model = Thermal(kappa=0.6, p_up=0.2, p_down=0.8)
    eq = make_density(np.diag([0.2, 0.8]))
    for kernel in (MARKOV, EXP_SAFE, FRAC_HALF):
        sol = qubit_closed_solution(model, kernel, eq, GRID)
        assert np.max(np.abs(sol.states - eq.matrix[None])) < 1e-9


# -- second-order generator and displacement walk -----------------------------


def test_second_order_generator_zero_moments():
    gen = second_order_generator(0.0, 0.0, 0.0, 8)
    assert np.max(np.abs(gen.matrix)) < 1e-14


def test_second_order_generator_pure_drift():
    beta = 0.3 + 0.2j
    gen = second_order_generator(beta, beta**2 * 0, abs(beta) ** 2 * 0 + abs(beta) ** 2, 6)
    # drift part alone: [beta a^dag - beta* a, rho]; check on a coherent-ish state
    a, adag = ladder_operators(6)
    comm_op = beta * adag - np.conj(beta) * a
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    drift = comm_op @ rho - rho @ comm_op
    # remove the diffusive part (mean_abs_sq = |beta|^2 contributes too)
    gen_drift_only = second_order_generator(beta, 0.0, abs(beta) ** 2, 6)
    from ctqrw.quantum import dissipator

    diff = abs(beta) ** 2 * 0.5 * (dissipator(a) + dissipator(adag))
    resid = gen_drift_only.matrix - diff
    got = resid @ vec(rho)
    assert np.max(np.abs(got - vec(drift))) < 1e-12


def test_second_order_generator_matches_displacement_mixture():
    # +-beta0 point masses: <b>=0, <b^2>=beta0^2, <|b|^2>=|beta0|^2; the
    # mixture generator converges to the moment expansion at O(beta^4)
    dim = 24
    resids = []
    for beta0 in (0.2, 0.1):
        mix = mixture_generator(
            [(0.5, KrausMap(operators=(displacement_operator(b, dim),))) for b in (beta0, -beta0)]
        )
        approx = second_order_generator(0.0, beta0**2, beta0**2, dim)
        # compare on the low-excitation block, away from truncation
        block = np.ix_(range(dim // 2), range(dim // 2))
        resids.append(np.max(np.abs((mix.matrix - approx.matrix)[block])))
    assert resids[0] / resids[1] > 8.0  # fourth-order shrinkage
    assert resids[1] < 1e-2


def test_second_order_generator_infinite_temperature_is_cp():
    from ctqrw.quantum import exp_generator_to_kraus

    gen = second_order_generator(0.0, 0.0, 0.5, 10)
    emap = exp_generator_to_kraus(gen, 0.02)  # raises NotCPError if not CP
    assert len(emap.operators) >= 1


def test_bad_moments_rejected():
    with pytest.raises(BadMomentsError):
        second_order_generator(1.0, 0.0, 0.5, 8)  # <|b|^2> < |<b>|^2
    with pytest.raises(BadMomentsError):
        GaussianJumps(mean=0.0, mean_sq=2.0, mean_abs_sq=1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Depolarizing(p_x=np.nan, p_y=np.nan),
        lambda: Thermal(kappa=0.5, p_up=np.nan, p_down=np.nan),
        lambda: GaussianJumps(mean_abs_sq=np.nan),
        lambda: GaussianJumps(mean=np.inf, mean_sq=np.inf, mean_abs_sq=np.inf),
        lambda: PointMassJumps(beta0=complex(np.nan, 0.0)),
        lambda: LevyJumps(mu=1.0, sigma=np.nan),
        lambda: KrausMap(operators=(np.full((2, 2), np.nan),)),
        lambda: DeltaPhase(tau_b=np.nan),
        lambda: DeltaPhase(tau_b=np.inf),
        lambda: ExponentialPhase(tau_b=np.nan),
        lambda: ExponentialPhase(tau_b=-1.0),
        lambda: ExponentialPhase(tau_b=np.inf),
        lambda: LogFormalPhase(tau_b=0.0),
        lambda: LogFormalPhase(tau_b=np.nan),
    ],
    ids=[
        "depolarizing", "thermal", "gaussian-nan", "gaussian-inf", "point", "levy", "kraus",
        "delta-phase-nan", "delta-phase-inf", "exp-phase-nan", "exp-phase-negative",
        "exp-phase-inf", "log-phase-zero", "log-phase-nan",
    ],
)
def test_nonfinite_model_parameters_are_rejected(make):
    # NaN fails no `x < 0` test: these used to be accepted, and the jump
    # laws reached np.histogram's bare ValueError in wigner_ctrw
    with pytest.raises(BadParametersError):
        make()


def marks(law, seed, k, n):
    """The first `n` marks of realization `k` of the run seeded `seed`, as
    the Monte Carlo routes draw them."""
    return law.from_uniforms(uniforms(seed, k, np.arange(n), MARK_LANE, law.uniforms))


def test_positive_stable_laplace_transform():
    # Kanter draw: E exp(-s S) = exp(-s^a)
    for k, a in enumerate((0.25, 0.5, 0.75)):
        draws = positive_stable(a, uniforms(2024, k, np.arange(200_000), MARK_LANE, 2))
        for s in (0.3, 1.0, 3.0):
            emp = np.exp(-s * draws)
            err = emp.mean() - np.exp(-(s**a))
            se = emp.std(ddof=1) / np.sqrt(draws.size)
            assert abs(err) < 4 * se + 1e-4, (a, s)


def test_levy_characteristic_function_empirical():
    law = LevyJumps(mu=1.0, sigma=1.0)
    draws = marks(law, 2025, 0, 200_000)
    for k in (0.5 + 0.0j, 1.0j):
        emp = np.exp(1j * (k.real * draws.real + k.imag * draws.imag)).mean()
        assert abs(emp - law.characteristic(np.array([k]))[0]) < 5e-3


def test_gaussian_jumps_degenerate_and_point_like():
    point = GaussianJumps(mean=0.3 - 0.2j, mean_sq=(0.3 - 0.2j) ** 2, mean_abs_sq=0.13)
    assert np.allclose(marks(point, 2028, 0, 1000), 0.3 - 0.2j, rtol=0, atol=1e-7)
    real_line = GaussianJumps(mean=0.0, mean_sq=1.0, mean_abs_sq=1.0)
    draws = marks(real_line, 2028, 1, 100_000)
    assert np.max(np.abs(draws.imag)) < 1e-12
    assert draws.real.var() == pytest.approx(1.0, abs=0.02)
    tilted = GaussianJumps(mean=1.0 + 0.5j, mean_sq=(1.0 + 0.5j) ** 2 + 0.4j, mean_abs_sq=1.25 + 0.8)
    draws = marks(tilted, 2028, 2, 200_000)
    assert np.mean(draws) == pytest.approx(1.0 + 0.5j, abs=0.01)
    assert np.mean(draws**2) == pytest.approx(tilted.mean_sq, abs=0.02)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(tilted.mean_abs_sq, abs=0.02)


def test_fourier_mode_rates():
    law = LevyJumps(mu=1.0, sigma=1.0)
    assert fourier_mode_rate(law, 0.0) == pytest.approx(0.0)
    assert fourier_mode_rate(law, 2.0).real == pytest.approx(1 - np.exp(-2.0), abs=1e-12)
    # mu = 2 Levy equals the isotropic Gaussian at sigma^2 = <|b|^2>/4
    gauss = GaussianJumps(mean=0.0, mean_sq=0.0, mean_abs_sq=1.0)
    levy2 = LevyJumps(mu=2.0, sigma=0.5)
    k = np.array([0.7 + 0.4j, 1.5j, 2.0])
    assert np.allclose(fourier_mode_rate(gauss, k), fourier_mode_rate(levy2, k), atol=1e-12)


def test_gaussian_characteristic_of_correlated_jumps():
    # E exp(i Re(k conj b)) from the moments: Re b and Im b correlated
    law = GaussianJumps(mean=0.3 - 0.1j, mean_sq=0.4 + 0.3j, mean_abs_sq=1.2)
    k = np.array([0.7 + 0.4j, 1.5j, 2.0, -1.1 + 0.9j])
    c, p = 1.2 - abs(law.mean) ** 2, law.mean_sq - law.mean**2
    quad = (c + p.real) / 2 * k.real**2 + (c - p.real) / 2 * k.imag**2 + p.imag * k.real * k.imag
    phase = k.real * law.mean.real + k.imag * law.mean.imag
    assert np.allclose(law.characteristic(k), np.exp(1j * phase - 0.5 * quad), atol=1e-14)


def test_wigner_static_walkers():
    cfg = WignerWalkConfig(jumps=PointMassJumps(beta0=0.0), kernel=MARKOV, n_walkers=50)
    res = wigner_ctrw(cfg, np.linspace(0, 10, 11), base_seed=1, n0=0.25)
    assert np.max(np.abs(res.positions)) == 0.0
    assert np.allclose(res.n_estimate, 0.25)


def test_wigner_markovian_excitation_growth():
    cfg = WignerWalkConfig(
        jumps=GaussianJumps(mean_abs_sq=0.8), kernel=MarkovianKernel(rate=0.5), n_walkers=3000
    )
    grid = np.linspace(0.0, 20.0, 11)
    res = wigner_ctrw(cfg, grid, base_seed=7)
    expected = 0.8 * 0.5 * grid
    se = 0.8 * np.sqrt(0.5 * grid / cfg.n_walkers)  # Poisson count noise
    assert np.all(np.abs(res.n_estimate - expected) <= 3 * se + 1e-12)


def test_wigner_dangerous_kernel_refused():
    cfg = WignerWalkConfig(
        jumps=GaussianJumps(), kernel=ExponentialKernel(amplitude=1.0, decay=1.0), n_walkers=10
    )
    with pytest.raises(DangerousKernelError):
        wigner_ctrw(cfg, np.linspace(0, 5, 6), base_seed=1)


def test_wigner_levy_has_no_n_estimate():
    cfg = WignerWalkConfig(jumps=LevyJumps(mu=1.2), kernel=MARKOV, n_walkers=20)
    res = wigner_ctrw(cfg, np.linspace(0, 5, 6), base_seed=1)
    assert res.n_estimate is None


def test_wigner_levy_at_mu_two_estimates_like_its_gaussian():
    # mu = 2 samples b = 2 sigma g, so <|b|^2> = 4 sigma^2; the estimate
    # used to be None there
    sigma = 0.5
    grid = np.linspace(0.0, 5.0, 6)
    levy = WignerWalkConfig(jumps=LevyJumps(mu=2.0, sigma=sigma), kernel=MARKOV, n_walkers=50)
    gauss = WignerWalkConfig(jumps=GaussianJumps(mean_abs_sq=4 * sigma**2), kernel=MARKOV, n_walkers=50)
    got = wigner_ctrw(levy, grid, base_seed=3, n0=0.5).n_estimate
    assert np.array_equal(got, wigner_ctrw(gauss, grid, base_seed=3, n0=0.5).n_estimate)


def _stochastic_intrinsic(kernel):
    spectrum = SpectrumModel(levels=np.array([0.0, 1.0]), phase=DeltaPhase(tau_b=0.5))
    return intrinsic_decoherence(spectrum, kernel, PLUS_X, GRID, route="stochastic", n_realizations=10)


def _walk(kernel):
    return wigner_ctrw(WignerWalkConfig(jumps=GaussianJumps(), kernel=kernel, n_walkers=10), GRID, base_seed=1)


# every call that needs the dual waiting law, which kernel.waiting() alone grants
GATE_SITES = {
    "waiting_from_kernel": waiting_from_kernel,
    "wigner_ctrw": _walk,
    "intrinsic-stochastic": _stochastic_intrinsic,
    "renewal_mean_count": lambda kernel: renewal_mean_count(kernel, 1.0),
    "subordination_solve": lambda kernel: solvers.subordination_solve(
        kernel, damping_basis(lindblad_from_kraus(qubit_kraus(Depolarizing()))), PLUS_X, GRID
    ),
    "subordination_pdf": lambda kernel: solvers.subordination_pdf(kernel, 1.0, 1.0),
}
DANGEROUS = {
    "exponential": ExponentialKernel(amplitude=1.0, decay=1.0),
    "laplace": LaplaceKernel(transform=lambda u: 1.0 / (u + 1.0)),
}


@pytest.mark.parametrize("kernel", DANGEROUS.values(), ids=DANGEROUS.keys())
@pytest.mark.parametrize("site", GATE_SITES.values(), ids=GATE_SITES.keys())
def test_every_gate_site_refuses_a_dangerous_kernel(site, kernel):
    assert issubclass(NotADistributionError, DangerousKernelError)
    with pytest.raises(DangerousKernelError) as exc:
        site(kernel)
    assert exc.value.witness


@pytest.mark.parametrize("run", [_walk, _stochastic_intrinsic], ids=["wigner", "intrinsic-stochastic"])
def test_monte_carlo_inverts_a_laplace_kernel_density_once(monkeypatch, run):
    # the gate probes the kernel and inverts its density once; classifying
    # first, then asking for the waiting law, inverted the density twice
    inverted, invert = [], laplace.invert

    def counting_invert(fhat, t):
        inverted.append(np.size(t))
        return invert(fhat, t)

    monkeypatch.setattr(laplace, "invert", counting_invert)
    run(LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)))
    assert inverted.count(4000) == 1


def test_walk_positions_reuse_the_walks_waiting_law(monkeypatch):
    # positions and the radial histogram draw from the waiting law that
    # wigner_ctrw built: asking the kernel again probed and inverted twice
    inverted, invert = [], laplace.invert

    def counting_invert(fhat, t, poles=None):
        inverted.append(np.size(t))
        return invert(fhat, t, poles=poles)

    monkeypatch.setattr(laplace, "invert", counting_invert)
    walk = _walk(LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)))
    assert walk.positions.shape == (GRID.size, 10) and walk.radial_bins.size == 65
    assert inverted == [4000]


def test_wigner_matches_second_order_volterra():
    # cross-check: truncated-Fock <a^dag a> under the second-order generator
    # vs the walker estimate, small <|b|^2>
    mean_abs = 0.05
    fock = 24
    kern = MarkovianKernel(rate=1.0)
    grid = np.linspace(0.0, 8.0, 33)
    cfg = WignerWalkConfig(jumps=GaussianJumps(mean_abs_sq=mean_abs), kernel=kern, n_walkers=4000)
    res = wigner_ctrw(cfg, grid, base_seed=11)
    gen = second_order_generator(0.0, 0.0, mean_abs, fock)
    rho0 = np.zeros((fock, fock), dtype=complex)
    rho0[0, 0] = 1.0
    states = solvers.volterra_solve(gen, kern, rho0, grid)
    a, adag = ladder_operators(fock)
    n_op = adag @ a
    n_det = np.einsum("kij,ji->k", states, n_op).real
    # leakage monitor: top two levels stay empty
    top = np.abs(states[-1, fock - 2 :, fock - 2 :]).max()
    assert top < 1e-6
    count_var = res.mean_counts[-1] / cfg.n_walkers
    se = mean_abs * np.sqrt(count_var) * 3 + 3e-3
    assert np.max(np.abs(res.n_estimate - n_det)) < se


# -- intrinsic decoherence ----------------------------------------------------


SPECTRUM3 = SpectrumModel(levels=np.array([0.0, 1.0, 2.5]), phase=DeltaPhase(tau_b=0.7))


def test_intrinsic_rates_structure():
    rates = SPECTRUM3.rates()
    assert np.allclose(np.diag(rates), 0.0)
    om = 1.0 - 2.5
    assert rates[1, 2] == pytest.approx(1 - np.exp(-1j * om * 0.7))


def test_intrinsic_zero_frequency_constant():
    spec = SpectrumModel(levels=np.array([1.0, 1.0]), phase=DeltaPhase(tau_b=0.7))
    rho0 = make_density(0.5 * np.ones((2, 2)))
    res = intrinsic_decoherence(spec, MARKOV, rho0, GRID)
    assert np.max(np.abs(res.states - rho0.matrix[None])) < 1e-12


def test_intrinsic_preserves_populations():
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    for kernel in (MARKOV, EXP_SAFE, FRAC_HALF):
        res = intrinsic_decoherence(SPECTRUM3, kernel, rho0, np.linspace(0, 10, 101))
        diags = np.einsum("kii->ki", res.states)
        assert np.max(np.abs(diags - 1 / 3)) < 1e-7


def test_intrinsic_milburn_reduction():
    # Delta phases + Markovian kernel reproduce the Milburn equation
    tau_a = 1.0
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    grid = np.linspace(0.0, 10.0, 101)
    res = intrinsic_decoherence(SPECTRUM3, MarkovianKernel(rate=1 / tau_a), rho0, grid)
    gen = milburn_generator(SPECTRUM3, tau_a)
    for k in (10, 50, 100):
        exact = scipy.linalg.expm(grid[k] * gen) @ vec(rho0)
        assert np.max(np.abs(vec(res.states[k]) - exact)) < 1e-8


def test_intrinsic_exponential_phase_rate():
    spec = SpectrumModel(levels=np.array([0.0, 2.0]), phase=ExponentialPhase(tau_b=0.5))
    om = 2.0  # levels[1]-levels[0] -> omega_10 = 2, omega_01 = -2
    expected = 1j * (-om) * 0.5 / (1 + 1j * (-om) * 0.5)
    assert spec.rates()[0, 1] == pytest.approx(expected, abs=1e-14)


def test_intrinsic_log_formal_rate():
    spec = SpectrumModel(levels=np.array([0.0, 3.0]), phase=LogFormalPhase(tau_b=0.4))
    assert spec.rates()[0, 1] == pytest.approx(np.log(1 + 1j * (-3.0) * 0.4), abs=1e-14)
    with pytest.raises(BadParametersError):
        marks(spec.phase, 1, 0, 5)


def test_intrinsic_stochastic_route_matches_closed():
    spec = SpectrUM3 = SpectrumModel(levels=np.array([0.0, 1.0]), phase=DeltaPhase(tau_b=0.9))
    rho0 = make_density(0.5 * np.ones((2, 2)))
    grid = np.linspace(0.0, 6.0, 31)
    det = intrinsic_decoherence(spec, MARKOV, rho0, grid)
    sto = intrinsic_decoherence(
        spec, MARKOV, rho0, grid, route="stochastic", n_realizations=3000, base_seed=5
    )
    err = np.abs(sto.states[:, 0, 1] - det.states[:, 0, 1])
    assert err.max() < 4.0 / np.sqrt(3000)


def test_intrinsic_volterra_matches_closed_exponential_kernel():
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    grid = np.linspace(0.0, 8.0, 801)
    closed = intrinsic_decoherence(SPECTRUM3, EXP_SAFE, rho0, grid, route="closed")
    volt = intrinsic_decoherence(SPECTRUM3, EXP_SAFE, rho0, grid, route="volterra")
    assert np.max(np.abs(closed.states - volt.states)) < 1e-5


def test_intrinsic_closed_fractional_matches_mpmath():
    # rho_nm(t) = E_alpha(-gamma_nm A t^alpha) rho_nm(0) at the complex
    # rates of the delta phase; alpha = 1/2 has E(-x) = exp(x^2) erfc(x),
    # summed at 40 digits
    import mpmath

    spec = SpectrumModel(levels=np.array([0.0, 1.3, 2.9]), phase=DeltaPhase(tau_b=0.5))
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    grid = np.linspace(0.0, 10.0 * FRAC_HALF.time_scale, 2001)
    res = intrinsic_decoherence(spec, FRAC_HALF, rho0, grid, route="closed")
    rates = spec.rates()
    with mpmath.workdps(40):
        amp = mpmath.sqrt(mpmath.mpf(1) / 2)
        for n, m in ((0, 1), (0, 2), (1, 2)):
            gamma = mpmath.mpc(rates[n, m])
            exact = np.array(
                [complex(mpmath.exp(x * x) * mpmath.erfc(x))
                 for x in (gamma * amp * mpmath.sqrt(mpmath.mpf(t)) for t in grid)]
            )
            assert np.max(np.abs(res.states[:, n, m] - exact / 3)) < 1e-10, (n, m)
    # gamma_mn = conj gamma_nm: each conjugate pair is inverted once
    assert np.array_equal(res.states, np.conj(np.swapaxes(res.states, 1, 2)))
    assert np.array_equal(np.einsum("kii->ki", res.states), np.full((grid.size, 3), 1 / 3))


@pytest.mark.parametrize("kernel", [MARKOV, EXP_SAFE, FRAC_HALF], ids=["markov", "exp", "frac"])
def test_intrinsic_closed_route_is_one_decay_factor_call(monkeypatch, kernel):
    # the closed route evaluates every matrix element in one decay-factor
    # call and never falls back to the Volterra quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("the closed route called volterra_solve")

    calls = []
    original = type(kernel).decay_factor

    def counted(self, lam, t):
        calls.append(np.shape(lam))
        return original(self, lam, t)

    monkeypatch.setattr(solvers, "volterra_solve", refuse)
    monkeypatch.setattr(type(kernel), "decay_factor", counted)
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    intrinsic_decoherence(SPECTRUM3, kernel, rho0, np.linspace(0.0, 10.0, 101))
    assert calls == [(3, 3)]


def test_realization_my_mx_normalized_equality():
    # per-seed check: the normalized M_y realization equals the M_x one for
    # the equal-weight depolarizing walk (both collapse to zero at the
    # first event and stay there)
    from ctqrw.kernels import MittagLefflerWaiting

    bloch = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    rho0 = make_density(
        0.5
        * (
            np.eye(2)
            + bloch[0] * np.array([[0, 1], [1, 0]])
            + bloch[1] * np.array([[0, -1j], [1j, 0]])
            + bloch[2] * np.diag([1.0, -1.0])
        )
    )
    waiting = MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)
    grid = np.linspace(0.0, 20.0, 201)
    for seed in range(5):
        traj = engine.run_realization(rho0, qubit_kraus(Depolarizing()), waiting, grid, seed=seed)
        mx = traj.observables["M_x"] / bloch[0]
        my = traj.observables["M_y"] / bloch[1]
        assert np.max(np.abs(mx - my)) < 1e-12
