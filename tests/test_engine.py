"""Stochastic realizations, ensemble statistics, renewal probabilities."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from ctqrw import engine, seeding
from ctqrw.errors import (
    BadParametersError,
    CtqrwError,
    InversionError,
    TruncationError,
    UnsupportedKernelError,
)
from ctqrw.kernels import (
    EmpiricalWaiting,
    ExponentialKernel,
    ExponentialWaiting,
    HypoexponentialWaiting,
    LaplaceKernel,
    MemoryKernel,
    MittagLefflerWaiting,
    waiting_survival,
)
from ctqrw.models import Depolarizing, qubit_kraus
from ctqrw.quantum import KrausMap, make_density
from ctqrw.special import mittag_leffler

GRID = np.linspace(0.0, 20.0, 201)


def poisson_table(rate, t, n_max):
    n = np.arange(n_max + 1)[:, None]
    lam = rate * t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(n * np.where(lam > 0, np.log(lam), -np.inf) - lam - gammaln(n + 1))
    out[0, t == 0] = 1.0
    out[1:, t == 0] = 0.0
    return out


def test_realization_no_events_is_constant(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    # waiting time so long the first interval overshoots
    w = ExponentialWaiting(rate=1e-9)
    traj = engine.run_realization(plus_x_state, emap, w, GRID, seed=5)
    assert traj.event_times.size == 0
    assert np.allclose(traj.observables["M_x"], 1.0)


def test_depolarizing_realization_structure(plus_x_state):
    # after the first event M_x = 0 forever; M_z = (-1)^N(t) M_z(0)
    emap = qubit_kraus(Depolarizing())
    w = ExponentialWaiting(rate=1.0)
    rho0 = make_density(0.5 * (np.eye(2) + (np.array([[0, 1], [1, 0]]) + np.diag([1, -1])) / np.sqrt(2)))
    traj = engine.run_realization(rho0, emap, w, GRID, seed=7)
    assert traj.event_times.size > 0
    counts = np.searchsorted(traj.event_times, GRID, side="right")
    mz0 = rho0.matrix[0, 0].real - rho0.matrix[1, 1].real
    assert np.allclose(traj.observables["M_z"], mz0 * (-1.0) ** counts, atol=1e-12)
    after = counts > 0
    assert np.allclose(traj.observables["M_x"][after], 0.0, atol=1e-12)
    mx0 = (rho0.matrix[0, 1] + rho0.matrix[1, 0]).real
    assert np.allclose(traj.observables["M_x"][~after], mx0, atol=1e-12)


def test_realization_states_are_cp_images(rng, plus_x_state):
    emap = qubit_kraus(Depolarizing())
    w = HypoexponentialWaiting(r1=0.5, r2=1.5)
    for seed in range(20):
        traj = engine.run_realization(
            plus_x_state, emap, w, GRID, seed=seed, store_states=True
        )
        traces = np.einsum("kii->k", traj.states)
        assert np.max(np.abs(traces - 1.0)) < 1e-12
        eigs = np.linalg.eigvalsh((traj.states + np.conj(np.swapaxes(traj.states, 1, 2))) / 2)
        assert eigs.min() > -1e-12


def test_ensemble_reproducibility_and_mean(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    w = ExponentialWaiting(rate=0.5)
    s1 = engine.ensemble_average(plus_x_state, emap, w, GRID, 200, base_seed=3)
    s2 = engine.ensemble_average(plus_x_state, emap, w, GRID, 200, base_seed=3)
    assert np.array_equal(s1.observable_means["M_x"], s2.observable_means["M_x"])
    assert np.array_equal(s1.mean_state, s2.mean_state)
    # mean equals the plain average of the individual trajectories
    trajs = [engine.run_realization(plus_x_state, emap, w, GRID, seed=3, index=k) for k in range(200)]
    manual = np.sum(np.stack([t.observables["M_x"] for t in trajs]), axis=0) / 200
    assert np.array_equal(manual, s1.observable_means["M_x"])


def test_ensemble_identity_kraus_zero_stderr(plus_x_state):
    emap = KrausMap(operators=(np.eye(2, dtype=complex),))
    w = ExponentialWaiting(rate=1.0)
    stats = engine.ensemble_average(plus_x_state, emap, w, GRID, 50, base_seed=1)
    assert np.allclose(stats.observable_means["M_x"], 1.0)
    assert np.allclose(stats.observable_stderrs["M_x"], 0.0)


def test_ensemble_matches_markovian_decay(plus_x_state):
    # Poisson statistics: mean M_z(t) = e^{-2 A1 t} M_z(0)
    emap = qubit_kraus(Depolarizing())
    a1 = 0.5
    rho0 = make_density(np.diag([1.0, 0.0]))
    stats = engine.ensemble_average(
        rho0, emap, ExponentialWaiting(rate=a1), GRID, 10_000, base_seed=42
    )
    expected = np.exp(-2 * a1 * GRID)
    resid = np.abs(stats.observable_means["M_z"] - expected)
    bound = 3.0 * stats.observable_stderrs["M_z"]
    assert np.all(resid <= bound + 1e-12)


def test_stderr_scales_inverse_sqrt(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    w = ExponentialWaiting(rate=0.5)
    s1 = engine.ensemble_average(plus_x_state, emap, w, GRID, 500, base_seed=9)
    s2 = engine.ensemble_average(plus_x_state, emap, w, GRID, 2000, base_seed=9)
    mid = 20  # t = 2, where the survival probability is mid-range
    ratio = s1.observable_stderrs["M_x"][mid] / s2.observable_stderrs["M_x"][mid]
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_renewal_probabilities_poisson_oracle():
    # criterion-7 precursor: product convolution vs the closed form
    a1 = 0.5
    probs = engine.renewal_probabilities(ExponentialWaiting(rate=a1), 10, GRID)
    expected = poisson_table(a1, GRID, 10)
    assert np.max(np.abs(probs.table - expected)) < 1e-8


def test_renewal_probabilities_initial_point():
    probs = engine.renewal_probabilities(HypoexponentialWaiting(r1=0.5, r2=1.5), 5, GRID)
    assert probs.table[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs.table[1:, 0], 0.0, atol=1e-12)
    assert np.all(probs.table >= 0.0)
    assert np.all(probs.table <= 1.0 + 1e-12)


def test_renewal_probabilities_ml_survival():
    w = MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)
    probs = engine.renewal_probabilities(w, None, GRID)
    expected = mittag_leffler(0.5, (1 / np.sqrt(2)) * np.sqrt(GRID))
    assert np.max(np.abs(probs.table[0] - expected)) < 1e-6
    # normalization with the tail bound
    total = probs.table.sum(axis=0) + probs.tail
    assert np.max(np.abs(total - 1.0)) < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_renewal_first_count_against_mpmath(alpha):
    # amplitude 1: P_1(t) = x E_alpha'(-x) with x = t^alpha, and
    # E_alpha'(z) = sum_{k >= 1} k z^(k-1) / Gamma(alpha k + 1)
    import mpmath

    grid = np.linspace(0.0, 10.0, 101)
    probs = engine.renewal_probabilities(MittagLefflerWaiting(amplitude=1.0, alpha=alpha), 4, grid)
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        for k in (1, 3, 10, 40, 70, 100):
            x = mpmath.mpf(grid[k]) ** a
            terms = (j * (-x) ** (j - 1) / mpmath.gamma(a * j + 1) for j in range(1, 400))
            deriv = mpmath.fsum(terms)
            assert abs(probs.table[1, k] - float(x * deriv)) < 1e-10, grid[k]


def test_renewal_erlang_pairs_closed_form():
    # r1 = r2 = 1: the count is n while the Poisson(1) clock is at 2n or 2n + 1
    grid = np.linspace(0.0, 200.0, 401)
    probs = engine.renewal_probabilities(HypoexponentialWaiting(r1=1.0, r2=1.0), 150, grid)
    pois = poisson_table(1.0, grid, 301)
    assert np.max(np.abs(probs.table - (pois[0::2] + pois[1::2]))) < 1e-12


def test_mittag_leffler_alpha_one_is_poisson_at_long_times():
    # alpha = 1 is exponential waiting, whose generating-function poles
    # leave the Talbot contour at rate * t ~ 50
    grid = np.linspace(0.0, 100.0, 201)
    probs = engine.renewal_probabilities(MittagLefflerWaiting(amplitude=1.0, alpha=1.0), 160, grid)
    assert np.max(np.abs(probs.table - poisson_table(1.0, grid, 160))) < 1e-12


def test_renewal_unequal_rates_against_mpmath(telegraph_mp):
    # rates r1 ~ 2e-3 and r2 ~ 5 (ExponentialKernel(0.01, 5)): the count
    # generating function h_{1-z}(t), trapezoid on |z| = 1 at 40 digits
    import mpmath

    waiting = ExponentialKernel(amplitude=0.01, decay=5.0).waiting()
    times = np.array([500.0, 1200.0, 2000.0])
    table = waiting.renewal_table(times, 64)
    n_z = 512
    with mpmath.workdps(40):
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / n_z) for k in range(n_z)]
        for j, t in enumerate(times):
            gen = [telegraph_mp(t, 1 - z, waiting.r1 + waiting.r2, waiting.r1 * waiting.r2) for z in roots]
            for n in range(64):
                terms = (g * mpmath.conj(roots[k * n % n_z]) for k, g in enumerate(gen))
                ref = float(mpmath.fsum(terms).real / n_z)
                assert abs(table[n, j] - ref) < 1e-13, (t, n)


def count_law_reference(alpha, t, n):
    # amplitude 1, x = t^alpha: P_n(t) = (x^n / n!) E_alpha^(n)(-x)
    #   = sum_{k >= 0} C(k + n, n) (-1)^k x^(k + n) / Gamma(alpha (k + n) + 1)
    import mpmath

    with mpmath.workdps(150):
        a = mpmath.mpf(alpha)
        x = mpmath.mpf(t) ** a
        terms = (
            mpmath.binomial(k + n, n) * (-x) ** k * x**n / mpmath.gamma(a * (k + n) + 1)
            for k in range(700)
        )
        return float(mpmath.fsum(terms))


@pytest.mark.parametrize("alpha", [0.97, 0.99])
def test_mittag_leffler_near_one_at_long_times(alpha):
    # for alpha > 1/2 some generating-function poles s^alpha = z - 1 lie on
    # the principal sheet, above the Talbot contour once t ~ 30; the table
    # inverts them exactly
    grid = np.linspace(0.0, 100.0, 101)
    probs = engine.renewal_probabilities(MittagLefflerWaiting(amplitude=1.0, alpha=alpha), 200, grid)
    for k in (35, 60, 100):
        for n in (1, 5, 40, 100):
            assert abs(probs.table[n, k] - count_law_reference(alpha, grid[k], n)) < 1e-10, (k, n)


# the Markovian kernel K = 1 as a LaplaceKernel, which names no poles: its
# generating function 1/(s + 1 - z) has poles that leave the Talbot contour
# at long times, so the generic table must catch them by its check
_UNNAMED_POLES = LaplaceKernel(transform=lambda u: 1.0 + 0.0 * u)


def test_renewal_table_certifies_every_row():
    # at t = 42 the top rows are off by 4.7e-6 while each transform on the
    # circle inverts within the check, so the check must compare the rows
    # (each carries a factor rho^-n ~ 1e3)
    exact = ExponentialWaiting(rate=1.0).renewal_table(np.array([0.0, 22.0]), 64)
    generic = MemoryKernel.count_table(_UNNAMED_POLES, np.array([0.0, 22.0]), 64)
    assert np.max(np.abs(generic - exact)) < 1e-9
    with pytest.raises(InversionError, match="t = 42"):
        MemoryKernel.count_table(_UNNAMED_POLES, np.array([0.0, 42.0]), 64)


def test_windowed_renewal_table_certifies_like_per_time():
    # a window of times shares the contours of its latest time; a grid must
    # be as accurate as its points one by one, and fail where they fail
    grid = np.linspace(0.0, 25.0, 200)
    generic = MemoryKernel.count_table(_UNNAMED_POLES, grid, 64)
    assert np.max(np.abs(generic - ExponentialWaiting(rate=1.0).renewal_table(grid, 64))) < 1e-9
    with pytest.raises(InversionError):
        MemoryKernel.count_table(_UNNAMED_POLES, np.linspace(0.0, 42.0, 200), 64)


def test_renewal_table_many_rows_on_few_points():
    # 3001 rows: each contour row carries 12,004 generating-function points
    waiting = MittagLefflerWaiting(amplitude=1.0, alpha=0.9)
    grid = np.array([0.0, 1.0, 5.0])
    many = engine.renewal_probabilities(waiting, 3000, grid)
    few = engine.renewal_probabilities(waiting, 20, grid)
    assert many.table.shape == (3001, 3)
    assert np.max(np.abs(many.table[:21] - few.table)) < 1e-9
    assert np.max(np.abs(many.tail)) < 1e-8


# the right-sized table against a 64-row one: where no contour misses a pole
# every row agrees to rounding (alpha = 0.9 to 20 T: 4e-11); missed poles
# (alpha > 1/2 at longer times) put a factor rho^-n on their terms, about 740
# in row 44 of a 46-row table against 116 of a 64-row one
_RIGHT_SIZED_CASES = {
    "alpha0.5": (MittagLefflerWaiting(amplitude=0.70710678118654752, alpha=0.5), 1e-10),
    "hypoexponential": (HypoexponentialWaiting(r1=0.5, r2=1.5), 1e-10),
    "alpha0.9": (MittagLefflerWaiting(amplitude=1.0, alpha=0.9), 1e-9),
}


@pytest.mark.parametrize("waiting, tol", _RIGHT_SIZED_CASES.values(), ids=_RIGHT_SIZED_CASES.keys())
def test_renewal_probabilities_table_is_right_sized(monkeypatch, waiting, tol):
    # end-point probes at 16, 32, ... rows, then one table at the first row
    # of the last probe that gets the tail
    grid = np.linspace(0.0, 20.0, 101)
    asked = []
    table = type(waiting).renewal_table

    def recorded(self, times, rows):
        asked.append((times.size, rows))
        return table(self, times, rows)

    monkeypatch.setattr(type(waiting), "renewal_table", recorded)
    probs = engine.renewal_probabilities(waiting, None, grid)
    probes = [16 * 2**k for k in range(len(asked) - 1)]
    assert asked == [(1, rows) for rows in probes] + [(grid.size, probs.n_max + 1)]
    wide = waiting.renewal_table(grid, 64)
    reached = np.flatnonzero(1.0 - np.cumsum(wide[:, -1]) < 1e-6)
    assert probs.n_max == reached[0] < 63
    assert probs.tail[-1] < 1e-6
    assert np.max(np.abs(probs.table - wide[: probs.n_max + 1])) < tol


def test_series_route_on_a_laplace_kernel_waiting_law(plus_x_state):
    # the tabulated dual law names the kernel it was inverted from, whose
    # count law the series route inverts; the same kernel in closed form is
    # the oracle
    from ctqrw import solvers
    from ctqrw.kernels import ExponentialKernel
    from ctqrw.quantum import damping_basis, lindblad_from_kraus

    emap = qubit_kraus(Depolarizing())
    waiting = LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)).waiting()
    states, _ = engine.series_solution(plus_x_state, emap, waiting, GRID, tol=1e-7)
    closed = solvers.closed_form_solve(
        damping_basis(lindblad_from_kraus(emap)), ExponentialKernel(0.75, 2.0), plus_x_state, GRID
    )
    assert np.max(np.abs(states - closed)) < 1e-5


def test_hand_built_empirical_waiting_has_no_series_route(plus_x_state):
    t = np.linspace(0.0, 20.0, 401)
    waiting = EmpiricalWaiting(times=t, pdf=np.exp(-t))
    with pytest.raises(UnsupportedKernelError):
        engine.series_solution(plus_x_state, qubit_kraus(Depolarizing()), waiting, GRID)


def test_series_solution_identity_map(plus_x_state):
    # the truncated series misses exactly the renewal tail mass
    emap = KrausMap(operators=(np.eye(2, dtype=complex),))
    states, bound = engine.series_solution(
        plus_x_state, emap, ExponentialWaiting(rate=1.0), GRID, tol=1e-6
    )
    assert np.max(np.abs(states - plus_x_state.matrix[None])) < 1e-6


def test_series_solution_markovian_closed_form(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    a1 = 0.5
    states, _ = engine.series_solution(
        plus_x_state, emap, ExponentialWaiting(rate=a1), GRID
    )
    mx = 2 * states[:, 0, 1].real
    assert np.max(np.abs(mx - np.exp(-a1 * GRID))) < 1e-6


def test_series_solution_fractional_matches_ml(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    amp = 1 / np.sqrt(2)
    w = MittagLefflerWaiting(amplitude=amp, alpha=0.5)
    states, _ = engine.series_solution(plus_x_state, emap, w, GRID, tol=1e-6)
    mx = 2 * states[:, 0, 1].real
    expected = mittag_leffler(0.5, amp * np.sqrt(GRID))
    assert np.max(np.abs(mx - expected)) < 1e-5
    rho0 = make_density(np.diag([1.0, 0.0]))
    states, _ = engine.series_solution(rho0, emap, w, GRID, tol=1e-6)
    mz = states[:, 0, 0].real - states[:, 1, 1].real
    assert np.max(np.abs(mz - mittag_leffler(0.5, 2 * amp * np.sqrt(GRID)))) < 1e-5


def test_series_truncation_error():
    emap = qubit_kraus(Depolarizing())
    rho0 = make_density(np.diag([1.0, 0.0]))
    with pytest.raises(TruncationError):
        engine.series_solution(
            rho0, emap, ExponentialWaiting(rate=1.0), GRID, n_max=2, tol=1e-6
        )


def test_event_count_mean_matches_renewal_mean():
    from ctqrw.kernels import MarkovianKernel, renewal_mean_count

    w = ExponentialWaiting(rate=0.5)
    t_end = 20.0
    n = 4000
    counts = np.array(
        [engine.draw_event_times(w, t_end, 77, k).size for k in range(n)]
    )
    expected = renewal_mean_count(MarkovianKernel(rate=0.5), t_end)
    se = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - expected) < 3 * se


def test_fractional_first_event_time_has_no_scale():
    # heavy tail: the running mean of first-event times grows without bound
    w = MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)
    u = seeding.uniforms(123, 0, np.arange(100_000), seeding.WAITING_LANE, w.uniforms)
    draws = w.from_uniforms(u)
    means = [draws[:n].mean() for n in (1000, 10_000, 100_000)]
    assert means[0] < means[1] < means[2]


def test_series_solution_telegraph_matches_closed_form(plus_x_state):
    # resummation of renewal probabilities against the damping-basis route
    from ctqrw import solvers
    from ctqrw.kernels import ExponentialKernel, waiting_from_kernel
    from ctqrw.quantum import damping_basis, lindblad_from_kraus

    kern = ExponentialKernel(amplitude=0.75, decay=2.0)
    emap = qubit_kraus(Depolarizing())
    grid = np.linspace(0.0, 20.0, 201)
    states, _ = engine.series_solution(
        plus_x_state, emap, waiting_from_kernel(kern), grid, tol=1e-7
    )
    gen = lindblad_from_kraus(emap)
    closed = solvers.closed_form_solve(damping_basis(gen), kern, plus_x_state, grid)
    assert np.max(np.abs(states - closed)) < 1e-5


def test_ensemble_agrees_with_series_all_safe_kernels(plus_x_state):
    # Monte Carlo vs deterministic series within 3 stderr for the three
    # stochastically interpretable kernels
    from ctqrw.kernels import (
        ExponentialKernel,
        FractionalKernel,
        MarkovianKernel,
        waiting_from_kernel,
    )

    emap = qubit_kraus(Depolarizing())
    grid = np.linspace(0.0, 20.0, 81)
    for kern in (
        MarkovianKernel(rate=0.5),
        ExponentialKernel(amplitude=0.75, decay=2.0),
        FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5),
    ):
        waiting = waiting_from_kernel(kern)
        n_real = 3000
        stats = engine.ensemble_average(plus_x_state, emap, waiting, grid, n_real, base_seed=8)
        states, _ = engine.series_solution(plus_x_state, emap, waiting, grid, tol=1e-7)
        series_mx = 2 * states[:, 0, 1].real
        diff = np.abs(stats.observable_means["M_x"] - series_mx)
        # 3/N covers the zero-count tail where every realization has
        # already scattered and the empirical stderr collapses to zero
        bound = 3 * stats.observable_stderrs["M_x"] + 3.0 / n_real
        assert np.all(diff <= bound), kern


@pytest.mark.parametrize("seed", range(10))
def test_ensemble_agrees_with_series_on_random_qutrit_channels(seed):
    # Monte Carlo vs the series route for a random d = 3 channel, start and
    # observable, judged by the exact standard error of the count law: the
    # sample error collapses where few realizations have scattered
    from ctqrw.kernels import ExponentialKernel, FractionalKernel, waiting_from_kernel
    from helpers import random_density, random_kraus_map

    rng = np.random.default_rng(seed)
    emap = random_kraus_map(3, 2, rng)
    rho = random_density(3, rng)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = {"O": (g + g.conj().T) / 2}
    grid = np.linspace(0.0, 5.0, 26)
    n_real = 2000
    for kern in (FractionalKernel(amplitude=1.0, alpha=0.5), ExponentialKernel(amplitude=0.75, decay=2.0)):
        waiting = waiting_from_kernel(kern)
        probs = engine.renewal_probabilities(waiting, None, grid)
        _, tables = engine.count_tables(rho, emap, probs.n_max, obs)
        mean = probs.table.T @ tables["O"]
        stderr = np.sqrt((probs.table.T @ tables["O"] ** 2 - mean**2) / n_real)
        stats = engine.ensemble_average(rho, emap, waiting, grid, n_real, base_seed=seed, observables=obs)
        z = np.abs(stats.observable_means["O"] - mean)[1:] / stderr[1:]
        assert np.max(z) < 5.0, kern


def _scalar_event_times(waiting, t_end, base_seed, k):
    """Reference renewal loop for realization k: one scalar draw per
    interval, draw j from the waiting lane."""

    def tau(j):
        u = seeding.uniforms(base_seed, k, j, seeding.WAITING_LANE, waiting.uniforms)
        return float(waiting.from_uniforms(u))

    times, j = [], 0
    clock = tau(0)
    while clock <= t_end:
        times.append(clock)
        j += 1
        clock += tau(j)
    return np.asarray(times)


def _empirical_waiting():
    from ctqrw.kernels import waiting_from_kernel

    return waiting_from_kernel(LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)))


@pytest.mark.parametrize(
    "waiting",
    [
        ExponentialWaiting(rate=0.5),
        HypoexponentialWaiting(r1=0.5, r2=1.5),
        MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5),
        MittagLefflerWaiting(amplitude=1.0, alpha=1.0),
        "empirical",
    ],
)
@pytest.mark.parametrize("t_end", [20.0, 150.0])
def test_event_counts_match_scalar_renewal_loop(waiting, t_end):
    # bit-identical to drawing one interval at a time for each realization;
    # the long grid needs several blocks per realization
    if waiting == "empirical":
        waiting = _empirical_waiting()
    grid = np.linspace(0.0, t_end, 97)
    n, base_seed = 60, 31
    counts = engine.event_counts(waiting, grid, n, base_seed)
    assert counts.shape == (n, grid.size)
    refills = 0
    for k in range(n):
        reference = _scalar_event_times(waiting, t_end, base_seed, k)
        assert np.array_equal(engine.draw_event_times(waiting, t_end, base_seed, k), reference)
        assert np.array_equal(counts[k], np.searchsorted(reference, grid, side="right"))
        refills += reference.size >= engine.DRAWS_PER_BLOCK
    if t_end > 100.0:
        assert refills > 0


def test_monte_carlo_counts_reject_empty_ensembles(plus_x_state):
    from ctqrw.errors import BadParametersError

    w = ExponentialWaiting(rate=1.0)
    with pytest.raises(BadParametersError):
        engine.event_counts(w, GRID, 0, base_seed=1)
    with pytest.raises(BadParametersError):
        engine.draw_event_times(w, 1.0, 1, index=-1)
    with pytest.raises(BadParametersError):
        engine.ensemble_average(plus_x_state, qubit_kraus(Depolarizing()), w, GRID, 0, 1)


NONFINITE_GRIDS = [[0.0, np.inf], [0.0, np.nan], [np.nan, 1.0], [0.0, 1.0, np.inf, 3.0]]


@pytest.mark.parametrize("grid", NONFINITE_GRIDS, ids=["inf-end", "nan-end", "nan-start", "inf-inside"])
def test_nonfinite_grids_are_bad_parameters(plus_x_state, time_budget, grid):
    # an infinite horizon used to keep the renewal loop running forever and
    # a NaN one to return zero counts; every entry point now refuses both
    from ctqrw.errors import BadParametersError

    w = ExponentialWaiting(rate=1.0)
    emap = qubit_kraus(Depolarizing())
    calls = [
        lambda: engine.event_counts(w, grid, 10, 1),
        lambda: engine.run_realization(plus_x_state, emap, w, grid, seed=1),
        lambda: engine.ensemble_average(plus_x_state, emap, w, grid, 10, 1),
        lambda: engine.renewal_probabilities(w, 8, grid),
        lambda: engine.series_solution(plus_x_state, emap, w, grid),
    ]
    for call in calls:
        with time_budget(5.0), pytest.raises(BadParametersError, match="finite"):
            call()


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_bad_renewal_horizons_and_tolerances_are_bad_parameters(plus_x_state, time_budget, value):
    # a NaN series tolerance skipped the truncation check and returned states,
    # and tol = -1 built the 512-row table before it failed; a horizon that
    # is not finite is refused too (one <= 0 has no events, which is no fault)
    from ctqrw.errors import BadParametersError

    w = ExponentialWaiting(rate=1.0)
    calls = [
        lambda: engine.series_solution(plus_x_state, qubit_kraus(Depolarizing()), w, GRID, tol=value),
        lambda: engine.renewal_probabilities(w, None, GRID, tail_tol=value),
    ]
    if not np.isfinite(value):
        calls.append(lambda: engine.draw_event_times(w, value, 1))
    for call in calls:
        with time_budget(5.0), pytest.raises(BadParametersError, match="finite"):
            call()


INVALID_WAITING = {
    "exp-negative": lambda: ExponentialWaiting(rate=-1.0),
    "exp-inf": lambda: ExponentialWaiting(rate=np.inf),
    "exp-nan": lambda: ExponentialWaiting(rate=np.nan),
    "ml-negative-amplitude": lambda: MittagLefflerWaiting(amplitude=-1.0, alpha=0.5),
    "ml-alpha-above-one": lambda: MittagLefflerWaiting(amplitude=1.0, alpha=1.5),
    "ml-nan-alpha": lambda: MittagLefflerWaiting(amplitude=1.0, alpha=np.nan),
    "hypo-negative": lambda: HypoexponentialWaiting(r1=1.0, r2=-2.0),
    "hypo-inf": lambda: HypoexponentialWaiting(r1=np.inf, r2=1.0),
}


@pytest.mark.parametrize("make", INVALID_WAITING.values(), ids=INVALID_WAITING.keys())
def test_invalid_waiting_laws_are_bad_parameters(time_budget, make):
    # a negative or infinite rate kept the renewal clocks below t_end
    # forever; NaN and out-of-range parameters gave meaningless counts
    with time_budget(5.0), pytest.raises(BadParametersError):
        engine.event_counts(make(), np.linspace(0.0, 5.0, 11), 5, 1)


def test_negative_n_max_is_bad_parameters():
    with pytest.raises(BadParametersError, match="n_max"):
        engine.renewal_probabilities(ExponentialWaiting(rate=1.0), -1, GRID)


def test_ensemble_mean_state_is_count_histogram_assembly(plus_x_state):
    emap = qubit_kraus(Depolarizing())
    w = HypoexponentialWaiting(r1=0.5, r2=1.5)
    stats = engine.ensemble_average(plus_x_state, emap, w, GRID, 300, base_seed=4)
    trajs = [
        engine.run_realization(plus_x_state, emap, w, GRID, seed=4, index=k, store_states=True)
        for k in range(300)
    ]
    manual = np.mean(np.stack([t.states for t in trajs]), axis=0)
    assert np.max(np.abs(stats.mean_state - manual)) < 1e-14


_HISTOGRAM_LAWS = {
    "poisson": ExponentialWaiting(rate=0.5),
    "hypoexponential": HypoexponentialWaiting(r1=0.5, r2=1.5),
    "ml-0.5": MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5),
    "ml-0.9": MittagLefflerWaiting(amplitude=1.0, alpha=0.9),
}


@pytest.mark.parametrize("grid", [GRID, np.linspace(2.5, 20.0, 50)], ids=["from-0", "from-2.5"])
@pytest.mark.parametrize("n", [1, 10_000])
@pytest.mark.parametrize("waiting", _HISTOGRAM_LAWS.values(), ids=_HISTOGRAM_LAWS.keys())
def test_event_list_histogram_is_the_dense_count_histogram(waiting, n, grid):
    # the count law read from the event list counts the same integers as a
    # bincount of the dense (realizations x grid) count matrix
    counts = engine.event_counts(waiting, grid, n, base_seed=6)
    rows = int(counts.max()) + 1
    dense = np.bincount(
        (counts * grid.size + np.arange(grid.size)).ravel(), minlength=rows * grid.size
    ).reshape(rows, grid.size)
    assert np.array_equal(engine._count_histogram(waiting, grid, n, base_seed=6), dense)


def test_wigner_mean_counts_are_the_dense_mean():
    from ctqrw.kernels import FractionalKernel, waiting_from_kernel
    from ctqrw.models import GaussianJumps, WignerWalkConfig, wigner_ctrw

    kern = FractionalKernel(amplitude=1.0, alpha=0.7)
    cfg = WignerWalkConfig(jumps=GaussianJumps(), kernel=kern, n_walkers=3000)
    grid = np.linspace(0.0, 10.0, 200)
    res = wigner_ctrw(cfg, grid, base_seed=4)
    counts = engine.event_counts(waiting_from_kernel(kern), grid, cfg.n_walkers, base_seed=4)
    assert np.array_equal(res.mean_counts, counts.mean(axis=0))


def _peak_bytes(call) -> int:
    """Peak traced allocation of `call()`, after one untraced warm-up call
    (lazy imports stay out of the count)."""
    import tracemalloc

    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_average_holds_no_count_matrix(plus_x_state):
    # 10^4 realizations x 200 points: the dense int64 count matrix alone
    # would be 16 MB
    waiting = MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)
    emap = qubit_kraus(Depolarizing())
    grid = np.linspace(0.0, 20.0, 200)
    peak = _peak_bytes(lambda: engine.ensemble_average(plus_x_state, emap, waiting, grid, 10_000, 41))
    assert peak < 8 * 2**20


def test_wigner_walk_builds_positions_on_first_access():
    from ctqrw.kernels import FractionalKernel
    from ctqrw.models import GaussianJumps, WignerWalkConfig, wigner_ctrw

    cfg = WignerWalkConfig(
        jumps=GaussianJumps(), kernel=FractionalKernel(amplitude=1.0, alpha=0.7), n_walkers=10_000
    )
    grid = np.linspace(0.0, 10.0, 200)
    peak = _peak_bytes(lambda: wigner_ctrw(cfg, grid, base_seed=41))
    assert peak < 8 * 2**20
    res = wigner_ctrw(cfg, grid, base_seed=41)
    assert "positions" not in vars(res)
    assert res.positions.shape == (grid.size, cfg.n_walkers)
    assert res.positions is res.positions
    assert res.radial_counts.sum() == cfg.n_walkers
    assert res.radial_bins.size == 65


def test_wigner_positions_rebuild_per_walker():
    from ctqrw.kernels import FractionalKernel, waiting_from_kernel
    from ctqrw.models import GaussianJumps, WignerWalkConfig, wigner_ctrw

    kern = FractionalKernel(amplitude=1.0, alpha=0.7)
    jumps = GaussianJumps(mean=0.2 - 0.1j, mean_sq=0.3 + 0.2j, mean_abs_sq=1.0)
    cfg = WignerWalkConfig(jumps=jumps, kernel=kern, n_walkers=40, initial=0.5 + 1.0j)
    grid = np.linspace(0.0, 30.0, 61)
    res = wigner_ctrw(cfg, grid, base_seed=9)
    waiting = waiting_from_kernel(kern)
    for k in range(cfg.n_walkers):
        events = engine.draw_event_times(waiting, grid[-1], 9, k)
        u = seeding.uniforms(9, k, np.arange(events.size), seeding.MARK_LANE, jumps.uniforms)
        path = cfg.initial + np.concatenate([[0.0], np.cumsum(jumps.from_uniforms(u))])
        idx = np.searchsorted(events, grid, side="right")
        assert np.array_equal(res.positions[:, k], path[idx])


def test_intrinsic_stochastic_single_stream_rebuild():
    from ctqrw.kernels import ExponentialKernel, waiting_from_kernel
    from ctqrw.models import ExponentialPhase, SpectrumModel, intrinsic_decoherence

    kern = ExponentialKernel(amplitude=0.75, decay=2.0)
    spec = SpectrumModel(levels=np.array([0.0, 1.0, 2.5]), phase=ExponentialPhase(tau_b=0.4))
    rho0 = np.full((3, 3), 1 / 3, dtype=complex)
    grid = np.linspace(0.0, 80.0, 81)
    res = intrinsic_decoherence(
        spec, kern, rho0, grid, route="stochastic", n_realizations=1, base_seed=12
    )
    # hand-rolled: one waiting time at a time, then one phase per event
    events = _scalar_event_times(waiting_from_kernel(kern), grid[-1], 12, 0)
    u = seeding.uniforms(12, 0, np.arange(len(events)), seeding.MARK_LANE, spec.phase.uniforms)
    taus = spec.phase.from_uniforms(u)
    phase = np.concatenate([[0.0], np.cumsum(taus)])[np.searchsorted(events, grid, side="right")]
    expected = np.exp(-1j * spec.bohr_frequencies()[None] * phase[:, None, None]) * rho0
    assert len(events) > engine.DRAWS_PER_BLOCK
    assert np.max(np.abs(res.states - expected)) < 1e-14


# Phi(z) = 0 of the telegraph generating function h_{1-z} sits at z = -rho,
# a point of the 16-row circle (rho^64 = 1e-12), when r1 = 1 and r2 solves
# r2^2 - (2 + 4 rho) r2 + 1 = 0
_B = 2.0 + 4.0 * 1e-12 ** (1.0 / 64)
DEGENERATE_R2 = (_B + np.sqrt(_B * _B - 4.0)) / 2.0


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(r1=1.0, r2=DEGENERATE_R2, mean_count=1.0, n_points=21, n_max=15)
@example(r1=1e-3, r2=1e-3, mean_count=300.0, n_points=40, n_max=None)
@example(r1=1e3, r2=None, mean_count=1e3, n_points=2, n_max=None)
@given(
    r1=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    r2=st.one_of(st.none(), st.just("equal"), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    mean_count=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
    n_points=st.integers(2, 40),
    n_max=st.one_of(st.none(), st.integers(0, 63)),
)
def test_closed_form_count_laws_are_probabilities(time_budget, r1, r2, mean_count, n_points, n_max):
    # exponential (r2 None) and hypoexponential laws, rates 1e-3 to 1e3,
    # out to `mean_count` renewals on average
    if r2 is None:
        waiting, mean_wait = ExponentialWaiting(rate=r1), 1.0 / r1
    else:
        r2 = r1 if r2 == "equal" else r2
        waiting, mean_wait = HypoexponentialWaiting(r1=r1, r2=r2), 1.0 / r1 + 1.0 / r2
    grid = np.linspace(0.0, mean_count * mean_wait, n_points)
    with time_budget(5.0):
        probs = engine.renewal_probabilities(waiting, n_max, grid)
    assert np.all(np.isfinite(probs.table))
    assert np.all((probs.table >= 0.0) & (probs.table <= 1.0))
    assert np.max(np.abs(probs.table.sum(axis=0) + probs.tail - 1.0)) <= 1e-12


# every waiting law the series route takes: the built-ins, a LaplaceKernel's
# dual law and a table built by hand (which names no dual kernel)
_LAW_TIMES = np.linspace(0.0, 20.0, 401)
COUNT_LAWS = {
    "exponential": ExponentialWaiting(rate=1.0),
    "hypoexponential": HypoexponentialWaiting(r1=0.5, r2=1.5),
    "hypoexponential-equal": HypoexponentialWaiting(r1=1.0, r2=1.0),
    "mittag-leffler-0.5": MittagLefflerWaiting(amplitude=1.0, alpha=0.5),
    "mittag-leffler-0.9": MittagLefflerWaiting(amplitude=1.0, alpha=0.9),
    "mittag-leffler-1": MittagLefflerWaiting(amplitude=1.0, alpha=1.0),
    "laplace-kernel": LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)).waiting(),
    "hand-built": EmpiricalWaiting(times=_LAW_TIMES, pdf=np.exp(-_LAW_TIMES)),
}
# one point, t = 0 alone, NaN, repeats, huge, subnormal and float-limit times
EDGE_GRIDS = [
    [3.0], [0.0], [0.0, np.nan], [0.0, 1.0, 1.0], [0.0, 0.5, 50.0], [0.0, 1e6],
    [1e300], [0.0, 1e-310], [0.0, 1.7e308],
]


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    law=st.sampled_from(sorted(COUNT_LAWS)),
    grid=st.sampled_from(EDGE_GRIDS),
    n_max=st.sampled_from([0, None, 1, 20]),
    series=st.booleans(),
)
def test_count_law_is_probabilities_or_typed_error(plus_x_state, time_budget, law, grid, n_max, series):
    waiting, grid = COUNT_LAWS[law], np.array(grid)
    emap = qubit_kraus(Depolarizing())
    with time_budget(10.0):
        try:
            if series:
                states, bound = engine.series_solution(plus_x_state, emap, waiting, grid, n_max=n_max)
                assert np.all(np.isfinite(states)) and np.all(np.isfinite(bound))
            else:
                table = engine.renewal_probabilities(waiting, n_max, grid).table
                assert np.all(np.isfinite(table))
                assert np.max(table.sum(axis=0)) <= 1.0 + 1e-9
        except CtqrwError:
            pass


def _edge_times(grid):
    """Each grid point, one ulp either side of it, the midpoints, t = 0 and
    times past the end."""
    return np.concatenate(
        [
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            0.5 * (grid[1:] + grid[:-1]),
            [0.0, grid[-1] + 1.0, 2.0 * grid[-1] + 3.0],
        ]
    )


@pytest.mark.parametrize(
    "grid",
    [
        np.linspace(0.0, 10.0, 201),
        np.linspace(2.5, 20.0, 50),
        np.geomspace(1e-3, 10.0, 60),
        np.array([3.0]),
        np.concatenate([np.linspace(0.0, 1.0, 11), [1.0 + 1e-7], np.linspace(1.1, 2.0, 10)]),
        np.array([0.0, 5e-324, 1e-323]),
        np.array([1e-310, 3e-310]),
    ],
    ids=["linspace-0", "linspace-2.5", "geomspace", "one-point", "step-1e-7", "subnormal", "subnormal-span"],
)
def test_first_cells_are_searchsorted(grid, rng):
    times = _edge_times(grid)
    times = times[times >= 0.0]
    times = np.concatenate([times, rng.permutation(times), rng.uniform(0.0, 1.5 * grid[-1], 500)])
    assert np.array_equal(engine._first_cells(grid, times), np.searchsorted(grid, times, side="left"))


@pytest.mark.parametrize(
    "waiting",
    [ExponentialWaiting(rate=2.0), MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)],
    ids=["poisson", "ml-0.5"],
)
def test_event_list_is_the_boolean_mask_event_list(waiting):
    # the event list as boolean masks over each round's (rows x draws) clock
    # block gave: round by round, rows in order, each row's events numbered
    # on from the last, and each realization's events its own draws
    t_end, base_seed, n = 12.0, 9, 400
    owners, numbers, times = engine._renewal_events(waiting, t_end, base_seed, np.arange(n))
    rounds = (numbers - 1) // engine.DRAWS_PER_BLOCK
    assert np.array_equal(np.lexsort((numbers, owners, rounds)), np.arange(owners.size))
    assert rounds.max() > 0
    for k in range(n):
        mine = owners == k
        assert np.array_equal(numbers[mine], np.arange(1, np.count_nonzero(mine) + 1))
        assert np.array_equal(times[mine], engine.draw_event_times(waiting, t_end, base_seed, k))
