"""Mittag-Leffler evaluation against independent oracles."""

import warnings

import numpy as np
import pytest
from scipy.special import erfcx

from ctqrw import special
from ctqrw.errors import DomainError
from ctqrw.special import mittag_leffler, ml_reference
from helpers import mittag_leffler_series_loop, ml_branch_cut_mp


def test_value_at_zero_and_alpha_one():
    assert mittag_leffler(0.7, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mittag_leffler(1.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    x = np.linspace(0, 20, 100)
    assert np.allclose(mittag_leffler(1.0, x), np.exp(-x), atol=1e-14)


def test_erfcx_identity_half():
    # E_{1/2}(-x) = exp(x^2) erfc(x), the independent scipy oracle
    x = np.linspace(0.0, 10.0, 1000)
    vals = mittag_leffler(0.5, x)
    assert np.max(np.abs(vals - erfcx(x))) < 1e-10


def test_monotone_nonincreasing_and_range():
    for alpha in (0.3, 0.5, 0.8, 0.95):
        x = np.linspace(0.0, 50.0, 2000)
        v = mittag_leffler(alpha, x)
        assert np.all(np.diff(v) <= 1e-14)
        assert np.all(v > 0.0)
        assert np.all(v <= 1.0 + 1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_against_high_precision_reference(alpha):
    for x in (0.4, 1.3, 2.7, 4.5, 6.0):
        ref = ml_reference(alpha, x)
        val = mittag_leffler(alpha, x)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-12), (alpha, x)


@pytest.mark.parametrize("alpha", [0.03, 0.97, 0.99, 0.999, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_branch_cut_rule_at_extreme_alpha(alpha, beta_is_alpha):
    # the points the series does not certify go to the branch-cut integral,
    # whose peak panels must resolve the sharp Lorentzian dip of alpha near 1
    # and the flat integrand of alpha near 0.  Past x = 30 the points where
    # the reference would sum 2000 to 30000 terms at hundreds of digits are
    # skipped
    beta = alpha if beta_is_alpha else 1.0
    x = np.geomspace(0.5, 200.0, 40)
    x = x[~special._series(alpha, beta, x)[1]]
    reference_terms = 2.0 * x ** (1.0 / alpha) / alpha
    x = x[(x < 30.0) | (reference_terms < 2000) | (reference_terms > 30000)]
    assert x.size >= 5
    vals = mittag_leffler(alpha, x, beta=beta)
    for xi, val in zip(x, vals):
        ref = ml_reference(alpha, float(xi), beta=beta)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-12), (alpha, beta, xi)


@pytest.mark.parametrize("alpha", [0.1, 0.3])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_branch_cut_rule_on_the_shared_node_row(alpha, beta_is_alpha, time_budget):
    # as above at alpha < 1/2, where every x shares one node row: every
    # point the series leaves, against the branch-cut integral in mpmath
    # (ml_reference sums ~10^4 terms at hundreds of digits just below its
    # switch to the asymptotic series, tens of seconds a point)
    beta = alpha if beta_is_alpha else 1.0
    x = np.geomspace(0.5, 200.0, 40)
    x = x[~special._series(alpha, beta, x)[1]]
    assert x.size >= 30
    vals = mittag_leffler(alpha, x, beta=beta)
    with time_budget(30.0):
        refs = [ml_branch_cut_mp(alpha, beta, float(xi)) for xi in x]
    for xi, val, ref in zip(x, vals, refs):
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-12), (alpha, beta, xi)


@pytest.mark.parametrize(
    "alpha, beta, x",
    [(0.1, 1.0, 1.5), (0.1, 0.1, 300.0), (0.3, 1.0, 150.0), (0.9, 1.0, 5.0), (0.9, 0.9, 5.0)],
)
def test_branch_cut_oracle_is_the_reference_one(alpha, beta, x):
    # the quadrature oracle against the series and asymptotic one where
    # that one is fast: the same float.  At alpha = 0.9 the oracle's
    # denominator dips at its breakpoint q = x |cos(pi alpha)|; there
    # mittag_leffler is off by 3.0e-12 (beta = 1) and 1.3e-11 (beta = alpha)
    # relative, inside the 1e-10 bar
    ref = ml_reference(alpha, x, beta=beta)
    assert ml_branch_cut_mp(alpha, beta, x) == ref
    assert abs(mittag_leffler(alpha, x, beta=beta) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("alpha", [0.03, 0.5, 0.97, 0.999])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_series_is_the_term_by_term_loop(alpha, beta_is_alpha):
    # across the 1e3 guard (from every term clean to hopeless) and down to
    # the smallest subnormal: the chunked accumulation rounds as the loop
    beta = alpha if beta_is_alpha else 1.0
    x = np.concatenate([np.geomspace(1e-6, 40.0, 800), [5e-324, 1e-300]])
    vals, ok = special._series(alpha, beta, x)
    ref_vals, ref_ok = mittag_leffler_series_loop(alpha, beta, x)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(vals, ref_vals, equal_nan=True)
    assert ok.any() and not ok.all()


def test_series_runs_out_of_terms_like_the_loop():
    # alpha = 0.01 at x = 1: every term 1/Gamma(0.01 k + 1) stays below 1.2,
    # far under the guard, yet term 1500 is still ~1e-15
    x = np.array([0.5, 1.0])
    vals, ok = special._series(0.01, 1.0, x)
    ref_vals, ref_ok = mittag_leffler_series_loop(0.01, 1.0, x)
    assert list(ok) == list(ref_ok) == [True, False]
    assert np.array_equal(vals, ref_vals, equal_nan=True)


def test_reference_asymptotic_branch_is_not_fooled_by_a_vanishing_term():
    # at alpha = beta = 0.03, x = 1.266 a term of the asymptotic series sits
    # next to a zero of 1/Gamma; the reference must still agree with an
    # independent quadrature of the branch-cut integral
    import mpmath

    alpha = beta = 0.03
    x = 1.266
    with mpmath.workdps(30):
        c, sb, sab = (mpmath.cospi(alpha), mpmath.sinpi(beta), mpmath.sinpi(alpha - beta))

        def integrand(r):
            ra = r**alpha
            return mpmath.exp(-r) * r ** (alpha - beta) * (ra * sb - x * sab) / (
                ra * ra + 2 * x * ra * c + x * x
            )

        quadrature = float(mpmath.quad(integrand, [0, 1, 10, 60, mpmath.inf]) / mpmath.pi)
    assert ml_reference(alpha, x, beta=beta) == pytest.approx(quadrature, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_beta_alpha_against_reference(alpha):
    # the waiting-density factor E_{alpha,alpha}
    for x in (0.2, 1.0, 3.0, 8.0):
        ref = ml_reference(alpha, x, beta=alpha)
        val = mittag_leffler(alpha, x, beta=alpha)
        assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-12)


def test_regime_seams_are_continuous():
    # the series hands over to the branch-cut rule near x = 2; the rule
    # alone carries x = 29 and 31
    for alpha in (0.35, 0.5, 0.75, 0.9):
        for x in (1.9, 2.1, 29.0, 31.0):
            ref = ml_reference(alpha, x)
            assert abs(mittag_leffler(alpha, x) - ref) < 1e-9 * abs(ref)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7, 0.9, 0.97, 0.999])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_branch_cut_rule_at_large_x(alpha, beta_is_alpha):
    # the rule alone carries every x past the series, out to 1e8; the points
    # where the reference sums fewer than 2000 terms or goes asymptotic
    beta = alpha if beta_is_alpha else 1.0
    x = np.geomspace(30.0, 1e8, 15)
    reference_terms = 2.0 * x ** (1.0 / alpha) / alpha
    x = x[(reference_terms < 2000) | (reference_terms > 30000)]
    vals = mittag_leffler(alpha, x, beta=beta)
    for xi, val in zip(x, vals):
        ref = ml_reference(alpha, float(xi), beta=beta)
        assert abs(val - ref) <= 1e-12 * abs(ref), (alpha, beta, xi)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.999])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_huge_x_is_finite_without_warnings(alpha, beta_is_alpha):
    # past x = 2^500 the rule scales x and r^alpha down so x^2 cannot overflow
    beta = alpha if beta_is_alpha else 1.0
    x = np.array([1e155, 1e200, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = mittag_leffler(alpha, x, beta=beta)
    assert np.all(np.isfinite(vals))
    if alpha == 0.5 and beta == 1.0:
        ref = erfcx(x)
        assert np.all(np.abs(vals - ref) <= 1e-14 * ref)


def test_large_argument_asymptotics():
    # E_alpha(-x) -> 1/(x Gamma(1-alpha)) at large x
    from scipy.special import gamma

    for alpha in (0.3, 0.5, 0.8):
        x = 5e4
        lead = 1.0 / (x * gamma(1.0 - alpha))
        assert mittag_leffler(alpha, x) == pytest.approx(lead, rel=2e-4)


def test_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(1.2, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0, beta=1.5)
    with pytest.raises(DomainError):
        mittag_leffler(1.0, 2.0, beta=0.5)


def test_vector_and_scalar_shapes():
    out = mittag_leffler(0.5, [0.0, 1.0, 10.0, 100.0])
    assert out.shape == (4,)
    assert isinstance(mittag_leffler(0.5, 1.0), float)


# plain primitives that stand in for scipy.special on the CLI's import path


def test_lgamma_matches_scipy_on_the_series_arguments():
    import math

    from scipy.special import gammaln

    k = np.arange(special._SERIES_MAX_K + 1)
    for alpha in (0.03, 0.5, 0.9, 0.999, 1.0):
        for beta in (alpha, 0.5, 1.0):
            x = alpha * k + beta
            ours = np.array([math.lgamma(v) for v in x])
            ref = gammaln(x)
            assert np.all(np.abs(ours - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
            ratios = np.exp(gammaln(alpha * (k[1:] - 1) + beta) - gammaln(alpha * k[1:] + beta))
            # the log differences of lgamma ~ 1e4 carry ~1e-12 absolute
            assert np.allclose(special._series_ratios(alpha, beta), ratios, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n", [8, 12])
def test_leggauss_matches_roots_legendre(n):
    from numpy.polynomial.legendre import leggauss
    from scipy.special import roots_legendre

    nodes, weights = leggauss(n)
    ref_nodes, ref_weights = roots_legendre(n)
    assert np.allclose(nodes, ref_nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(weights, ref_weights, rtol=0.0, atol=1e-14)


def test_series_ratio_table_is_cached_and_read_only():
    first = special._series_ratios(0.63, 0.63)
    assert special._series_ratios(0.63, 0.63) is first
    assert first.shape == (special._SERIES_MAX_K,)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
