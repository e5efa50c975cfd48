"""Mittag-Leffler evaluation against independent oracles."""

import numpy as np
import pytest
from scipy.special import erfcx

from ctqrw import special
from ctqrw.errors import DomainError
from ctqrw.special import mittag_leffler, ml_reference


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


@pytest.mark.parametrize("alpha", [0.03, 0.97, 0.99, 0.999])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_branch_cut_rule_at_extreme_alpha(alpha, beta_is_alpha):
    # the points neither the series nor the asymptotic branch certifies go
    # to the branch-cut integral, whose peak panels must resolve the sharp
    # Lorentzian dip of alpha near 1 and the flat integrand of alpha near 0
    beta = alpha if beta_is_alpha else 1.0
    x = np.geomspace(0.5, 200.0, 40)
    by_series = special._series(alpha, beta, x)[1]
    by_asymptotic = special._asymptotic(alpha, beta, x)[1] & (x >= special._ASYMP_X_MIN)
    x = x[~by_series & ~by_asymptotic]
    assert x.size >= 5
    vals = mittag_leffler(alpha, x, beta=beta)
    for xi, val in zip(x, vals):
        ref = ml_reference(alpha, float(xi), beta=beta)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-12), (alpha, beta, xi)


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
    # series / spectral / asymptotic must agree on their handover bands
    for alpha in (0.35, 0.5, 0.75, 0.9):
        for x in (1.9, 2.1, 29.0, 31.0):
            ref = ml_reference(alpha, x)
            assert abs(mittag_leffler(alpha, x) - ref) < 1e-9 * abs(ref)


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


def test_vector_and_scalar_shapes():
    out = mittag_leffler(0.5, [0.0, 1.0, 10.0, 100.0])
    assert out.shape == (4,)
    assert isinstance(mittag_leffler(0.5, 1.0), float)
