"""Fixed-Talbot inversion against closed-form transforms."""

import numpy as np
import pytest

from ctqrw import laplace
from ctqrw.errors import DomainError
from ctqrw.special import mittag_leffler


def test_exponential_kernel_transform():
    # A exp(-gamma t) <-> A/(u + gamma), validated to 1e-8
    a_eps, gamma = 1.3, 2.1
    t = np.linspace(0.05, 8.0, 160)
    vals = laplace.invert(lambda u: a_eps / (u + gamma), t)
    assert np.max(np.abs(vals - a_eps * np.exp(-gamma * t))) < 1e-8


def test_hypoexponential_density():
    r1, r2 = 0.5, 1.5
    t = np.linspace(0.05, 12.0, 200)

    def wtilde(u):
        return (r1 / (r1 + u)) * (r2 / (r2 + u))

    expected = r1 * r2 / (r2 - r1) * (np.exp(-r1 * t) - np.exp(-r2 * t))
    assert np.max(np.abs(laplace.invert(wtilde, t) - expected)) < 1e-8


def test_mittag_leffler_survival_transform():
    # u^(alpha-1)/(A + u^alpha) <-> E_alpha(-A t^alpha)
    alpha, a_amp = 0.5, 1.0
    t = np.geomspace(0.05, 20.0, 80)
    vals = laplace.invert(lambda u: u ** (alpha - 1.0) / (a_amp + u**alpha), t)
    expected = mittag_leffler(alpha, a_amp * t**alpha)
    assert np.max(np.abs(vals - expected)) < 1e-8


def test_oscillatory_smooth_transform():
    # damped cosine: u/(u^2 + 1) shifted
    t = np.linspace(0.1, 6.0, 60)
    vals = laplace.invert(lambda u: (u + 0.4) / ((u + 0.4) ** 2 + 4.0), t)
    assert np.max(np.abs(vals - np.exp(-0.4 * t) * np.cos(2 * t))) < 1e-7


def test_rejects_nonpositive_times():
    with pytest.raises(DomainError):
        laplace.invert(lambda u: 1 / u, np.array([0.0, 1.0]))
