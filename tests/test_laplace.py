"""Fixed-Talbot inversion against closed-form transforms."""

import numpy as np
import pytest

from ctqrw import laplace
from ctqrw.errors import DomainError
from ctqrw.kernels import LaplaceKernel
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


@pytest.mark.parametrize("t", [np.array([]), []])
def test_rejects_no_times(t):
    with pytest.raises(DomainError, match="at least one time"):
        laplace.invert(lambda u: 1 / (u + 1), t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, [1.0, np.nan], [np.inf, 2.0]])
def test_rejects_nonfinite_times(t):
    with pytest.raises(DomainError, match="finite"):
        laplace.invert(lambda u: 1 / (u + 1), t)


_WAITING_KERNEL = LaplaceKernel(transform=lambda u: 0.6 / (u + 1.0) + 0.4 / (u + 3.0))

WINDOWED_CASES = {
    "ml-survival-0.5": lambda u: u**-0.5 / (1.0 + u**0.5),
    "ml-survival-0.9": lambda u: u**-0.1 / (1.0 + u**0.9),
    # decay factor of the exponential kernel (A = 0.75, gamma = 2) at lambda = 2
    "subordination-exp": lambda u: 1.0 / (u + 2.0 * 0.75 / (u + 2.0)),
    "laplace-kernel-waiting": lambda u: (
        _WAITING_KERNEL.laplace(u) / (u + _WAITING_KERNEL.laplace(u))
    ),
}
WINDOWED_GRID = np.linspace(0.0, 26.7, 201)[1:]


@pytest.mark.parametrize("name", sorted(WINDOWED_CASES))
def test_windowed_inversion_matches_per_time_calls(name):
    fhat = WINDOWED_CASES[name]
    windowed = laplace.invert(fhat, WINDOWED_GRID)
    per_time = np.array([laplace.invert(fhat, float(t)) for t in WINDOWED_GRID])
    assert np.all(np.abs(windowed - per_time) <= 1e-10 * np.maximum(1.0, np.abs(per_time)))
    # the latest time of a window is on its own contours: the per-time rule
    assert windowed[-1] == per_time[-1]


@pytest.mark.parametrize("name", sorted(WINDOWED_CASES))
def test_window_tops_match_scalar_calls(name):
    # a window's latest time is summed on its own contours, as a scalar
    # call sums it, so the two agree to rounding
    fhat = WINDOWED_CASES[name]
    tops = laplace._window_tops(WINDOWED_GRID)
    windowed = laplace.invert(fhat, WINDOWED_GRID)[tops]
    scalar = np.array([laplace.invert(fhat, float(t)) for t in WINDOWED_GRID[tops]])
    assert np.all(np.abs(windowed - scalar) <= 1e-13 * np.maximum(1.0, np.abs(scalar)))


@pytest.mark.parametrize("name", sorted(WINDOWED_CASES))
def test_windowed_inversion_ignores_order_and_repeats(name):
    fhat = WINDOWED_CASES[name]
    order = np.random.default_rng(5).permutation(WINDOWED_GRID.size)
    order = np.concatenate([order, order[:40], [WINDOWED_GRID.size - 1]])  # a window's top too
    sorted_vals = laplace.invert(fhat, WINDOWED_GRID)
    assert np.array_equal(laplace.invert(fhat, WINDOWED_GRID[order]), sorted_vals[order])


def test_windowed_inversion_evaluates_one_contour_pair_per_window():
    # 200 times spanning a ratio of 200 make four windows of ratio <= 4
    # (26.7, 6.54, 1.60 and 0.27 on top); times whose windowed sums
    # disagree come back in calls of at most four rows on their own contours
    rows = []

    def fhat(u):
        rows.append(u.shape)
        return WINDOWED_CASES["ml-survival-0.9"](u)

    laplace.invert(fhat, WINDOWED_GRID)
    assert rows[0] == (4, laplace.NODES + laplace.CHECK_NODES)
    assert all(shape[0] <= 4 for shape in rows[1:])
    assert sum(shape[0] for shape in rows) < WINDOWED_GRID.size // 10
