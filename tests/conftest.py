import signal
from contextlib import contextmanager

import numpy as np
import pytest

from ctqrw.models import Depolarizing, qubit_kraus
from ctqrw.quantum import lindblad_from_kraus, make_density


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def plus_x_state():
    return make_density(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))


@pytest.fixture
def depolarizing_generator():
    return lindblad_from_kraus(qubit_kraus(Depolarizing()))


@pytest.fixture
def time_budget():
    """``with time_budget(s): ...`` fails the test with TimeoutError if the
    block runs longer than s seconds (SIGALRM; main thread only)."""

    @contextmanager
    def budget(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"call exceeded its {seconds:g} s budget")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return budget


@pytest.fixture
def telegraph_mp():
    """``telegraph_mp(t, lam, gamma, a_eps)``: the exponential-kernel decay
    factor h_lam(t) in mpmath at the caller's working precision (Phi = 0 by
    its limit); lam may be an mpmath complex."""
    import mpmath

    def h(t, lam, gamma, a_eps):
        t, lam, gamma, a_eps = (mpmath.mpmathify(x) for x in (t, lam, gamma, a_eps))
        phi = mpmath.sqrt(gamma * gamma - 4 * lam * a_eps)
        half = t * phi / 2
        shape = gamma * t / 2 if phi == 0 else gamma / phi * mpmath.sinh(half)
        return mpmath.exp(-gamma * t / 2) * (mpmath.cosh(half) + shape)

    return h
