"""Random channels and states for the tests, and mpmath oracles (the
Mittag-Leffler series, the exponential kernel's negative-density witness);
the caller passes the numpy generator, so every draw is reproducible from
the test's seed."""

import numpy as np

from ctqrw.quantum import DensityMatrix, KrausMap, make_density


def random_kraus_map(dim: int, n_ops: int, rng: np.random.Generator) -> KrausMap:
    """Haar-ish random channel: QR of a stacked Ginibre matrix."""
    g = rng.normal(size=(dim * n_ops, dim)) + 1j * rng.normal(size=(dim * n_ops, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_ops))
    return KrausMap(operators=ops)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = (m + m.conj().T) / 2
    return make_density(m)


def mittag_leffler_series(alpha, x):
    """E_alpha(-x) at complex x, its power series carried with enough digits
    for the largest term, about e^(|x|^(1/alpha)), to leave 40."""
    import mpmath

    with mpmath.workdps(40 + int(abs(x) ** (1.0 / alpha) / 2.3)):
        x, a = mpmath.mpc(x), mpmath.mpf(alpha)
        total, k, term = mpmath.mpc(0), 0, mpmath.mpc(1)
        while k < 10 or abs(term) > mpmath.mpf(10) ** -45:
            total += term
            k += 1
            term = (-x) ** k / mpmath.gamma(a * k + 1)
        return complex(total)


def mittag_leffler_series_loop(alpha, beta, x):
    """The power series of ``ctqrw.special._series`` one term per step: the
    reference its chunked accumulation must equal bit for bit."""
    from ctqrw import special

    x = np.atleast_1d(x)
    ratios = special._series_ratios(alpha, beta)
    out = np.full(x.shape, np.nan)
    term = np.full(x.shape, special._rgamma(beta))
    acc = term.copy()
    max_abs = np.abs(term)
    converged = np.zeros(x.shape, dtype=bool)
    hopeless = np.zeros(x.shape, dtype=bool)
    for kk in range(1, special._SERIES_MAX_K + 1):
        term = np.where(hopeless, 0.0, term * (-x) * ratios[kk - 1])
        acc = np.where(converged, acc, acc + term)
        max_abs = np.maximum(max_abs, np.abs(term))
        converged |= np.abs(term) < 1e-18
        hopeless |= max_abs > special._SERIES_MAX_TERM
        if (converged | hopeless).all():
            break
    ok = converged & ~hopeless
    out[ok] = acc[ok]
    return out, ok


def exponential_witness_mp(amplitude, decay):
    """The first-lobe witness (t*, w(t*), log10|w(t*)|) of a dangerous
    exponential kernel, its density evaluated in mpmath at t* = 3 pi / Phi,
    Phi = sqrt(4 A - gamma^2), with no closed form for the sine and no
    underflow: the reference for ``kernels._exponential_negative_witness``.
    Evaluated at 60 digits: near the safe boundary 4 A - gamma^2 cancels."""
    import mpmath

    with mpmath.workdps(60):
        a, g = mpmath.mpf(amplitude), mpmath.mpf(decay)
        root = mpmath.sqrt(4 * a - g * g)
        t_star = 3 * mpmath.pi / root
        w = 2 * a * mpmath.exp(-g * t_star / 2) * mpmath.sin(root * t_star / 2) / root
        return float(t_star), float(w), float(mpmath.log(abs(w), 10))
