"""Random channels and states for the tests, and mpmath oracles (the
Mittag-Leffler series and branch-cut integral, the exponential kernel's
negative-density witness);
the caller passes the numpy generator, so every draw is reproducible from
the test's seed."""

import math

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


def ml_branch_cut_mp(alpha, beta, x):
    """E_{alpha,beta}(-x), 0 < alpha <= 1, x > 0, as the branch-cut
    integral in q = r^alpha at 30 digits,

        (1/(pi alpha)) int_0^inf e^(-q^(1/alpha)) q^((1-beta)/alpha)
        (q sin(pi beta) - x sin(pi (alpha - beta))) / (q^2 + 2 x q cos(pi alpha) + x^2) dq,

    by ``mpmath.quad`` with breakpoints at 1 and 2, where e^(-q^(1/alpha))
    cuts off, and at x and 2x, the scale of the denominator.  At alpha >
    1/2 the denominator dips to x^2 sin^2(pi alpha) at q = x |cos(pi alpha)|,
    a Lorentzian peak of the integrand that is a breakpoint too."""
    import mpmath

    with mpmath.workdps(30):
        a, b, xm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        c, sb, sab = mpmath.cospi(a), mpmath.sinpi(b), mpmath.sinpi(a - b)

        def integrand(q):
            return (mpmath.exp(-q ** (1 / a)) * q ** ((1 - b) / a) * (q * sb - xm * sab)
                    / (q * q + 2 * xm * q * c + xm * xm))

        breaks = {mpmath.mpf(1), mpmath.mpf(2), xm, 2 * xm}
        if c < 0:
            breaks.add(-xm * c)
        points = [mpmath.mpf(0), *sorted(breaks), mpmath.inf]
        return float(mpmath.quad(integrand, points) / (mpmath.pi * a))


def mittag_leffler_series_loop(alpha, beta, x):
    """The power series of ``ctqrw.special._series`` one term per step: the
    reference its chunked accumulation must equal bit for bit."""
    from ctqrw import special

    x = np.atleast_1d(x)
    ratios = special._series_ratios(alpha, beta)
    out = np.full(x.shape, np.nan)
    term = np.full(x.shape, 1.0 / math.gamma(beta))
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
