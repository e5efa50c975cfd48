"""Mittag-Leffler functions on the negative real axis.

``mittag_leffler(alpha, x)`` evaluates ``E_alpha(-x)`` (and more generally
``E_{alpha,beta}(-x)`` for ``beta <= 1``) for ``0 < alpha <= 1`` and
``x >= 0``, the regime governing fractional relaxation: stretched
exponential at small argument, power-law ``~ x^{-1}`` at large argument.

Three evaluation regimes, cross-validated on the seams by the test suite:

* power series ``sum_k (-x)^k / Gamma(alpha k + beta)`` while the predicted
  float64 cancellation stays below 1e-13 (the series is mathematically
  entire but numerically useless once its largest term dwarfs the result);
* the exact spectral representation obtained by collapsing the Hankel
  contour of ``1/Gamma`` onto the branch cut,

    E_{a,b}(-x) = (1/pi) int_0^inf e^{-r} r^{a-b}
                  [r^a sin(pi b) - x sin(pi (a-b))] / D(r) dr,
    D(r) = r^{2a} + 2 x r^a cos(pi a) + x^2,

  discretized for every ``0 < a < 1`` with one fixed rule: tanh-sinh on
  ``[0, 1]`` (after ``r = q^(1/a)``) plus Gauss-Legendre panels on
  ``[1, 55]``, graded geometrically around the Lorentzian feature of width
  ``~ x sin(pi a)`` at ``r^a = x |cos(pi a)|`` that appears for ``a > 1/2``;
* the asymptotic series ``sum_k (-1)^{k+1} x^{-k} / Gamma(b - a k)`` with
  optimal truncation at its smallest term.
"""

import numpy as np
from scipy.special import gammaln as _gammaln
from scipy.special import rgamma as _rgamma
from scipy.special import roots_legendre

from .errors import DomainError
from .laplace import like_input

_SERIES_MAX_TERM = 1e3  # keeps cancellation below ~2e-13
_SERIES_MAX_K = 1500
_ASYMP_X_MIN = 30.0


def _series(alpha: float, beta: float, x: np.ndarray):
    """Power series with a running cancellation guard.

    Returns (values, ok) where ok marks entries evaluated to ~1e-13 or
    better; entries whose largest term exceeded the guard are left NaN.
    """
    x = np.atleast_1d(x)
    k = np.arange(_SERIES_MAX_K + 1)
    # Gamma(alpha (k-1) + beta) / Gamma(alpha k + beta), in log space so the
    # recursion never over/underflows
    ratios = np.exp(_gammaln(alpha * (k[1:] - 1) + beta) - _gammaln(alpha * k[1:] + beta))
    out = np.full(x.shape, np.nan)
    term = np.full(x.shape, float(_rgamma(beta)))
    acc = term.copy()
    max_abs = np.abs(term)
    converged = np.zeros(x.shape, dtype=bool)
    hopeless = np.zeros(x.shape, dtype=bool)
    for kk in range(1, _SERIES_MAX_K + 1):
        term = np.where(hopeless, 0.0, term * (-x) * ratios[kk - 1])
        acc = np.where(converged, acc, acc + term)
        max_abs = np.maximum(max_abs, np.abs(term))
        converged |= np.abs(term) < 1e-18
        hopeless |= max_abs > _SERIES_MAX_TERM
        if (converged | hopeless).all():
            break
    ok = converged & ~hopeless
    out[ok] = acc[ok]
    return out, ok


def _asymptotic(alpha: float, beta: float, x: np.ndarray):
    """Large-x series truncated at its smallest term.

    Returns (values, ok); ok requires the smallest retained term to certify
    a relative error below 1e-11.
    """
    x = np.atleast_1d(x)
    best = np.full(x.shape, np.inf)
    val_at_best = np.zeros(x.shape)
    running = np.zeros(x.shape)
    for k in range(1, 40):
        coef = _rgamma(beta - alpha * k)  # zero at the poles of Gamma
        term = (-1.0) ** (k + 1) * coef * x ** (-float(k))
        running = running + term
        mag = np.abs(term)
        take = (mag < best) & (mag > 0)
        val_at_best = np.where(take, running, val_at_best)
        best = np.where(take, mag, best)
    # where every term was zero (cannot happen for alpha<1) keep NaN
    ok = best < 1e-11 * np.maximum(np.abs(val_at_best), 1e-300)
    out = np.where(ok, val_at_best, np.nan)
    return out, ok


# boundaries around the Lorentzian dip, in units of its width
_PEAK_GRADE = np.geomspace(0.25, 400.0, 6)
_PEAK_OFFSETS = np.concatenate([-_PEAK_GRADE, [0.0], _PEAK_GRADE])


def _spectral_bounds(alpha: float, x: np.ndarray) -> np.ndarray:
    """Per-x panel boundaries on [1, 55] for the branch-cut integral.

    A shared geometric ladder resolves the e^{-r} factor.  When alpha > 1/2
    the denominator has a Lorentzian dip of width w at
    r* = (|cos(pi alpha)| x)^(1/alpha); thirteen more boundaries,
    r* + w * (0, -+geomspace(0.25, 400, 6)), grade the panels geometrically
    away from it, so its 1/d^2 tails stay resolved however sharp the dip.
    Without a dip the thirteen sit at r = 1 and add empty panels, which
    keeps one panel layout for every alpha.  Beyond r = 55 the e^{-r}
    factor has killed everything.
    """
    base = np.geomspace(1.0, 55.0, 29)
    c = np.cos(np.pi * alpha)
    if c < 0:
        s_peak = -c * x
        r_peak = s_peak ** (1.0 / alpha)
        width = (x * np.sin(np.pi * alpha) / alpha) * np.maximum(s_peak, 1e-30) ** (
            1.0 / alpha - 1.0
        )
        peak = np.clip(r_peak[:, None] + np.minimum(width, 6.0)[:, None] * _PEAK_OFFSETS, 1.0, 55.0)
    else:
        peak = np.ones((x.size, _PEAK_OFFSETS.size))
    bounds = np.concatenate([np.broadcast_to(base, (x.size, base.size)), peak], axis=1)
    return np.sort(bounds, axis=1)


def _tanhsinh_nodes(step: float = 1.0 / 14.0, t_max: float = 3.6):
    """tanh-sinh nodes/weights on (0, 1); handles endpoint algebraic and
    Hoelder singularities at 0 with exponential convergence."""
    j = np.arange(-int(t_max / step), int(t_max / step) + 1)
    t = j * step
    u = 0.5 * np.pi * np.sinh(t)
    nodes = 0.5 * (1.0 + np.tanh(u))
    weights = step * (0.25 * np.pi * np.cosh(t)) / np.cosh(u) ** 2
    keep = (nodes > 0.0) & (nodes < 1.0) & (weights > 0.0)
    return nodes[keep], weights[keep]


_TS_NODES, _TS_WEIGHTS = _tanhsinh_nodes()


def _spectral_vectorized(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Fixed-rule discretization of the branch-cut integral, vectorized in x,
    for every 0 < alpha < 1."""
    c = np.cos(np.pi * alpha)
    sb = np.sin(np.pi * beta)
    sab = np.sin(np.pi * (alpha - beta))

    def integrand(r):
        # r: (n_x, n_nodes); weight r^{alpha-beta} handled by caller
        ra = r ** alpha
        denom = ra * ra + 2.0 * x[:, None] * ra * c + x[:, None] ** 2
        return np.exp(-r) * (ra * sb - x[:, None] * sab) / denom

    total = np.zeros(x.shape)

    # [0, 1]: substitute r = q^(1/alpha); the denominator and the bracket
    # become polynomial in q and all remaining endpoint behavior
    # (q^((1-beta)/alpha) weight, q^(1/alpha) Hoelder terms of e^{-r}) is
    # absorbed by the tanh-sinh rule
    q = _TS_NODES[None, :]
    denom_q = q * q + 2.0 * x[:, None] * q * c + x[:, None] ** 2
    vals_q = (
        np.exp(-q ** (1.0 / alpha))
        * q ** ((1.0 - beta) / alpha)
        * (q * sb - x[:, None] * sab)
        / denom_q
    )
    total += (vals_q * _TS_WEIGHTS[None, :]).sum(axis=1) / alpha

    # [1, 55]: composite Gauss-Legendre on the shared-plus-peak panels
    nl, wl = roots_legendre(12)
    bounds = _spectral_bounds(alpha, x)
    a = bounds[:, :-1]
    b = bounds[:, 1:]
    mid = 0.5 * (a + b)[:, :, None]
    half = 0.5 * (b - a)[:, :, None]
    nodes = mid + half * nl[None, None, :]
    vals = integrand(nodes.reshape(x.size, -1)).reshape(nodes.shape)
    vals *= nodes ** (alpha - beta)
    total += (vals * wl[None, None, :] * half).sum(axis=(1, 2))
    return total / np.pi


def mittag_leffler(alpha: float, x, beta: float = 1.0):
    """Evaluate ``E_{alpha,beta}(-x)`` for x >= 0.

    Parameters
    ----------
    alpha : float in (0, 1].
    x : scalar or array, >= 0.
    beta : float in (0, 1], default 1.  ``beta = alpha`` gives the function
        appearing in the Mittag-Leffler waiting-time density
        ``w(t) = A t^(alpha-1) E_{alpha,alpha}(-A t^alpha)``.

    Returns the same shape as `x`; scalars in, float out.  Accuracy is
    ~1e-12 relative for moderate arguments and better than 1e-8 everywhere
    (tested against a 50-digit reference).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must be in (0, 1], got {beta}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0) or np.any(~np.isfinite(x_arr)):
        raise DomainError("x must be finite and >= 0")

    if alpha == 1.0 and beta == 1.0:
        return like_input(x, np.exp(-x_arr))

    out = np.empty(x_arr.shape)
    zero = x_arr == 0.0
    out[zero] = _rgamma(beta)
    todo = ~zero

    if alpha == 1.0:
        # only reachable with beta < 1; series everywhere it is clean,
        # asymptotic beyond (the branch-cut form needs alpha < 1)
        vals, ok = _series(1.0, beta, x_arr[todo])
        rem = ~ok
        if rem.any():
            avals, aok = _asymptotic(1.0, beta, x_arr[todo][rem])
            if not aok.all():
                raise DomainError("alpha == 1 with beta < 1 unsupported in the gap region")
            vals[rem] = avals
        out[todo] = vals
        return like_input(x, out)

    # each rule leaves NaN where it does not certify its accuracy
    xt = x_arr[todo]
    vals = np.full(xt.shape, np.nan)
    big = xt >= _ASYMP_X_MIN
    if big.any():
        vals[big] = _asymptotic(alpha, beta, xt[big])[0]
    need = np.isnan(vals)
    if need.any():
        vals[need] = _series(alpha, beta, xt[need])[0]
    need = np.isnan(vals)
    if need.any():
        vals[need] = _spectral_vectorized(alpha, beta, xt[need])
    out[todo] = vals
    return like_input(x, out)


def ml_reference(alpha: float, x: float, beta: float = 1.0, dps: int = 50) -> float:
    """Arbitrary-precision oracle (slow; for tests and spot checks).

    Uses the defining series where its length stays sane, otherwise the
    asymptotic series truncated where the envelope of its terms is
    smallest.  Raises if neither certifies ~1e-13 relative accuracy at this
    (alpha, x).
    """
    import mpmath

    if x == 0.0:
        return float(_rgamma(beta))
    # predicted series length: terms peak near k with psi(alpha k) = ln x
    k_needed = 10 + 2.0 * np.exp(max(np.log(x), 0.0) / alpha) / alpha
    use_series = k_needed < 30000
    if use_series:
        # precision must absorb the cancellation: dps ~ log10(max term)
        ks = np.arange(1, int(k_needed) + 1)
        ln_max = float(np.max(ks * np.log(x) - _gammaln(alpha * ks + beta)))
        dps = max(dps, 30 + int(0.4343 * max(ln_max, 0.0)))
    with mpmath.workdps(dps):
        xm, am, bm = mpmath.mpf(x), mpmath.mpf(alpha), mpmath.mpf(beta)
        acc = mpmath.mpf(0)
        if use_series:
            k = 0
            while True:
                term = (-xm) ** k / mpmath.gamma(am * k + bm)
                acc += term
                if k > 4 and abs(term) < mpmath.mpf(10) ** (-dps - 8) * max(
                    abs(acc), mpmath.mpf(1e-30)
                ):
                    break
                k += 1
                if k > 100000:
                    raise RuntimeError("reference series did not converge")
            return float(acc)
        best = mpmath.inf
        val_at_best = mpmath.mpf(0)
        for k in range(1, 200):
            acc += (-1) ** (k + 1) * xm ** (-k) * mpmath.rgamma(bm - am * k)
            # |1/Gamma(z)| <= Gamma(1 - z)/pi for z < 1; bounding each term by
            # this envelope keeps a term near a zero of 1/Gamma from posing
            # as a tiny truncation error
            bound = xm ** (-k) * mpmath.gamma(1 - bm + am * k) / mpmath.pi
            if bound < best:
                best = bound
                val_at_best = acc
        if best > mpmath.mpf(1e-13) * abs(val_at_best):
            raise RuntimeError("no reference available at this (alpha, x)")
        return float(val_at_best)
