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

  discretized with a Gauss-Jacobi rule (exact ``r^{a-b}`` endpoint weight)
  plus peak-aware Gauss-Legendre panels (for ``a > 1/2`` the integrand has a
  Lorentzian feature of width ``~ x sin(pi a)`` at ``r^a = x |cos(pi a)|``);
* the asymptotic series ``sum_k (-1)^{k+1} x^{-k} / Gamma(b - a k)`` with
  optimal truncation at its smallest term.
"""

import numpy as np
from scipy.special import gammaln as _gammaln
from scipy.special import rgamma as _rgamma
from scipy.special import roots_legendre

from .errors import DomainError

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


def _spectral_bounds(alpha: float, x: np.ndarray) -> np.ndarray:
    """Per-x panel boundaries on [1, 55] for the branch-cut integral.

    A shared geometric ladder resolves the e^{-r} factor; twelve extra
    panels refine the Lorentzian dip of the denominator at
    r* = (|cos(pi alpha)| x)^(1/alpha) when alpha > 1/2 (beyond r = 55 the
    e^{-r} factor has killed everything).
    """
    base = np.geomspace(1.0, 55.0, 29)
    c = np.cos(np.pi * alpha)
    if c < 0:
        s_peak = -c * x
        r_peak = s_peak ** (1.0 / alpha)
        width = (x * np.sin(np.pi * alpha) / alpha) * np.maximum(s_peak, 1e-30) ** (
            1.0 / alpha - 1.0
        )
        w_eff = np.minimum(width, 6.0)
        lo = np.clip(r_peak - 4.0 * w_eff, 1.0, 55.0)
        hi = np.clip(r_peak + 5.0 * w_eff, 1.0, 55.0)
    else:
        lo = np.ones_like(x)
        hi = np.ones_like(x)
    peak = np.linspace(lo, hi, 13, axis=1)
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
    """Fixed-rule discretization of the branch-cut integral, vectorized in x.

    Designed for 0.05 <= alpha <= 0.95 (peaks sharper than sin(0.95 pi)
    need the adaptive scalar route).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
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


def _spectral_scalar(alpha: float, beta: float, x: float) -> float:
    """Adaptive quadrature of the branch-cut integral (one x)."""
    from scipy.integrate import quad

    c = np.cos(np.pi * alpha)
    sb = np.sin(np.pi * beta)
    sab = np.sin(np.pi * (alpha - beta))

    def f(r):
        ra = r ** alpha
        denom = ra * ra + 2.0 * x * ra * c + x * x
        return np.exp(-r) * r ** (alpha - beta) * (ra * sb - x * sab) / denom

    # substitute r = z^(1/(1+alpha-beta)) on [0,1] to tame the endpoint weight
    p = 1.0 + alpha - beta

    def g(z):
        r = z ** (1.0 / p)
        ra = r ** alpha
        denom = ra * ra + 2.0 * x * ra * c + x * x
        return np.exp(-r) * (ra * sb - x * sab) / denom / p

    points = []
    if c < 0:
        r_peak = (-c * x) ** (1.0 / alpha)
        if r_peak > 1.0:
            points = [r_peak]
    upper = max(60.0, (points[0] if points else 0.0) + 60.0)
    val1, _ = quad(g, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    val2, _ = quad(f, 1.0, upper, epsabs=1e-14, epsrel=1e-12, limit=400, points=points or None)
    return (val1 + val2) / np.pi


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
    scalar = np.isscalar(x) or (hasattr(x, "ndim") and getattr(x, "ndim", 1) == 0)

    out = np.empty(x_arr.shape)
    if alpha == 1.0 and beta == 1.0:
        out[:] = np.exp(-x_arr)
        return float(out[0]) if scalar else out

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
        return float(out[0]) if scalar else out

    xt = x_arr[todo]
    vals = np.full(xt.shape, np.nan)

    big = xt >= _ASYMP_X_MIN
    if big.any():
        avals, aok = _asymptotic(alpha, beta, xt[big])
        tmp = vals[big]
        tmp[aok] = avals[aok]
        vals[big] = tmp

    need = np.isnan(vals)
    if need.any():
        svals, sok = _series(alpha, beta, xt[need])
        tmp = vals[need]
        tmp[sok] = svals[sok]
        vals[need] = tmp

    need = np.isnan(vals)
    if need.any():
        if 0.05 <= alpha <= 0.95:
            vals[need] = _spectral_vectorized(alpha, beta, xt[need])
        else:
            vals[need] = [_spectral_scalar(alpha, beta, float(v)) for v in xt[need]]

    out[todo] = vals
    return float(out[0]) if scalar else out


def ml_reference(alpha: float, x: float, beta: float = 1.0, dps: int = 50) -> float:
    """Arbitrary-precision oracle (slow; for tests and spot checks).

    Uses the defining series where its length stays sane, otherwise the
    asymptotic series with a rigorous smallest-term error bound.  Raises if
    neither certifies ~1e-13 relative accuracy at this (alpha, x).
    """
    import mpmath

    # predicted series length: terms peak near k with psi(alpha k) = ln x
    k_needed = 10 + 2.0 * np.exp(max(np.log(max(x, 1e-30)), 0.0) / alpha) / alpha
    if x == 0.0:
        return float(_rgamma(beta))
    if k_needed < 30000:
        # precision must absorb the cancellation: dps ~ log10(max term)
        ks = np.arange(1, int(k_needed) + 1)
        ln_max = float(np.max(ks * np.log(x) - _gammaln(alpha * ks + beta)))
        dps = max(dps, 30 + int(0.4343 * max(ln_max, 0.0)))
        with mpmath.workdps(dps):
            xm = mpmath.mpf(x)
            am = mpmath.mpf(alpha)
            bm = mpmath.mpf(beta)
            acc = mpmath.mpf(0)
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
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        am = mpmath.mpf(alpha)
        bm = mpmath.mpf(beta)
        acc = mpmath.mpf(0)
        best = mpmath.inf
        val_at_best = mpmath.mpf(0)
        for k in range(1, 200):
            term = (-1) ** (k + 1) * xm ** (-k) * mpmath.rgamma(bm - am * k)
            acc += term
            if abs(term) < best and term != 0:
                best = abs(term)
                val_at_best = acc
        if best > mpmath.mpf(1e-13) * abs(val_at_best):
            raise RuntimeError("no reference available at this (alpha, x)")
        return float(val_at_best)
