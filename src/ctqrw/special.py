"""Mittag-Leffler functions on the negative real axis.

``mittag_leffler(alpha, x)`` evaluates ``E_alpha(-x)`` (and more generally
``E_{alpha,beta}(-x)`` for ``beta <= 1``) for ``0 < alpha <= 1`` and
``x >= 0``, the regime governing fractional relaxation: stretched
exponential at small argument, power-law ``~ x^{-1}`` at large argument.

Two evaluation regimes, cross-validated on their seam by the test suite:

* power series ``sum_k (-x)^k / Gamma(alpha k + beta)`` while the predicted
  float64 cancellation stays below 1e-13 (the series is mathematically
  entire but numerically useless once its largest term dwarfs the result),
  its terms and partial sums formed _SERIES_CHUNK at a time by sequential
  accumulates that round exactly as the term-by-term recursion;
* everywhere else, out to the largest float, the exact spectral
  representation obtained by collapsing the Hankel contour of ``1/Gamma``
  onto the branch cut,

    E_{a,b}(-x) = (1/pi) int_0^inf e^{-r} r^{a-b}
                  [r^a sin(pi b) - x sin(pi (a-b))] / D(r) dr,
    D(r) = r^{2a} + 2 x r^a cos(pi a) + x^2,

  discretized for every ``0 < a < 1`` with one fixed rule: tanh-sinh on
  ``[0, 1]`` (after ``r = q^(1/a)``) plus Gauss-Legendre panels on
  ``[1, 55]``, graded geometrically around the Lorentzian feature of width
  ``~ x sin(pi a)`` at ``r^a = x |cos(pi a)|`` that appears for ``a > 1/2``.
  Without that dip every x shares one node row, whose x-independent factors
  (weights, ``e^{-r} r^{a-b}``, ``r^a``) are formed once per call; only the
  rational factor is formed per (x, node).  The dip moves with x, so for
  ``a > 1/2`` the graded panels, and with them the nodes, stay per x.
  ``x^2`` in ``D`` overflows past x ~ 1e154; the rational factor ``f`` is
  homogeneous of degree -1 in ``(r^a, x)``, so past x = 2^500 it is
  evaluated as ``2^-k f(2^-k r^a, 2^-k x)``, exact in binary floating point.
"""

import functools
import math

import numpy as np

from .errors import DomainError
from .laplace import like_input

_SERIES_MAX_TERM = 1e3  # keeps cancellation below ~2e-13
_SERIES_MAX_K = 1500
_SERIES_CHUNK = 32  # series terms per accumulate
_X_SCALE_EXP = 500  # past 2^500 the branch-cut rule scales x down


@functools.lru_cache(maxsize=64)
def _series_ratios(alpha: float, beta: float) -> np.ndarray:
    """Read-only ``Gamma(alpha (k-1) + beta) / Gamma(alpha k + beta)`` for
    k = 1.._SERIES_MAX_K, in log space so the recursion never
    over/underflows; built once per (alpha, beta)."""
    lg = np.array([math.lgamma(alpha * k + beta) for k in range(_SERIES_MAX_K + 1)])
    ratios = np.exp(lg[:-1] - lg[1:])
    ratios.flags.writeable = False
    return ratios


def _series(alpha: float, beta: float, x: np.ndarray):
    """Power series with a running cancellation guard.

    Returns (values, ok) where ok marks entries evaluated to ~1e-13 or
    better; entries whose largest term exceeded the guard are left NaN.

    The terms ``term_k = (term_{k-1} (-x)) Gamma(alpha (k-1) + beta) /
    Gamma(alpha k + beta)`` come _SERIES_CHUNK at a time from one
    ``multiply.accumulate`` over the interleaved factors ``[term, -x, r_k,
    -x, r_{k+1}, ...]`` and their partial sums from one ``add.accumulate``,
    both sequential, so every value rounds as the term-by-term recursion
    does.  A row's sum stops at its first term below 1e-18; a row with a
    term above the guard is given up.
    """
    x = np.atleast_1d(x)
    ratios = _series_ratios(alpha, beta)
    out = np.full(x.shape, np.nan)
    ok = np.zeros(x.shape, dtype=bool)
    live = np.arange(x.size)  # 1/Gamma(beta) <= 1: every row starts under the guard
    term = np.full(x.size, 1.0 / math.gamma(beta))
    acc = term.copy()
    # a given-up row's terms may overflow before its chunk ends
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, _SERIES_MAX_K, _SERIES_CHUNK):
            if not live.size:
                break
            r = ratios[k : k + _SERIES_CHUNK]
            factors = np.empty((live.size, 2 * r.size + 1))
            factors[:, 0] = term
            factors[:, 1::2] = -x[live, None]
            factors[:, 2::2] = r
            terms = np.multiply.accumulate(factors, axis=1)[:, 2::2]
            small = np.abs(terms) < 1e-18
            terms[:, 1:][np.logical_or.accumulate(small, axis=1)[:, :-1]] = 0.0
            sums = np.add.accumulate(np.concatenate([acc[:, None], terms], axis=1), axis=1)
            converged = small.any(axis=1)
            hopeless = (np.abs(terms) > _SERIES_MAX_TERM).any(axis=1)
            done = converged & ~hopeless
            out[live[done]] = sums[done, -1]
            ok[live[done]] = True
            going = ~converged & ~hopeless
            live, term, acc = live[going], terms[going, -1], sums[going, -1]
    return out, ok


# boundaries around the Lorentzian dip, in units of its width
_PEAK_GRADE = np.geomspace(0.25, 400.0, 6)
_PEAK_OFFSETS = np.concatenate([-_PEAK_GRADE, [0.0], _PEAK_GRADE])


def _spectral_bounds(alpha: float, x: np.ndarray) -> np.ndarray:
    """Panel boundaries on [1, 55] for the branch-cut integral, one row
    shared by every x, or one row per x when there is a dip.

    A geometric ladder resolves the e^{-r} factor.  When alpha > 1/2 the
    denominator has a Lorentzian dip of width w at
    r* = (|cos(pi alpha)| x)^(1/alpha); thirteen more boundaries,
    r* + w * (0, -+geomspace(0.25, 400, 6)), grade the panels geometrically
    away from it, so its 1/d^2 tails stay resolved however sharp the dip.
    The dip moves with x, so those rows are per x, shape (n_x, 42); without
    it the ladder alone is the one row, shape (1, 29).  Beyond r = 55 the
    e^{-r} factor has killed everything.
    """
    base = np.geomspace(1.0, 55.0, 29)
    c = np.cos(np.pi * alpha)
    if c >= 0:
        return base[None, :]
    x = np.minimum(x, 2.0**_X_SCALE_EXP)  # no overflow; that far out the dip clips to 55
    s_peak = -c * x
    r_peak = s_peak ** (1.0 / alpha)
    width = (x * np.sin(np.pi * alpha) / alpha) * np.maximum(s_peak, 1e-30) ** (
        1.0 / alpha - 1.0
    )
    peak = np.clip(r_peak[:, None] + np.minimum(width, 6.0)[:, None] * _PEAK_OFFSETS, 1.0, 55.0)
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
# Gauss-Legendre nodes and weights: leggauss(12) bit for bit, written out to keep numpy.polynomial unloaded
_GL_NODES, _GL_WEIGHTS = np.array([
    [-0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
     -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
     0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192],
    [0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
     0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
     0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141],
])


def _spectral_vectorized(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Fixed-rule discretization of the branch-cut integral, vectorized in x,
    for every 0 < alpha < 1.

    Each node row carries its x-independent factors, the weights times
    ``e^{-r} r^{alpha-beta}`` and ``r^alpha``; only the rational factor
    ``[r^a sin(pi b) - x sin(pi (a-b))] / D(r)`` is formed per (x, node).
    """
    c = np.cos(np.pi * alpha)
    sb = np.sin(np.pi * beta)
    sab = np.sin(np.pi * (alpha - beta))
    xc = x[:, None]
    k = None  # past 2^500 the rational factor f(s, x) is 2^-k f(2^-k s, 2^-k x)
    if np.any(x > 2.0**_X_SCALE_EXP):
        k = np.maximum(np.frexp(xc)[1] - _X_SCALE_EXP, 0)
        xc = np.ldexp(xc, -k)

    def rule(s, weight):
        # s = r^alpha on (1 or n_x, n_nodes) rows; weight includes e^{-r}
        if k is not None:
            s = np.ldexp(s, -k)
        vals = s * sb - xc * sab
        # D = (s^2 + 2 x s c) + x^2, rounded in this order: near the dip it cancels
        denom = 2.0 * xc * s
        denom *= c
        denom += s * s
        denom += xc * xc
        vals /= denom
        vals *= weight
        return vals.sum(axis=1)

    # [0, 1]: substitute r = q^(1/alpha); the denominator and the bracket
    # become polynomial in q and all remaining endpoint behavior
    # (q^((1-beta)/alpha) weight, q^(1/alpha) Hoelder terms of e^{-r}) is
    # absorbed by the tanh-sinh rule
    q = _TS_NODES
    weight = np.exp(-q ** (1.0 / alpha)) * q ** ((1.0 - beta) / alpha) * _TS_WEIGHTS
    total = rule(q[None, :], weight) / alpha

    # [1, 55]: composite Gauss-Legendre on the ladder (plus peak) panels
    bounds = _spectral_bounds(alpha, x)
    mid = 0.5 * (bounds[:, 1:] + bounds[:, :-1])[:, :, None]
    half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])[:, :, None]
    r = (mid + half * _GL_NODES).reshape(bounds.shape[0], -1)
    weight = np.exp(-r) * r ** (alpha - beta) * (half * _GL_WEIGHTS).reshape(r.shape)
    total += rule(r**alpha, weight)
    total /= np.pi
    return total if k is None else np.ldexp(total, -k[:, 0])


def mittag_leffler(alpha: float, x, beta: float = 1.0):
    """Evaluate ``E_{alpha,beta}(-x)`` for x >= 0.

    Parameters
    ----------
    alpha : float in (0, 1].
    x : scalar or array, >= 0.
    beta : float in (0, 1], default 1.  ``beta = alpha`` gives the function
        appearing in the Mittag-Leffler waiting-time density
        ``w(t) = A t^(alpha-1) E_{alpha,alpha}(-A t^alpha)``.

    ``alpha = 1`` is ``exp(-x)`` and requires ``beta = 1``.

    Returns the same shape as `x`; scalars in, float out, finite for every
    finite x.  Tested against a 50-digit reference up to ``alpha = 0.999``:
    within 1e-10 relative on x in [0.5, 200] and 1e-12 on [30, 1e8].
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must be in (0, 1], got {beta}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0) or np.any(~np.isfinite(x_arr)):
        raise DomainError("x must be finite and >= 0")

    if alpha == 1.0:
        if beta != 1.0:
            raise DomainError(f"alpha = 1 requires beta = 1, got {beta}")
        return like_input(x, np.exp(-x_arr))

    out = np.empty(x_arr.shape)
    zero = x_arr == 0.0
    out[zero] = 1.0 / math.gamma(beta)
    # the branch-cut rule takes every point the series does not certify
    xt = x_arr[~zero]
    vals, ok = _series(alpha, beta, xt)
    if not ok.all():
        vals[~ok] = _spectral_vectorized(alpha, beta, xt[~ok])
    out[~zero] = vals
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
        return 1.0 / math.gamma(beta)
    # predicted series length: terms peak near k with psi(alpha k) = ln x
    k_needed = 10 + 2.0 * np.exp(max(np.log(x), 0.0) / alpha) / alpha
    use_series = k_needed < 30000
    if use_series:
        # precision must absorb the cancellation: dps ~ log10(max term)
        ln_max = max(
            k * math.log(x) - math.lgamma(alpha * k + beta) for k in range(1, int(k_needed) + 1)
        )
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
