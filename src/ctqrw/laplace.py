"""Numeric inverse Laplace transforms (fixed-Talbot rule).

The fixed-Talbot contour of Abate and Valko: with ``r = 2 M / (5 t)`` and
``theta_k = k pi / M``,

    s_k = r theta_k (cot theta_k + i),
    sigma_k = theta_k + (theta_k cot theta_k - 1) cot theta_k,
    f(t) ~= (r/M) [ (1/2) e^{r t} fhat(r)
                    + sum_{k=1}^{M-1} Re( e^{s_k t} fhat(s_k) (1 + i sigma_k) ) ].

Good for smooth, non-oscillatory transforms (everything in this package:
completely monotone kernels, survival functions, subordination transforms).
The transform callable must accept complex arguments.  Practical accuracy
with 32 nodes is ~1e-10 absolute, limited by rounding at the ``e^{2M/5}``
contour amplification.  A second, 40-node sum certifies each result: left-arm
cancellation or overflow moves them apart.  A pole outside both contours
is missed by both sums alike, so a caller names the simple poles it knows,
and each contour inverts exactly those that its copy scaled by ``MARGIN``
leaves outside (geometry: Abate and Valko, Int. J. Numer. Meth. Engng 60,
979, 2004): ``R/(u - p)`` out of the transform, ``R e^{p t}`` into the sum.

The contour integral is the same on every such contour and at every t;
``r`` only tunes the accuracy of its discrete sum.  So the contours of one
time also serve earlier times (Weideman and Trefethen, Math. Comp. 76,
1341, 2007): the requested times are cut into windows spanning a ratio of
at most ``WINDOW_RATIO``, and every time of a window, its latest included,
is summed on the two contours of the window's latest time.  A windowed
time whose two sums differ by more than ``WINDOW_TOL`` (relative to
``max(1, max|f|)``) is summed again on its own contours, which is the
per-time rule.  One function forms every sum: time i on a given contour
row, the weights ``e^{s_k t}`` times the shape factors, one einsum.
"""

import numpy as np

from .errors import DomainError, InversionError

NODES = 32  # contour of the returned values
CHECK_NODES = 40  # certifying contour
CHECK_TOL = 1e-6  # good inversions differ by 1e-8 or less
WINDOW_RATIO = 4.0  # latest over earliest time of one window
WINDOW_TOL = 5e-11  # windowed sums apart by more are redone per time
MARGIN = 0.5  # a named pole outside the contour of MARGIN r is missed; 0.8 left 8e-8 errors


def like_input(x, out):
    """`out` as a float when `x` is a scalar, else unchanged."""
    return float(out[0]) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def _contour(t: np.ndarray, m: int, poles=((), ())):
    """The m-node contour per t: real point r, the (n_t, m) points with r
    first, the shape factors sigma_k, and the `poles` it misses (None for
    none): p and R with an axis of rows before the pole axis, R zero where
    the row encloses the pole, so an infinite residue is never multiplied."""
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    r = 2.0 * m / (5.0 * t)
    s = r[:, None] * theta[None, :] * (cot[None, :] + 1j)
    p, res = (np.asarray(x, dtype=complex)[..., None, :] for x in poles)
    inside = _encloses(p, r[:, None])
    cols = np.flatnonzero(~np.all(inside, axis=tuple(range(inside.ndim - 1))))
    missed = (p[..., cols], np.where(inside[..., cols], 0.0, res[..., cols])) if cols.size else None
    return r, np.concatenate([r[:, None] + 0j, s], axis=1), theta + (theta * cot - 1.0) * cot, missed


def _encloses(p, r):
    """Whether the contour of r' = MARGIN r encloses p = x + iy: |y| < pi r'
    and x < y cot(y/r'), that is x sin(a)/a < r' cos(a), a = |y|/r'."""
    a = np.abs(p.imag) / (MARGIN * r)
    return (a < np.pi) & (p.real * np.sinc(a / np.pi) < MARGIN * r * np.cos(a))


def may_miss(p, t):
    """Whether a contour of :func:`invert` at the times t can miss the poles
    p: the contours are star-shaped about 0 and scale with r, so the
    32-node one of the latest time misses the most."""
    return ~_encloses(np.asarray(p, dtype=complex), 2.0 * NODES / (5.0 * np.max(t)))


def _talbot_sum(vals, t, contour, rows):
    """Sums at the times t, time i on row ``rows[i]`` of `contour` (a single
    row serves every time): ``vals`` (..., 1 or n_t, m) to (..., n_t), one
    einsum, which broadcasts a single row of values over the times.  The
    poles the row misses are taken out of `vals` as ``R/(u - p)`` and added
    back as ``R e^{p t}``."""
    r, points, sigma, missed = contour
    if missed is not None:
        # optimize=True hands these (family x poles) products to BLAS: 16x on count tables
        p, res = missed[0], missed[1][..., rows, :]
        inverse = 1.0 / (points[rows, :, None] - p[..., None, :])
        vals = vals - np.einsum("...jP,...jkP->...jk", res, inverse, optimize=True)
        back = np.einsum("...tP,...tP->...t", res, np.exp(p * t[:, None]), optimize=True).real
    weights = np.exp(t[:, None] * points[rows]) * np.concatenate([[0.5], 1.0 + 1j * sigma])
    # einsum, not BLAS: threaded BLAS spends more CPU than it saves on these sizes
    out = (r[rows] / points.shape[1]) * np.real(np.einsum("...tk,tk->...t", vals, weights))
    return out if missed is None else out + back


def _on_contours(fhat, t, poles):
    """The 32- and 40-node contours of the times t, and `fhat` on both."""
    main, check = _contour(t, NODES, poles), _contour(t, CHECK_NODES, poles)
    return main, check, fhat(np.concatenate([main[1], check[1]], axis=1))


def _window_tops(times: np.ndarray) -> np.ndarray:
    """Index of the latest time of each window of the ascending `times`;
    a window holds the times in ``[top / WINDOW_RATIO, top]``."""
    tops = []
    end = times.size
    while end > 0:
        tops.append(end - 1)
        end = int(np.searchsorted(times, times[end - 1] / WINDOW_RATIO))
    return np.array(tops[::-1])


def _scale(out) -> float:
    return max(1.0, float(np.max(np.abs(out), where=np.isfinite(out), initial=0.0)))


def invert(fhat, t, poles=None):
    """Evaluate the inverse transform of `fhat` at finite times t > 0.

    `fhat` is called on complex (n, NODES + CHECK_NODES) arrays: per row
    the 32-node contour, then the 40-node one, each with its real point r
    first.  It may prepend axes (a family of transforms); they lead the
    result.  The first call holds one row per window of distinct times (the
    contours of the window's latest time); times whose windowed sums
    disagree follow in calls of at most that many rows, on their own
    contours.  Returns the 32-node values, shaped like t (or a float for
    scalar t); equal times give equal values in any order.  Raises
    :class:`DomainError` for no times, t <= 0 or non-finite t and
    :class:`InversionError` when the two sums differ by more than
    ``CHECK_TOL * max(1, max|f|)`` or are not finite.

    `poles` (p, R), broadcasting to the leading axes of `fhat`'s values +
    (n_poles,), names simple poles p with residues R; each contour row
    inverts exactly those it misses, and poles that every row encloses
    leave the values bit for bit.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.size == 0:
        raise DomainError("fixed-Talbot inversion needs at least one time")
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("fixed-Talbot inversion needs finite t")
    if np.any(t_arr <= 0):
        raise DomainError("fixed-Talbot inversion needs t > 0")
    times, back = np.unique(t_arr, return_inverse=True)
    tops = _window_tops(times)
    poles = ((), ()) if poles is None else poles
    main, check, vals = _on_contours(fhat, times[tops], poles)
    out = np.empty(vals.shape[:-2] + times.shape)
    other = np.empty_like(out)
    for w, (start, top) in enumerate(zip(np.concatenate([[0], tops[:-1] + 1]), tops)):
        window = slice(start, top + 1)
        out[..., window] = _talbot_sum(vals[..., [w], :NODES], times[window], main, [w])
        other[..., window] = _talbot_sum(vals[..., [w], NODES:], times[window], check, [w])
    per_time = np.max(np.abs(out - other).reshape(-1, times.size), axis=0)  # NaN propagates
    redo = np.flatnonzero(~(per_time <= WINDOW_TOL * _scale(out)))
    redo = np.setdiff1d(redo, tops)  # a window's latest time is on its own contours
    for start in range(0, redo.size, tops.size):
        part = redo[start : start + tops.size]
        main, check, vals = _on_contours(fhat, times[part], poles)
        rows = np.arange(part.size)
        out[..., part] = _talbot_sum(vals[..., :NODES], times[part], main, rows)
        other[..., part] = _talbot_sum(vals[..., NODES:], times[part], check, rows)
    diff = np.abs(out - other)
    worst = np.max(diff, initial=0.0)
    if not worst <= CHECK_TOL * _scale(out):  # NaN and inf fail too
        k = np.unravel_index(np.argmax(np.where(np.isnan(diff), np.inf, diff)), diff.shape)[-1]
        raise InversionError(float(times[k]), float(worst))
    return like_input(t, out[..., back])
