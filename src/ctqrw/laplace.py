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
cancellation, overflow or a singularity outside the contour moves them apart.

The contour integral is the same on every such contour and at every t;
``r`` only tunes the accuracy of its discrete sum.  So the contours of one
time also serve earlier times (Weideman and Trefethen, Math. Comp. 76,
1341, 2007): the requested times are cut into windows spanning a ratio of
at most ``WINDOW_RATIO``, and every time of a window is summed on the two
contours of the window's latest time, one matrix product per window.  A windowed time whose two sums differ by more
than ``WINDOW_TOL`` (relative to ``max(1, max|f|)``) is summed again on its
own contours, which is the per-time rule.
"""

import numpy as np

from .errors import DomainError, InversionError

NODES = 32  # contour of the returned values
CHECK_NODES = 40  # certifying contour
CHECK_TOL = 1e-6  # good inversions differ by 1e-8 or less
WINDOW_RATIO = 4.0  # latest over earliest time of one window
WINDOW_TOL = 5e-11  # windowed sums apart by more are redone per time


def like_input(x, out):
    """`out` as a float when `x` is a scalar, else unchanged."""
    return float(out[0]) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def _contour(t: np.ndarray, m: int):
    """The m-node contour per t: real point r, the (n_t, m) points with r
    first, and the shape factors sigma_k."""
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    r = 2.0 * m / (5.0 * t)
    s = r[:, None] * theta[None, :] * (cot[None, :] + 1j)
    return r, np.concatenate([r[:, None] + 0j, s], axis=1), theta + (theta * cot - 1.0) * cot


def _talbot_sum(vals, t, r, points, sigma):
    """Per-time sums: time i on its own contour, row i of `points`."""
    m = points.shape[1]
    terms = np.real(np.exp(points[:, 1:] * t[:, None]) * vals[..., 1:] * (1.0 + 1j * sigma))
    return (r / m) * (0.5 * np.exp(r * t) * np.real(vals[..., 0]) + terms.sum(axis=-1))


def _window_sum(vals, t, contour, w):
    """Sums at the times t on row w of `contour`, tuned for a later time:
    ``vals`` (..., m) to (..., n_t), one matrix product."""
    r, points, sigma = contour
    weights = np.exp(np.outer(t, points[w])) * np.concatenate([[0.5], 1.0 + 1j * sigma])
    # einsum, not BLAS: threaded BLAS spends more CPU than it saves on these sizes
    return (r[w] / points.shape[1]) * np.real(np.einsum("...k,tk->...t", vals, weights))


def _per_time(fhat, t):
    """The 32- and 40-node sums at times t, each on its own contours."""
    main = _contour(t, NODES)
    check = _contour(t, CHECK_NODES)
    vals = fhat(np.concatenate([main[1], check[1]], axis=1))
    return _talbot_sum(vals[..., :NODES], t, *main), _talbot_sum(vals[..., NODES:], t, *check)


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


def invert(fhat, t):
    """Evaluate the inverse transform of `fhat` at finite times t > 0.

    `fhat` is called on complex (n, NODES + CHECK_NODES) arrays: per row
    the 32-node contour, then the 40-node one, each with its real point r
    first.  It may prepend axes (a family of transforms); they lead the
    result.  The first call holds one row per window of distinct times (the
    contours of the window's latest time); times whose windowed sums
    disagree follow in calls of at most that many rows, on their own
    contours.  Returns the 32-node values, shaped like t (or a float for
    scalar t); equal times give equal values in any order.  Raises
    :class:`DomainError` for t <= 0 or non-finite t and
    :class:`InversionError` when the two sums differ by more than
    ``CHECK_TOL * max(1, max|f|)`` or are not finite.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("fixed-Talbot inversion needs finite t")
    if np.any(t_arr <= 0):
        raise DomainError("fixed-Talbot inversion needs t > 0")
    times, back = np.unique(t_arr, return_inverse=True)
    tops = _window_tops(times)
    main = _contour(times[tops], NODES)
    check = _contour(times[tops], CHECK_NODES)
    vals = fhat(np.concatenate([main[1], check[1]], axis=1))
    out = np.empty(vals.shape[:-2] + times.shape)
    other = np.empty_like(out)
    out[..., tops] = _talbot_sum(vals[..., :NODES], times[tops], *main)
    other[..., tops] = _talbot_sum(vals[..., NODES:], times[tops], *check)
    for w, (start, top) in enumerate(zip(np.concatenate([[0], tops[:-1] + 1]), tops)):
        early = times[start:top]
        out[..., start:top] = _window_sum(vals[..., w, :NODES], early, main, w)
        other[..., start:top] = _window_sum(vals[..., w, NODES:], early, check, w)
    per_time = np.max(np.abs(out - other).reshape(-1, times.size), axis=0)  # NaN propagates
    redo = np.flatnonzero(~(per_time <= WINDOW_TOL * _scale(out)))
    redo = np.setdiff1d(redo, tops)  # a window's latest time is on its own contours
    for start in range(0, redo.size, tops.size):
        part = redo[start : start + tops.size]
        out[..., part], other[..., part] = _per_time(fhat, times[part])
    diff = np.abs(out - other)
    worst = np.max(diff, initial=0.0)
    if not worst <= CHECK_TOL * _scale(out):  # NaN and inf fail too
        k = np.unravel_index(np.argmax(np.where(np.isnan(diff), np.inf, diff)), diff.shape)[-1]
        raise InversionError(float(times[k]), float(worst))
    return like_input(t, out[..., back])
