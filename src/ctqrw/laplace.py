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


def _talbot_sum(vals, t, contour, rows):
    """Sums at the times t, time i on row ``rows[i]`` of `contour` (an int
    row serves every time): ``vals`` (..., 1 or n_t, m) to (..., n_t), one
    einsum, which broadcasts a single row of values over the times."""
    r, points, sigma = contour
    weights = np.exp(t[:, None] * points[rows]) * np.concatenate([[0.5], 1.0 + 1j * sigma])
    # einsum, not BLAS: threaded BLAS spends more CPU than it saves on these sizes
    return (r[rows] / points.shape[1]) * np.real(np.einsum("...tk,tk->...t", vals, weights))


def _on_contours(fhat, t):
    """The 32- and 40-node contours of the times t, and `fhat` on both."""
    main, check = _contour(t, NODES), _contour(t, CHECK_NODES)
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
    :class:`DomainError` for no times, t <= 0 or non-finite t and
    :class:`InversionError` when the two sums differ by more than
    ``CHECK_TOL * max(1, max|f|)`` or are not finite.
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
    main, check, vals = _on_contours(fhat, times[tops])
    out = np.empty(vals.shape[:-2] + times.shape)
    other = np.empty_like(out)
    for w, (start, top) in enumerate(zip(np.concatenate([[0], tops[:-1] + 1]), tops)):
        window = slice(start, top + 1)
        out[..., window] = _talbot_sum(vals[..., w : w + 1, :NODES], times[window], main, w)
        other[..., window] = _talbot_sum(vals[..., w : w + 1, NODES:], times[window], check, w)
    per_time = np.max(np.abs(out - other).reshape(-1, times.size), axis=0)  # NaN propagates
    redo = np.flatnonzero(~(per_time <= WINDOW_TOL * _scale(out)))
    redo = np.setdiff1d(redo, tops)  # a window's latest time is on its own contours
    for start in range(0, redo.size, tops.size):
        part = redo[start : start + tops.size]
        main, check, vals = _on_contours(fhat, times[part])
        rows = np.arange(part.size)
        out[..., part] = _talbot_sum(vals[..., :NODES], times[part], main, rows)
        other[..., part] = _talbot_sum(vals[..., NODES:], times[part], check, rows)
    diff = np.abs(out - other)
    worst = np.max(diff, initial=0.0)
    if not worst <= CHECK_TOL * _scale(out):  # NaN and inf fail too
        k = np.unravel_index(np.argmax(np.where(np.isnan(diff), np.inf, diff)), diff.shape)[-1]
        raise InversionError(float(times[k]), float(worst))
    return like_input(t, out[..., back])
