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
with the default 32 nodes is ~1e-10 absolute, limited by rounding at the
``e^{2M/5}`` contour amplification.
"""

import numpy as np


def like_input(x, out):
    """`out` as a float when `x` is a scalar, else unchanged."""
    return float(out[0]) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def talbot_nodes(m: int):
    """Contour angles and shape factors shared by all t."""
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    return theta, cot, sigma


def invert(fhat, t, n_nodes: int = 32):
    """Evaluate the inverse transform of `fhat` at times t > 0.

    `fhat` is called once, on a complex (n_t, M) array whose first column
    is the contour's real point r and whose other columns are the nodes
    s_k.  It may prepend axes (a family of transforms); they lead the
    result.  Returns an array shaped like t (or a float for scalar t).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise ValueError("fixed-Talbot inversion needs t > 0")
    m = int(n_nodes)
    theta, cot, sigma = talbot_nodes(m)
    r = 2.0 * m / (5.0 * t_arr)  # (n_t,)
    s = r[:, None] * theta[None, :] * (cot[None, :] + 1j)  # (n_t, m-1)
    vals = fhat(np.concatenate([r[:, None] + 0j, s], axis=1))
    terms = np.real(np.exp(s * t_arr[:, None]) * vals[..., 1:] * (1.0 + 1j * sigma[None, :]))
    total = 0.5 * np.exp(r * t_arr) * np.real(vals[..., 0]) + terms.sum(axis=-1)
    return like_input(t, (r / m) * total)


def invert_grid(fhat, t, n_nodes: int = 32):
    """Like :func:`invert` but t = 0 entries are filled with the initial
    value theorem limit ``lim_{u->inf} u fhat(u)`` evaluated at u = 1e8."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape)
    pos = t_arr > 0
    if pos.any():
        out[pos] = invert(fhat, t_arr[pos], n_nodes=n_nodes)
    if (~pos).any():
        u = np.array([1e8 + 0j])
        out[~pos] = float(np.real(u * fhat(u))[0])
    return out
