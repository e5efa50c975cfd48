"""Deterministic solution routes for the memory-kernel master equation.

Four independent paths to ``drho/dt = int_0^t K(t-s) L[rho(s)] ds``:

* ``closed_form_solve``: damping-basis expansion with per-eigenvalue decay
  functions h_lam(t) (exponential / telegraph / Mittag-Leffler);
* ``volterra_solve``: product-integration quadrature of the integrated
  equation (second-order quadratic panels for regular kernels,
  singular-prefix corrected weights for the fractional kernel);
* ``telegraph_ode_solve``: the exponential-kernel dynamics as the
  equivalent second-order ODE system, propagated by one matrix exponential
  per step (an independent check route, exact up to expm);
* ``subordination_solve``: the internal-time integral
  ``rho(t) = int_0^inf P(t,tau) rho^M(tau) dtau``, evaluated in the
  Laplace domain for every kernel: each damping sector is the fixed-Talbot
  inversion of ``h_lam(u) = 1/(u + lam Ktilde(u))``.  The density
  P(t, tau) itself (``subordination_pdf``) exists pointwise for Markovian
  and fractional kernels only: hypoexponential renewal counting is
  under-dispersed, so no positive Poisson mixture reproduces the
  exponential kernel.

Plus the short-time linear-entropy laws and the Choi-matrix CP audit of a
solution route.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import laplace
from .engine import check_grid
from .errors import (
    DangerousKernelError,
    DimMismatchError,
    DomainError,
    InversionError,
    SubordinationUnavailableError,
    UnstableStepError,
    UnsupportedKernelError,
)
from .kernels import (  # telegraph_h is re-exported as ctqrw.solvers.telegraph_h
    ExponentialKernel,
    FractionalKernel,
    MarkovianKernel,
    MemoryKernel,
    classify_kernel,
    telegraph_h,
)
from .quantum import DampingBasis, GeneratorMatrix, KrausMap, as_matrix, choi_matrices, vec


def _as_batch(rho0):
    m = as_matrix(rho0)
    if m.ndim == 2:
        return m[None, :, :], True
    return m, False


def _unvec_trajectories(y: np.ndarray, dim: int) -> np.ndarray:
    """(n_grid, d^2, n_rhs) column-stacked history -> (n_rhs, n_grid, d, d)."""
    n_grid, _, n_rhs = y.shape
    states = np.transpose(y, (2, 0, 1)).reshape(n_rhs, n_grid, dim, dim)
    return np.swapaxes(states, -1, -2)


# ---------------------------------------------------------------------------
# closed-form route


def closed_form_solve(basis: DampingBasis, kernel: MemoryKernel, rho0, grid):
    """``rho(t) = sum_lam c_lam h_lam(t) P_lam`` on the grid.

    `rho0` may be one matrix or a batch (n, d, d); returns (n_grid, d, d)
    or (n, n_grid, d, d) accordingly.  Raises
    :class:`UnsupportedKernelError` for kernels without closed-form decay
    functions (use :func:`volterra_solve`) and for the fractional kernel
    with complex damping rates.
    """
    grid = check_grid(grid)
    hs = np.array([np.asarray(kernel.decay_factor(lam, grid), dtype=complex) for lam in basis.rates])
    return basis.evolve(rho0, hs)


# ---------------------------------------------------------------------------
# Volterra quadrature route

_TRACE_DRIFT = 1e-6


_FACTORIALS = np.array([float(math.factorial(n)) for n in range(28)])


def _scaled_exp_moments(a: float) -> np.ndarray:
    """e^{-a} I_p(a) with I_p(a) = int_0^1 e^{a theta} theta^p dtheta, p = 0, 1, 2.

    Equal to ``int_0^1 e^{-a phi} (1 - phi)^p dphi``, so it lies in
    (0, 1/(p+1)] for every a >= 0 and nothing overflows.  Below a = 1 the
    closed forms cancel (relative error ~1e-16/a^3 for p = 2); there the
    series ``p! sum_k (-a)^k / (k+p+1)!`` is used, cut at 25 terms.
    """
    if a < 1.0:
        k = np.arange(25)
        return np.array([_FACTORIALS[p] * np.sum((-a) ** k / _FACTORIALS[k + p + 1]) for p in range(3)])
    e = np.exp(-a)
    return np.array([(1.0 - e) / a, (a - 1.0 + e) / a**2, (a * a - 2.0 * a + 2.0 - 2.0 * e) / a**3])


def _regular_kernel_moments(kernel, h: float, n: int) -> np.ndarray:
    """B_p[m] = h int_0^1 R((m + 1 - theta) h) theta^p dtheta, p = 0, 1, 2,
    where R(x) = int_0^x K is the integrated kernel (exact for the
    exponential kernel, per-cell Gauss on Talbot values otherwise)."""
    m = np.arange(n)
    b = np.empty((3, n))
    if isinstance(kernel, ExponentialKernel):
        a_eps, g = kernel.amplitude, kernel.decay
        # e^{-g (m+1) h} I_p(g h) = e^{-g m h} (e^{-g h} I_p(g h))
        ev = _scaled_exp_moments(g * h)
        decay = np.exp(-g * m * h)
        for p in range(3):
            b[p] = h * (a_eps / g) * (1.0 / (p + 1) - decay * ev[p])
        return b
    nodes, wts = leggauss(8)
    theta = 0.5 * (nodes + 1.0)
    w = 0.5 * wts
    lags = (m[:, None] + 1.0 - theta[None, :]) * h
    r_vals = laplace.invert(lambda u: kernel.laplace(u) / u, lags.ravel()).reshape(lags.shape)
    for p in range(3):
        b[p] = h * (r_vals * theta[None, :] ** p * w[None, :]).sum(axis=1)
    return b


def _propagate(step: np.ndarray, y0: np.ndarray, n_grid: int) -> np.ndarray:
    """``y[k] = step^k y0`` for k < n_grid, one matrix product per step."""
    y = np.zeros((n_grid,) + y0.shape, dtype=complex)
    y[0] = y0
    for k in range(1, n_grid):
        y[k] = step @ y[k - 1]
    return y


# Output steps per block of the Volterra history convolution.
_HISTORY_BLOCK = 256


class _History:
    """Running history sums
    ``S_k = sum_{1 <= j < k} lags[k % P][k - j] values[j]`` for rising k.

    Both product-integration rules weigh their history by the lag k - j
    alone (per class of k modulo P), so it is one blocked FFT convolution
    (Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 532, 1985).
    `lags` has one row per class; the caller fills row k of `values`
    (n + 1, ...) after reading S_k, and weighs node 0 itself.  On entering
    target block c the sources of blocks 0 .. c-2 are transformed one block
    at a time, multiplied by the spectrum of their lag window and
    accumulated in the frequency domain; one inverse transform then serves
    all B steps of the block, and the last <= 2B sources are summed
    directly.  That is O((n/B)^2) length-2B products plus O(nB) direct
    terms, in O(B) rows of work memory.
    """

    def __init__(self, lags: np.ndarray, values: np.ndarray):
        b = _HISTORY_BLOCK
        self._lags = lags
        self._values = values.reshape(values.shape[0], -1)  # a view: rows fill in place
        self._shape = values.shape[1:]
        n_blocks = -(-values.shape[0] // b)
        padded = np.zeros((lags.shape[0], (n_blocks + 2) * b))
        padded[:, : lags.shape[1]] = lags
        # window q holds lags qB .. qB + 2B - 1: the lags between target
        # block c and source block c - 1 - q (its entry 0 reaches no kept output)
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * b, axis=1)[:, ::b]
        self._spectra = np.fft.fft(windows, axis=-1)
        self._block = None
        self._far = None

    def _far_sums(self, c: int) -> np.ndarray:
        """Contributions of source blocks 0 .. c-2 to the B steps of block c."""
        b = _HISTORY_BLOCK
        acc = np.zeros((self._lags.shape[0], 2 * b, self._values.shape[1]), dtype=complex)
        for src in range(c - 1):
            x = self._values[src * b : (src + 1) * b]
            if src == 0:
                x = x.copy()
                x[0] = 0.0
            acc += self._spectra[:, c - 1 - src, :, None] * np.fft.fft(x, n=2 * b, axis=0)
        # circular index B + m is target step cB + m: lags B + m - i never wrap
        out = np.fft.ifft(acc, axis=1)[:, b:]
        steps = c * b + np.arange(b)
        return out[steps % out.shape[0], np.arange(b)]

    def __call__(self, k: int) -> np.ndarray:
        c, m = divmod(k, _HISTORY_BLOCK)
        start = max(1, (c - 1) * _HISTORY_BLOCK)
        lag = self._lags[k % self._lags.shape[0]]
        total = lag[k - start : 0 : -1] @ self._values[start:k]
        if c >= 2:
            if c != self._block:
                self._far, self._block = self._far_sums(c), c
            total += self._far[m]
        return total.reshape(self._shape)


def _pair_weights(k: int, w_first: np.ndarray, w_second: np.ndarray) -> np.ndarray:
    """Nodal weights w[0..k] of the quadratic pair rule at step k >= 2."""
    w = np.zeros(k + 1)
    n_paired = k if k % 2 == 0 else k - 1
    # even cells (first of pair) have lags k-1, k-3, ...;
    # odd cells (second of pair) have lags k-2, k-4, ...
    stop_f = k - 1 - n_paired
    stop_s = k - 2 - n_paired
    m_first = slice(k - 1, stop_f if stop_f >= 0 else None, -2)
    m_second = slice(k - 2, stop_s if stop_s >= 0 else None, -2)
    for p in range(3):
        # pair anchored at even cell 2i: its first cell adds w_first[p] and
        # its second cell w_second[p], both to node 2i + p; the slices walk
        # the anchors in ascending order while the lag slices walk
        # m = k-1-cell descending
        w[p : p + n_paired : 2] += w_first[p][m_first]
        w[p : p + n_paired : 2] += w_second[p][m_second]
    if k % 2 == 1:
        # trailing cell k-1 through the backward pair (k-2, k-1, k)
        for p in range(3):
            w[k - 2 + p] += w_second[p][0]
    return w


def _volterra_regular(gen, kernel, y0, grid):
    """Quadratic product integration of y = y0 + int_0^t R(t-s) G y(s) ds.

    Piecewise-quadratic interpolation of y on node pairs with exact
    product moments of R; the first step uses the linear rule (no forward
    node yet), a one-off O(h^3) contribution.
    """
    h = grid[1] - grid[0]
    n = grid.size - 1
    d2 = gen.matrix.shape[0]
    g_mat = gen.matrix
    b0, b1, b2 = _regular_kernel_moments(kernel, h, n)
    # nodal weights of the quadratic shaped on pair (2i, 2i+1, 2i+2):
    # cell 2i uses xi = theta, cell 2i+1 uses xi = 1 + theta
    w_first = np.stack([(b2 - 3 * b1 + 2 * b0) / 2, 2 * b1 - b2, (b2 - b1) / 2])
    w_second = np.stack([(b2 - b1) / 2, b0 - b2, (b2 + b1) / 2])
    y = np.zeros((n + 1,) + y0.shape, dtype=complex)
    y[0] = y0
    gy = np.zeros_like(y)
    gy[0] = g_mat @ y[0]
    # implicit node-k weight: odd k closes with the backward pair's second
    # cell alone; even k also collects the last forward pair's first cell
    # at lag 1
    inv_odd = np.linalg.inv(np.eye(d2) - w_second[2, 0] * g_mat)
    inv_even = (
        np.linalg.inv(np.eye(d2) - (w_second[2, 0] + w_first[2, 1]) * g_mat)
        if n >= 2
        else inv_odd
    )
    inv_lin = np.linalg.inv(np.eye(d2) - b1[0] * g_mat)
    # Every node 1 <= j < k collects the same pair cells at the same lags
    # k - j for all steps k >= 2 of one parity, so its weight is
    # lags[k % 2][k - j]: read both rows off the last step of each parity.
    # Node 0 lies in the first pair only (the linear rule at k = 1).
    lags = np.zeros((2, n + 1))
    for kk in range(max(n - 1, 2), n + 1):
        lags[kk % 2, 1 : kk + 1] = _pair_weights(kk, w_first, w_second)[kk - 1 :: -1]
    w_node0 = np.empty(n + 1)
    w_node0[1] = b0[0] - b1[0]
    w_node0[2:] = w_first[0][1:] + w_second[0][:-1]
    inv = (inv_even, inv_odd)
    history = _History(lags, gy)
    for k in range(1, n + 1):
        past = w_node0[k] * gy[0] + history(k)
        y[k] = (inv_lin if k == 1 else inv[k % 2]) @ (y[0] + past)
        gy[k] = g_mat @ y[k]
    return y


def _volterra_fractional(gen, kernel, y0, grid):
    """Product integration of the Riemann-Liouville (integrated) form
    ``y = y0 + (A/Gamma(a)) int (t-s)^(a-1) G y ds`` with exact subtraction
    of the leading singular powers.

    Writing y = sum_{k<=m} c_k t^{k a} + phi with the exact short-time
    coefficients c_k = A^k G^k y0 / Gamma(1 + k a), the remainder solves
    ``phi(t) = c_{m+1} t^{(m+1)a} + (A/Gamma(a)) int (t-s)^(a-1) G phi ds``
    and is smooth enough at the origin for linear product integration once
    (m+1) a >= 2.
    """
    alpha, a_amp = kernel.alpha, kernel.amplitude
    h = grid[1] - grid[0]
    n = grid.size - 1
    d2 = gen.matrix.shape[0]
    g_mat = gen.matrix
    n_subtract = max(1, int(np.ceil(2.0 / alpha)) - 1)
    m_arr = np.arange(n, dtype=float)
    ha = h**alpha
    up = (m_arr + 1.0) ** alpha
    dn = m_arr**alpha
    d0 = ha * (up - dn) / alpha
    d1 = ha * (
        (m_arr + 1.0) * (up - dn) / alpha
        - ((m_arr + 1.0) ** (alpha + 1.0) - m_arr ** (alpha + 1.0)) / (alpha + 1.0)
    )
    c_pref = a_amp / math.gamma(alpha)
    c_vecs = [y0.astype(complex)]
    for k in range(1, n_subtract + 2):
        c_vecs.append(
            a_amp
            * (g_mat @ c_vecs[-1])
            * math.exp(math.lgamma(1 + (k - 1) * alpha) - math.lgamma(1 + k * alpha))
        )
    t_pows = np.array([grid ** (k * alpha) for k in range(n_subtract + 2)])
    lhs_inv = np.linalg.inv(np.eye(d2) - c_pref * d1[0] * g_mat)
    phi = np.zeros((n + 1,) + y0.shape, dtype=complex)
    gphi = np.zeros_like(phi)
    top = c_vecs[n_subtract + 1]
    # node j < k collects (d0 - d1)[k-1-j] from cell j and d1[k-j] from
    # cell j - 1; node 0 drops out, since phi[0] = 0
    lags = np.zeros((1, n + 1))
    lags[0, 1:] = d0 - d1
    lags[0, 1:n] += d1[1:]
    history = _History(lags, gphi)
    for k in range(1, n + 1):
        phi[k] = lhs_inv @ (t_pows[n_subtract + 1][k] * top + c_pref * history(k))
        gphi[k] = g_mat @ phi[k]
    series = np.einsum("kt,kdr->tdr", t_pows[: n_subtract + 1].astype(complex), np.stack(c_vecs[: n_subtract + 1]))
    return series + phi


def volterra_solve(gen: GeneratorMatrix, kernel: MemoryKernel, rho0, grid):
    """Quadrature solution of the memory master equation on a uniform grid.

    Markovian kernels step with the exact matrix exponential; regular
    kernels (exponential, custom) use second-order product integration of
    the integrated form; the fractional kernel uses singular-prefix
    corrected product integration (at least first-order accurate; in
    practice close to second order).  `rho0` may be a single matrix or a
    batch (n, d, d).  Raises :class:`UnstableStepError` on trace drift
    beyond 1e-6 or a non-finite trace.
    """
    grid = check_grid(grid, uniform=True)
    batch, single = _as_batch(rho0)
    y0 = np.stack([vec(b) for b in batch], axis=1)
    if isinstance(kernel, MarkovianKernel):
        import scipy.linalg  # loaded on first use, off the CLI's import path

        y = _propagate(scipy.linalg.expm(kernel.rate * (grid[1] - grid[0]) * gen.matrix), y0, grid.size)
    elif isinstance(kernel, FractionalKernel):
        y = _volterra_fractional(gen, kernel, y0, grid)
    else:
        y = _volterra_regular(gen, kernel, y0, grid)
    states = _unvec_trajectories(y, gen.dim)
    traces = np.einsum("nkii->nk", states).real
    trace0 = np.einsum("nii->n", batch).real
    drift = np.max(np.abs(traces - trace0[:, None]))
    if not drift <= _TRACE_DRIFT * max(1.0, float(np.max(np.abs(trace0)))):  # NaN fails too
        raise UnstableStepError(f"trace drift {drift:.2e} exceeds {_TRACE_DRIFT:g}")
    return states[0] if single else states


def telegraph_ode_solve(gen: GeneratorMatrix, kernel: ExponentialKernel, rho0, grid):
    """Check route: the exponential-kernel equation as a second-order ODE.

    ``rho'' + gamma rho' = A_eps L rho`` with ``rho(0) = rho0,
    rho'(0) = 0``, propagated by the matrix exponential of the companion
    block on each uniform step (exact up to expm rounding).
    """
    if not isinstance(kernel, ExponentialKernel):
        raise UnsupportedKernelError("telegraph_ode_solve applies to exponential kernels")
    import scipy.linalg  # loaded on first use, off the CLI's import path

    grid = check_grid(grid, uniform=True)
    batch, single = _as_batch(rho0)
    d2 = gen.matrix.shape[0]
    block = np.zeros((2 * d2, 2 * d2), dtype=complex)
    block[:d2, d2:] = np.eye(d2)
    block[d2:, :d2] = kernel.amplitude * gen.matrix
    block[d2:, d2:] = -kernel.decay * np.eye(d2)
    y0 = np.zeros((2 * d2, batch.shape[0]), dtype=complex)
    y0[:d2] = np.stack([vec(b) for b in batch], axis=1)
    state = _propagate(scipy.linalg.expm((grid[1] - grid[0]) * block), y0, grid.size)
    states = _unvec_trajectories(state[:, :d2, :], gen.dim)
    return states[0] if single else states


# ---------------------------------------------------------------------------
# subordination route


@dataclass(frozen=True)
class DeltaLine:
    """Symbolic P(t, tau) = delta(tau - location) (Markovian kernel)."""

    location: float


def _subordination_mode(kernel: MemoryKernel) -> str:
    verdict = classify_kernel(kernel)
    if not verdict.is_safe:
        raise DangerousKernelError(
            f"subordination requires a stochastically interpretable kernel: {verdict.certificate}"
        )
    if isinstance(kernel, MarkovianKernel):
        return "delta"
    if isinstance(kernel, ExponentialKernel):
        return "laplace"
    return "density"


def _density_at(kernel: MemoryKernel, t: float, taus: np.ndarray) -> np.ndarray:
    """P(t, tau) for many tau at one t: one Talbot inversion of
    ``exp(-tau u/Ktilde(u))/Ktilde(u)`` broadcast over tau.

    Raises :class:`SubordinationUnavailableError` where the inversion is
    not certified: for fractional alpha > 1/2 the exponent grows on the
    contour's left arm, and the sum cancels catastrophically or overflows.
    """

    def fhat(s):
        ks = kernel.laplace(s)
        return np.exp(-taus[:, None, None] * s / ks) / ks

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return laplace.invert(fhat, [t])[:, 0]
    except InversionError as exc:
        raise SubordinationUnavailableError(
            f"the subordination density of {kernel!r} is unavailable: {exc}"
        ) from exc


def subordination_pdf(kernel: MemoryKernel, t: float, tau):
    """Internal-time density P(t, tau) via fixed-Talbot inversion of
    ``(1/Ktilde(u)) exp(-tau u/Ktilde(u))``.

    Markovian kernels return the symbolic :class:`DeltaLine` at
    ``tau = A1 t``.  Exponential kernels raise
    :class:`SubordinationUnavailableError` (no pointwise density exists
    even in the safe regime; :func:`subordination_solve` needs none), and
    so does a density whose Talbot inversion is not certified (fractional
    alpha of 0.7 and above).  Dangerous kernels raise
    :class:`DangerousKernelError`; ``t <= 0`` raises :class:`DomainError`.
    """
    mode = _subordination_mode(kernel)
    if mode == "delta":
        return DeltaLine(location=kernel.rate * float(t))
    if mode == "laplace":
        raise SubordinationUnavailableError(
            "the exponential kernel admits no pointwise subordination density "
            "(under-dispersed renewal counting); use subordination_solve"
        )
    if t <= 0:
        raise DomainError(f"t must be > 0, got {t}")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    return laplace.like_input(tau, _density_at(kernel, float(t), tau_arr))


def subordination_solve(kernel: MemoryKernel, basis: DampingBasis, rho0, grid):
    """``rho(t) = int_0^inf P(t,tau) rho^M(tau) dtau`` on the grid.

    Over t, P(t, tau) has the transform ``exp(-tau u/Ktilde(u))/Ktilde(u)``,
    so each decaying sector ``h_lam(t) = int P(t,tau) e^{-lam tau} dtau``
    is the certified Talbot inversion of ``1/(u + lam Ktilde(u))``
    (:meth:`~ctqrw.kernels.MemoryKernel.talbot_decay_factor`), one path for
    every safe kernel; the lam = 0 sector is one by normalization of P.
    Complex damping rates are supported.  Dangerous kernels raise
    :class:`DangerousKernelError`, and an uncertified inversion raises
    :class:`InversionError`.
    """
    _subordination_mode(kernel)  # refuses dangerous kernels
    grid = check_grid(grid)
    lams = basis.rates
    hs = np.ones((lams.size, grid.size), dtype=complex)
    for i in np.flatnonzero(np.abs(lams) >= 1e-12):
        hs[i] = kernel.talbot_decay_factor(lams[i], grid)
    return basis.evolve(rho0, hs)


# ---------------------------------------------------------------------------
# short-time entropy and CP audit


@dataclass(frozen=True)
class ShortTimeEntropy:
    """Leading-order linear-entropy law delta(t) ~ prefactor * t^exponent."""

    coefficient: float
    exponent: float
    prefactor: float

    def law(self, t):
        return self.prefactor * np.asarray(t, dtype=float) ** self.exponent


def short_time_entropy(emap: KrausMap, psi, kernel: MemoryKernel) -> ShortTimeEntropy:
    """Scattering spread ``<<E>> = sum_i <Ci^dag Ci> - <Ci^dag><Ci>`` of a
    pure state, and the induced leading small-t law of
    ``delta(t) = 1 - Tr[rho^2]``:

    fractional ``2 A_alpha t^alpha/Gamma(1+alpha) <<E>>``, exponential
    ``A_eps t^2 <<E>>``, Markovian ``2 A1 t <<E>>`` (the alpha -> 1 case).
    """
    ket = np.asarray(psi, dtype=complex).ravel()
    ket = ket / np.linalg.norm(ket)
    coeff = 0.0
    for c in emap.operators:
        coeff += float(np.real(ket.conj() @ (c.conj().T @ c) @ ket))
        coeff -= abs(complex(ket.conj() @ (c @ ket))) ** 2
    expo, pref = kernel.short_time_law()
    return ShortTimeEntropy(coefficient=coeff, exponent=expo, prefactor=pref * coeff)


def cp_defect_over_time(solve, dim: int, grid) -> np.ndarray:
    """Minimum Choi eigenvalue of the solution map at every grid point.

    `solve` maps a batch (n, d, d) of initial operators to trajectories
    (n, n_grid, d, d); all d^2 matrix units are propagated at once and the
    time-t map assembled from their images.  A value below -1e-9 certifies
    loss of complete positivity well beyond quadrature noise.  Raises
    :class:`DimMismatchError` if the trajectories do not have one entry
    per grid point.
    """
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)  # unit j*d+l = |j><l|
    images = solve(units)
    if images.shape[1] != np.size(grid):
        raise DimMismatchError(f"solve returned {images.shape[1]} times for a grid of {np.size(grid)}")
    return np.linalg.eigvalsh(choi_matrices(images, dim)).min(axis=-1)
