"""Deterministic solution routes for the memory-kernel master equation.

Four independent paths to ``drho/dt = int_0^t K(t-s) L[rho(s)] ds``:

* ``closed_form_solve``: damping-basis expansion with per-eigenvalue decay
  functions h_lam(t) (exponential / telegraph / Mittag-Leffler, Talbot at
  complex fractional rates), one kernel call for the whole rate family;
* ``volterra_solve``: product-integration quadrature of the integrated
  equation (second-order quadratic panels for regular kernels,
  singular-prefix corrected weights for the fractional kernel), solved as
  a lower-triangular block-Toeplitz system one block of steps at a time:
  FFT history sums over earlier blocks, and an FFT convolution with the
  truncated inverse of the step operator series within the block;
* ``telegraph_ode_solve``: the exponential-kernel dynamics as the
  equivalent second-order ODE system, propagated by one matrix exponential
  per step (an independent check route, exact up to expm);
* ``subordination_solve``: the internal-time integral
  ``rho(t) = int_0^inf P(t,tau) rho^M(tau) dtau``, evaluated in the
  Laplace domain for every kernel: each damping sector is the fixed-Talbot
  inversion of ``h_lam(u) = 1/(u + lam Ktilde(u))``; the kernel names its
  poles (``poles``) and the inverter takes out exactly those that its
  contours miss.  The density
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
    DimMismatchError,
    DomainError,
    InversionError,
    SubordinationUnavailableError,
    UnstableStepError,
    UnsupportedKernelError,
)
from .kernels import (  # telegraph_h is re-exported as ctqrw.solvers.telegraph_h
    ExponentialKernel,
    ExponentialWaiting,
    FractionalKernel,
    HypoexponentialWaiting,
    MarkovianKernel,
    MemoryKernel,
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

    Every h_lam comes from one ``kernel.decay_factor`` call over the whole
    rate family; complex rates are supported (on the fractional kernel they
    are Talbot-inverted).  `rho0` may be one matrix or a batch (n, d, d);
    returns (n_grid, d, d) or (n, n_grid, d, d) accordingly.  Raises
    :class:`UnsupportedKernelError` for kernels without closed-form decay
    functions (use :func:`volterra_solve`).
    """
    grid = check_grid(grid)
    return basis.evolve(rho0, kernel.decay_factor(basis.rates, grid))


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


# Rows per block of the Volterra Toeplitz solve.
_BLOCK = 256


def _series_inverse(series: np.ndarray) -> np.ndarray:
    """First len(series) coefficients of the inverse of the matrix power
    series ``A(z) = sum_l series[l] z^l`` (series[0] invertible).

    Newton doubling: with X right to m coefficients, ``A X - I`` starts at
    z^m and ``X - X (A X - I)`` is right to 2m.  Both products are FFT
    convolutions of length 2m: what wraps lands on terms below m, unused.
    """
    x = np.linalg.inv(series[:1])
    while x.shape[0] < series.shape[0]:
        m = x.shape[0]
        x_hat = np.fft.fft(x, n=2 * m, axis=0)
        residual = np.fft.ifft(np.fft.fft(series[: 2 * m], n=2 * m, axis=0) @ x_hat, axis=0)[m:]
        correction = np.fft.ifft(x_hat @ np.fft.fft(residual, n=2 * m, axis=0), axis=0)[:m]
        x = np.concatenate([x, -correction])
    return x[: series.shape[0]]


def _toeplitz_solve(weights: np.ndarray, g_mat: np.ndarray, forcing: np.ndarray) -> None:
    """Solve ``x[p] - sum_{q <= p} (weights[p - q] kron G) x[q] = forcing[p]``
    in place: `forcing` (N, P, D, R) is overwritten by x.

    `weights` (N, P, P) holds one P x P scalar block per lag.  Both
    product-integration rules are this lower-triangular block-Toeplitz
    system, so it is solved B rows at a time.  The history of block c,
    every earlier block included, is one frequency-domain accumulation of
    the lag-window spectra against the stored spectra of ``G x`` per source
    block (Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 532,
    1985); each source block is transformed once.  The block's own rows are
    then one length-2B FFT convolution with the first B coefficients of the
    inverse step series ``A(z) = I - W(z) kron G``, computed once per solve.
    Work memory is O(N P D R + B (P D)^2); no dense block matrix is formed.
    """
    n_rows, p, _ = weights.shape
    # a block no longer than the system: lags past its last row would enter
    # A(z) as zeros, and the inverse of that series can grow without bound
    b = max(1, min(_BLOCK, n_rows))
    d, r = forcing.shape[2:]
    n_blocks = -(-n_rows // b)
    padded = np.zeros((max(n_blocks, 2) * b, p, p))
    padded[:n_rows] = weights
    series = -np.einsum("lab,ij->laibj", padded[:b], g_mat).reshape(b, p * d, p * d)
    series[0] += np.eye(p * d)
    inverse_hat = np.fft.fft(_series_inverse(series), n=2 * b, axis=0)
    # window q holds lags qB .. qB + 2B - 1: the lags between target block
    # c and source block c - 1 - q (its entry 0 reaches no kept output).
    # Stored last window first, as (2B, P, window, P): block c reads the
    # trailing c windows against source blocks 0 .. c-1.
    starts = slice(0, max(n_blocks - 1, 0) * b, b)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * b, axis=0)[starts]
    window_hat = np.fft.fft(windows[::-1], axis=-1).transpose(3, 1, 0, 2).copy()
    source_hat = np.empty((2 * b, n_blocks, p, d * r), dtype=complex)
    for c in range(n_blocks):
        x = forcing[c * b : (c + 1) * b]  # the last block may be short
        if c:
            lag_hat = window_hat[:, :, n_blocks - 1 - c :].reshape(2 * b, p, c * p)
            acc = lag_hat @ source_hat[:, :c].reshape(2 * b, c * p, d * r)
            # circular index B + m is row cB + m: lags B + m - i never wrap
            x += np.fft.ifft(acc, axis=0)[b : b + len(x)].reshape(x.shape)
        block = np.fft.fft(x.reshape(len(x), p * d, r), n=2 * b, axis=0)
        x[...] = np.fft.ifft(inverse_hat @ block, axis=0)[: len(x)].reshape(x.shape)
        source_hat[:, c] = np.fft.fft(g_mat @ x, n=2 * b, axis=0).reshape(2 * b, p, d * r)


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
    node yet), a one-off O(h^3) contribution.  Steps 2, 3, ... are solved
    in (even, odd) pairs, a block-Toeplitz system in the pair index.
    """
    h = grid[1] - grid[0]
    n = grid.size - 1
    g_mat = gen.matrix
    b0, b1, b2 = _regular_kernel_moments(kernel, h, n)
    # nodal weights of the quadratic shaped on pair (2i, 2i+1, 2i+2):
    # cell 2i uses xi = theta, cell 2i+1 uses xi = 1 + theta
    w_first = np.stack([(b2 - 3 * b1 + 2 * b0) / 2, 2 * b1 - b2, (b2 - b1) / 2])
    w_second = np.stack([(b2 - b1) / 2, b0 - b2, (b2 + b1) / 2])
    gy0 = g_mat @ y0
    y1 = np.linalg.solve(np.eye(g_mat.shape[0]) - b1[0] * g_mat, y0 + (b0[0] - b1[0]) * gy0)
    # Every node 1 <= j <= k collects the same pair cells at the same lags
    # k - j for all steps k >= 2 of one parity, so its weight is
    # lags[k % 2][k - j] (lag 0: the implicit weight): read both rows off
    # the last step of each parity.  Node 0 lies in the first pair only.
    n_pairs = n // 2
    lags = np.zeros((2, 2 * n_pairs + 2))
    for kk in range(max(n - 1, 2), n + 1):
        lags[kk % 2, : kk + 1] = _pair_weights(kk, w_first, w_second)[::-1]
    w_node0 = np.zeros(2 * n_pairs + 2)
    w_node0[2 : n + 1] = w_first[0][1:] + w_second[0][:-1]
    # pair p holds steps (2p + 2, 2p + 3); step k = 2p + 2 + e meets step
    # 2q + 2 + e' at lag 2 (p - q) + e - e'
    e = np.arange(2)
    lag = 2 * np.arange(n_pairs)[:, None, None] + e[:, None] - e
    weights = np.where(lag >= 0, lags[e[:, None], np.maximum(lag, 0)], 0.0)
    # node 0 and step 1 are known forcing; for even n the last pair holds
    # a step n + 1, solved and dropped (no earlier step depends on it)
    k = np.arange(2, 2 * n_pairs + 2)
    y = np.empty((2 * n_pairs + 2,) + y0.shape, dtype=complex)
    y[0], y[1] = y0, y1
    y[2:] = y0 + w_node0[k, None, None] * gy0
    y[2:] += lags[k % 2, k - 1, None, None] * (g_mat @ y1)
    _toeplitz_solve(weights, g_mat, y[2:].reshape((n_pairs, 2) + y0.shape))
    return y[: n + 1]


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
    # node j <= k collects (d0 - d1)[k-1-j] from cell j and d1[k-j] from
    # cell j - 1; node 0 drops out, since phi[0] = 0
    lags = np.empty(n)
    lags[0] = d1[0]
    lags[1:] = (d0 - d1)[:-1] + d1[1:]
    phi = np.multiply.outer(t_pows[n_subtract + 1][1:], c_vecs[n_subtract + 1])
    _toeplitz_solve(c_pref * lags[:, None, None], g_mat, phi[:, None])
    series = np.einsum("kt,kdr->tdr", t_pows[: n_subtract + 1].astype(complex), np.stack(c_vecs[: n_subtract + 1]))
    series[1:] += phi
    return series


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

    The kernel's waiting law decides: exponential waiting (Poisson
    counting) returns the symbolic :class:`DeltaLine` at ``tau = A1 t``.
    Hypoexponential waiting raises :class:`SubordinationUnavailableError`
    (no pointwise density exists even in the safe regime;
    :func:`subordination_solve` needs none), and so does a density whose
    Talbot inversion is not certified (fractional alpha of 0.7 and above).
    A kernel without a waiting law raises :class:`DangerousKernelError`;
    ``t <= 0`` raises :class:`DomainError`.
    """
    waiting = kernel.waiting()
    if isinstance(waiting, ExponentialWaiting):
        return DeltaLine(location=waiting.rate * float(t))
    if isinstance(waiting, HypoexponentialWaiting):
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
    (:meth:`~ctqrw.kernels.MemoryKernel.talbot_decay_factor`, one call for
    all decaying sectors), one path for every safe kernel; the lam = 0
    sector is one by normalization of P.  Complex damping rates are
    supported: the poles each built-in kernel names are handed to
    :func:`~ctqrw.laplace.invert`, which inverts exactly those that a
    contour misses.  A :class:`~ctqrw.kernels.LaplaceKernel` names none, so
    a pole of its transform outside the contour of a long time can go
    unseen by the two-contour check.
    A kernel without a waiting law raises :class:`DangerousKernelError`,
    and an uncertified inversion raises :class:`InversionError`.
    """
    kernel.waiting()
    grid = check_grid(grid)
    decaying = np.abs(basis.rates) >= 1e-12
    hs = np.ones((basis.rates.size, grid.size), dtype=complex)
    hs[decaying] = kernel.talbot_decay_factor(basis.rates[decaying], grid)
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
