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
  ``rho(t) = int_0^inf P(t,tau) rho^M(tau) dtau`` with P obtained by
  fixed-Talbot inversion.  For exponential kernels no pointwise density
  exists even in the safe regime (hypoexponential renewal counting is
  under-dispersed, so no positive Poisson mixture reproduces it); there the
  same object is evaluated in the Laplace domain by inverting
  ``h_lam(u) = 1/(u + lam Ktilde(u))``.

Plus the short-time linear-entropy laws and the Choi-matrix CP audit of a
solution route.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln, roots_legendre

from . import laplace
from .errors import (
    BadParametersError,
    DangerousKernelError,
    DimMismatchError,
    DomainError,
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
    grid = np.asarray(grid, dtype=float)
    hs = np.array([np.asarray(kernel.decay_factor(lam, grid), dtype=complex) for lam in basis.rates])
    return basis.evolve(rho0, hs)


# ---------------------------------------------------------------------------
# Volterra quadrature route

_TRACE_DRIFT = 1e-6


def _check_uniform(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    steps = np.diff(grid)
    if grid.size < 2 or grid[0] != 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise BadParametersError("this solver needs a uniform grid of at least two points starting at 0")
    return grid


def _exp_aux_integrals(a: float) -> np.ndarray:
    """I_p(a) = int_0^1 e^{a theta} theta^p dtheta, p = 0, 1, 2."""
    if abs(a) < 1e-5:
        return np.array(
            [
                1.0 + a / 2 + a * a / 6 + a**3 / 24,
                0.5 + a / 3 + a * a / 8 + a**3 / 30,
                1.0 / 3 + a / 4 + a * a / 10 + a**3 / 36,
            ]
        )
    ea = np.exp(a)
    return np.array(
        [
            (ea - 1.0) / a,
            (ea * (a - 1.0) + 1.0) / a**2,
            (ea * (a * a - 2.0 * a + 2.0) - 2.0) / a**3,
        ]
    )


def _regular_kernel_moments(kernel, h: float, n: int) -> np.ndarray:
    """B_p[m] = h int_0^1 R((m + 1 - theta) h) theta^p dtheta, p = 0, 1, 2,
    where R(x) = int_0^x K is the integrated kernel (exact for the
    exponential kernel, per-cell Gauss on Talbot values otherwise)."""
    m = np.arange(n)
    b = np.empty((3, n))
    if isinstance(kernel, ExponentialKernel):
        a_eps, g = kernel.amplitude, kernel.decay
        iv = _exp_aux_integrals(g * h)
        decay = np.exp(-g * (m + 1.0) * h)
        for p in range(3):
            b[p] = h * (a_eps / g) * (1.0 / (p + 1) - decay * iv[p])
        return b
    nodes, wts = roots_legendre(8)
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
    for k in range(1, n + 1):
        w = np.zeros(k + 1)
        if k == 1:
            w[0] = b0[0] - b1[0]
            w[1] = b1[0]
            inv = inv_lin
        else:
            n_paired = k if k % 2 == 0 else k - 1
            # even cells (first of pair) have lags k-1, k-3, ...;
            # odd cells (second of pair) have lags k-2, k-4, ...
            stop_f = k - 1 - n_paired
            stop_s = k - 2 - n_paired
            m_first = slice(k - 1, stop_f if stop_f >= 0 else None, -2)
            m_second = slice(k - 2, stop_s if stop_s >= 0 else None, -2)
            for p in range(3):
                # pair anchored at even cell 2i: its first cell adds
                # w_first[p] and its second cell w_second[p], both to node
                # 2i + p; the slices walk the anchors in ascending order
                # while the lag slices walk m = k-1-cell descending
                w[p : p + n_paired : 2] += w_first[p][m_first]
                w[p : p + n_paired : 2] += w_second[p][m_second]
            if k % 2 == 1:
                # trailing cell k-1 through the backward pair (k-2, k-1, k)
                for p in range(3):
                    w[k - 2 + p] += w_second[p][0]
                inv = inv_odd
            else:
                inv = inv_even
        y[k] = inv @ (y[0] + np.tensordot(w[:k], gy[:k], axes=(0, 0)))
        gy[k] = g_mat @ y[k]
    return y


def _volterra_fractional(gen, kernel, y0, grid, n_subtract: int | None = None):
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
    if n_subtract is None:
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
    c_pref = a_amp / np.exp(gammaln(alpha))
    c_vecs = [y0.astype(complex)]
    for k in range(1, n_subtract + 2):
        c_vecs.append(
            a_amp
            * (g_mat @ c_vecs[-1])
            * np.exp(gammaln(1 + (k - 1) * alpha) - gammaln(1 + k * alpha))
        )
    t_pows = np.array([grid ** (k * alpha) for k in range(n_subtract + 2)])
    lhs_inv = np.linalg.inv(np.eye(d2) - c_pref * d1[0] * g_mat)
    phi = np.zeros((n + 1,) + y0.shape, dtype=complex)
    gphi = np.zeros_like(phi)
    top = c_vecs[n_subtract + 1]
    for k in range(1, n + 1):
        w_prev = (d0 - d1)[:k][::-1]  # pairs with gphi[0..k-1]
        conv = np.tensordot(w_prev, gphi[:k], axes=(0, 0))
        if k > 1:
            w_next = d1[1:k][::-1]  # pairs with gphi[1..k-1]
            conv += np.tensordot(w_next, gphi[1:k], axes=(0, 0))
        phi[k] = lhs_inv @ (t_pows[n_subtract + 1][k] * top + c_pref * conv)
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
    grid = _check_uniform(grid)
    batch, single = _as_batch(rho0)
    y0 = np.stack([vec(b) for b in batch], axis=1)
    if isinstance(kernel, MarkovianKernel):
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
    grid = _check_uniform(grid)
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

    Raises :class:`SubordinationUnavailableError` where the contour
    overflows: for fractional alpha > 1/2 the exponent grows on its left arm.
    """

    def fhat(s):
        ks = kernel.laplace(s)
        return np.exp(-taus[:, None, None] * s / ks) / ks

    with np.errstate(over="ignore", invalid="ignore"):
        density = laplace.invert(fhat, [t])[:, 0]
    if not np.all(np.isfinite(density)):
        raise SubordinationUnavailableError(
            f"the Talbot-inverted subordination density of {kernel!r} is not finite at t = {t:.6g}"
        )
    return density


def subordination_pdf(kernel: MemoryKernel, t: float, tau):
    """Internal-time density P(t, tau) via fixed-Talbot inversion of
    ``(1/Ktilde(u)) exp(-tau u/Ktilde(u))``.

    Markovian kernels return the symbolic :class:`DeltaLine` at
    ``tau = A1 t``.  Exponential kernels raise
    :class:`SubordinationUnavailableError` (no pointwise density exists
    even in the safe regime; see :func:`subordination_solve`), and so does
    a density the Talbot contour cannot evaluate (it can overflow for
    fractional alpha > 1/2).  Dangerous kernels raise
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


def _tau_quadrature(tau_max: float, n_panels: int = 24, n_nodes: int = 10):
    nodes, wts = roots_legendre(n_nodes)
    edges = np.linspace(0.0, tau_max, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * nodes[None, :]).ravel(), (half * wts[None, :]).ravel()


def subordination_solve(kernel: MemoryKernel, basis: DampingBasis, rho0, grid):
    """``rho(t) = int_0^inf P(t,tau) rho^M(tau) dtau`` on the grid.

    The lam = 0 sector integrates exactly to one by normalization of P;
    each decaying sector gets ``h_lam(t) = int P(t,tau) e^{-lam tau} dtau``
    by panel quadrature against the Talbot-inverted density (fractional and
    CM-verified custom kernels), truncated where both the density mass and
    the e^{-lam tau} weight are negligible.  Safe exponential kernels use
    the Laplace-domain form instead (see module docstring); dangerous
    kernels raise :class:`DangerousKernelError`, and a density the Talbot
    contour cannot evaluate (it can overflow for fractional alpha > 1/2)
    raises :class:`SubordinationUnavailableError`.  Complex damping rates are
    supported on every branch: the quadrature weight is the complex
    e^{-lam tau}, and the Laplace-domain form inverts the real and
    imaginary parts of h_lam separately.
    """
    mode = _subordination_mode(kernel)
    grid = np.asarray(grid, dtype=float)
    lams = basis.rates
    live = np.where(np.abs(lams) >= 1e-12)[0]

    hs = np.ones((lams.size, grid.size), dtype=complex)
    if mode != "density":
        decay = kernel.decay_factor if mode == "delta" else kernel.talbot_decay_factor
        for i in live:
            hs[i] = decay(lams[i], grid)
    elif live.size:
        # real rates keep a real quadrature sum
        rates = [lam.real if lam.imag == 0 else lam for lam in lams[live]]
        lam_min = float(np.min(np.real(lams[live])))
        for k, t in enumerate(grid):
            if t <= 0:
                continue
            m1 = float(kernel.mean_count(np.array([t]))[0])
            m2 = kernel.second_moment(float(t))
            sigma = np.sqrt(max(m2 - m1 * m1, 1e-30))
            tau_max = max(min(m1 + 12.0 * sigma, m1 + 30.0 / lam_min), 1e-6)
            taus, weights = _tau_quadrature(tau_max)
            p_vals = _density_at(kernel, float(t), taus)
            for i, rate in zip(live, rates):
                hs[i, k] = np.sum(weights * p_vals * np.exp(-rate * taus))
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
