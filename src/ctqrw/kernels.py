"""Memory kernels, waiting-time distributions, and their Laplace duality.

A memory kernel K(t) and a renewal waiting-time density w(tau) are two
faces of one object, linked by ``Ktilde(u) = u wtilde(u) / (1 - wtilde(u))``
and its inverse ``wtilde(u) = 1 / (u / Ktilde(u) + 1)``.  A kernel is *safe*
when the induced w is a genuine probability density (completely monotone
wtilde); safe kernels admit a renewal-process interpretation and therefore
yield completely positive dynamics regardless of the scattering map.

Built-in variants (units in seconds):

* ``MarkovianKernel(rate)``:        K(t) = A1 delta(t),       w ~ Exp(A1)
* ``ExponentialKernel(amplitude, decay)``: K(t) = A_eps e^{-gamma t};
  safe iff gamma^2 > 4 A_eps, with hypoexponential waiting
  r_{1,2} = (gamma -/+ sqrt(gamma^2 - 4 A_eps)) / 2
* ``FractionalKernel(amplitude, alpha)``:  Ktilde(u) = A u^{1-alpha},
  Mittag-Leffler waiting, always safe for 0 < alpha <= 1
* ``LaplaceKernel(transform)``: user-supplied Ktilde(u); classified by a
  finite numeric complete-monotonicity probe and handled by fixed-Talbot
  inversion.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import roots_legendre

from . import laplace, special
from .errors import (
    BadParametersError,
    DangerousKernelError,
    DomainError,
    NotADistributionError,
    UnsupportedKernelError,
)

# ---------------------------------------------------------------------------
# kernel variants


@dataclass(frozen=True)
class MarkovianKernel:
    """Delta kernel K(t) = rate * delta(t); rate A1 in 1/sec."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise BadParametersError(f"rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class ExponentialKernel:
    """K(t) = amplitude * exp(-decay * t); amplitude A_eps in 1/sec^2, decay gamma in 1/sec."""

    amplitude: float
    decay: float

    def __post_init__(self):
        if self.amplitude <= 0 or self.decay <= 0:
            raise BadParametersError("amplitude and decay must be > 0")

    @property
    def discriminant(self) -> float:
        return self.decay**2 - 4.0 * self.amplitude

    def waiting_rates(self) -> tuple[float, float]:
        """Hypoexponential rates r1 <= r2 (safe regime only)."""
        d = self.discriminant
        if d < 0:
            raise DangerousKernelError(
                f"gamma^2 = {self.decay**2:g} < 4 A_eps = {4 * self.amplitude:g}"
            )
        s = np.sqrt(d)
        return (self.decay - s) / 2.0, (self.decay + s) / 2.0


@dataclass(frozen=True)
class FractionalKernel:
    """Ktilde(u) = amplitude * u^(1-alpha); amplitude A_alpha in 1/sec^alpha, 0 < alpha <= 1."""

    amplitude: float
    alpha: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise BadParametersError("amplitude must be > 0")
        if not (0.0 < self.alpha <= 1.0):
            raise BadParametersError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class LaplaceKernel:
    """Kernel given through its Laplace transform Ktilde(u).

    `transform` must accept complex u (the classifier and the Talbot
    inverter evaluate it off the real axis).  `scale` is a characteristic
    rate used to center the numeric probes.
    """

    transform: Callable
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise BadParametersError("scale must be > 0")


MemoryKernel = MarkovianKernel | ExponentialKernel | FractionalKernel | LaplaceKernel


def kernel_laplace(kernel: MemoryKernel, u):
    """Ktilde(u) for real or complex u (u > 0 on the real axis)."""
    if isinstance(kernel, MarkovianKernel):
        return kernel.rate * np.ones_like(np.asarray(u))
    if isinstance(kernel, ExponentialKernel):
        return kernel.amplitude / (np.asarray(u) + kernel.decay)
    if isinstance(kernel, FractionalKernel):
        return kernel.amplitude * np.asarray(u) ** (1.0 - kernel.alpha)
    if isinstance(kernel, LaplaceKernel):
        return kernel.transform(np.asarray(u))
    raise UnsupportedKernelError(f"unknown kernel {kernel!r}")


def kernel_time_scale(kernel: MemoryKernel) -> float:
    """The characteristic time T with A1 = A_alpha^(1/alpha) = A_eps/gamma = 1/T."""
    if isinstance(kernel, MarkovianKernel):
        return 1.0 / kernel.rate
    if isinstance(kernel, ExponentialKernel):
        return kernel.decay / kernel.amplitude
    if isinstance(kernel, FractionalKernel):
        return kernel.amplitude ** (-1.0 / kernel.alpha)
    return 1.0 / kernel.scale


# ---------------------------------------------------------------------------
# waiting-time distributions


@dataclass(frozen=True)
class ExponentialWaiting:
    """w(t) = rate * exp(-rate t)."""

    rate: float


@dataclass(frozen=True)
class HypoexponentialWaiting:
    """Sum of two independent exponentials with rates r1, r2.

    Dual to the safe exponential kernel: r1 r2 = A_eps, r1 + r2 = gamma.
    """

    r1: float
    r2: float


@dataclass(frozen=True)
class MittagLefflerWaiting:
    """Survival E_alpha(-amplitude * t^alpha); heavy tail ~ t^-(1+alpha)."""

    amplitude: float
    alpha: float


@dataclass(frozen=True)
class EmpiricalWaiting:
    """Tabulated density on a grid (from numeric kernel inversion)."""

    times: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.pdf, dtype=float)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t))])
        total = cdf[-1]
        if total <= 0:
            raise NotADistributionError(float(t[np.argmin(p)]), float(p.min()))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "pdf", p / total)
        object.__setattr__(self, "cdf", cdf / total)


WaitingTimeDistribution = (
    ExponentialWaiting | HypoexponentialWaiting | MittagLefflerWaiting | EmpiricalWaiting
)


def waiting_from_kernel(kernel: MemoryKernel, grid: np.ndarray | None = None):
    """The waiting-time distribution dual to a kernel (Eq. duality).

    Raises :class:`NotADistributionError` with a witness time when the
    inverted density goes negative (dangerous kernel).
    """
    if isinstance(kernel, MarkovianKernel):
        return ExponentialWaiting(rate=kernel.rate)
    if isinstance(kernel, ExponentialKernel):
        if kernel.discriminant < 0:
            t_witness, value, _ = _exponential_negative_witness(kernel)
            raise NotADistributionError(t_witness, value)
        r1, r2 = kernel.waiting_rates()
        return HypoexponentialWaiting(r1=r1, r2=r2)
    if isinstance(kernel, FractionalKernel):
        return MittagLefflerWaiting(amplitude=kernel.amplitude, alpha=kernel.alpha)
    if isinstance(kernel, LaplaceKernel):
        if grid is None:
            t_max = 20.0 * kernel_time_scale(kernel)
            grid = np.linspace(t_max / 4000.0, t_max, 4000)

        def wtilde(u):
            k = kernel.transform(u)
            return k / (u + k)

        pdf = laplace.invert(wtilde, grid)
        if pdf.min() < -1e-9 * max(pdf.max(), 1e-30):
            i = int(np.argmin(pdf))
            raise NotADistributionError(float(grid[i]), float(pdf[i]))
        return EmpiricalWaiting(times=grid, pdf=np.clip(pdf, 0.0, None))
    raise UnsupportedKernelError(f"unknown kernel {kernel!r}")


def _exponential_negative_witness(kernel: ExponentialKernel):
    """First-lobe witness w(t*) < 0 for a dangerous exponential kernel.

    Evaluated with mpmath: near the safe boundary the lobe sits at
    t* = 3 pi / sqrt(4 A - gamma^2) where exp(-gamma t*/2) underflows
    float64.  Returns (t*, w(t*) as float with at least the sign preserved,
    log10|w(t*)|).
    """
    import mpmath

    a, g = mpmath.mpf(kernel.amplitude), mpmath.mpf(kernel.decay)
    root = mpmath.sqrt(4 * a - g * g)
    t_star = 3 * mpmath.pi / root
    w = 2 * a * mpmath.exp(-g * t_star / 2) * mpmath.sin(root * t_star / 2) / root
    w_float = float(w)
    if w_float == 0.0:  # underflow; keep the (negative) sign
        w_float = -5e-324
    return float(t_star), w_float, float(mpmath.log(abs(w), 10))


def waiting_pdf(waiting: WaitingTimeDistribution, t):
    """Density w(t); vectorized.  Diverges as t^(alpha-1) at 0 for the
    Mittag-Leffler variant."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise DomainError("t must be >= 0")
    if isinstance(waiting, ExponentialWaiting):
        out = waiting.rate * np.exp(-waiting.rate * t_arr)
    elif isinstance(waiting, HypoexponentialWaiting):
        r1, r2 = waiting.r1, waiting.r2
        if abs(r2 - r1) < 1e-12 * r2:
            out = r1 * r2 * t_arr * np.exp(-r1 * t_arr)
        else:
            out = r1 * r2 / (r2 - r1) * (np.exp(-r1 * t_arr) - np.exp(-r2 * t_arr))
    elif isinstance(waiting, MittagLefflerWaiting):
        a, al = waiting.amplitude, waiting.alpha
        out = np.empty_like(t_arr)
        zero = t_arr == 0.0
        out[zero] = a if al == 1.0 else np.inf
        ts = t_arr[~zero]
        out[~zero] = a * ts ** (al - 1.0) * special.mittag_leffler(al, a * ts**al, beta=al)
    elif isinstance(waiting, EmpiricalWaiting):
        out = np.interp(t_arr, waiting.times, waiting.pdf, left=float(waiting.pdf[0]), right=0.0)
    else:
        raise UnsupportedKernelError(f"unknown waiting distribution {waiting!r}")
    return float(out[0]) if np.isscalar(t) or getattr(t, "ndim", 1) == 0 else out


def waiting_survival(waiting: WaitingTimeDistribution, t):
    """Survival probability P0(t) = 1 - int_0^t w; vectorized."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise DomainError("t must be >= 0")
    if isinstance(waiting, ExponentialWaiting):
        out = np.exp(-waiting.rate * t_arr)
    elif isinstance(waiting, HypoexponentialWaiting):
        r1, r2 = waiting.r1, waiting.r2
        if abs(r2 - r1) < 1e-12 * r2:
            out = (1.0 + r1 * t_arr) * np.exp(-r1 * t_arr)
        else:
            out = (r2 * np.exp(-r1 * t_arr) - r1 * np.exp(-r2 * t_arr)) / (r2 - r1)
    elif isinstance(waiting, MittagLefflerWaiting):
        out = special.mittag_leffler(waiting.alpha, waiting.amplitude * t_arr**waiting.alpha)
    elif isinstance(waiting, EmpiricalWaiting):
        out = 1.0 - np.interp(t_arr, waiting.times, waiting.cdf, left=0.0, right=1.0)
    else:
        raise UnsupportedKernelError(f"unknown waiting distribution {waiting!r}")
    return float(out[0]) if np.isscalar(t) or getattr(t, "ndim", 1) == 0 else out


def waiting_laplace(waiting: WaitingTimeDistribution, u):
    """wtilde(u) for the closed-form variants (duality round trips)."""
    u = np.asarray(u)
    if isinstance(waiting, ExponentialWaiting):
        return waiting.rate / (waiting.rate + u)
    if isinstance(waiting, HypoexponentialWaiting):
        return (waiting.r1 / (waiting.r1 + u)) * (waiting.r2 / (waiting.r2 + u))
    if isinstance(waiting, MittagLefflerWaiting):
        return waiting.amplitude / (waiting.amplitude + u**waiting.alpha)
    raise UnsupportedKernelError("no closed-form transform for this variant")


def kernel_from_waiting(waiting: WaitingTimeDistribution):
    """Ktilde(u) induced by a waiting distribution (duality direction 2)."""

    def ktilde(u):
        w = waiting_laplace(waiting, u)
        return u * w / (1.0 - w)

    return ktilde


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class KernelVerdict:
    """Outcome of the stochastic-interpretability test.

    verdict is "safe", "dangerous" or "safe-conditional" (finite numeric
    probe passed; complete monotonicity is an infinite family of conditions,
    so a pass certifies nothing beyond the probed orders).  `certificate`
    describes the witness; `witness` carries its numbers.
    """

    verdict: str
    certificate: str
    witness: dict = field(default_factory=dict)

    @property
    def is_safe(self) -> bool:
        return self.verdict in ("safe", "safe-conditional")


def _circle_derivatives(f, center: float, radius: float, n_max: int):
    """Taylor coefficients a_n = f^(n)(center)/n! by FFT on a circle.

    Needs f analytic and evaluable at complex points; this is how the CM
    probe reaches order 8 without finite-difference noise.
    """
    m = 256
    z = center + radius * np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.asarray(f(z), dtype=complex)
    coeffs = np.fft.fft(vals) / m
    return np.real(coeffs[: n_max + 1]) / radius ** np.arange(n_max + 1)


def classify_kernel(kernel: MemoryKernel, probe_order: int = 8) -> KernelVerdict:
    """Safe/dangerous classification.

    Built-ins are classified by exact criteria; a LaplaceKernel gets the
    numeric probe: wtilde(u) = 1/(u/Ktilde(u) + 1) must be positive with
    alternating derivative signs up to `probe_order` on a log grid spanning
    [1e-3, 1e3] times the kernel scale, plus a time-domain positivity check
    of the inverted density.
    """
    if isinstance(kernel, MarkovianKernel):
        return KernelVerdict(
            verdict="safe",
            certificate=f"exponential waiting density {kernel.rate:g} exp(-{kernel.rate:g} t)",
        )
    if isinstance(kernel, FractionalKernel):
        return KernelVerdict(
            verdict="safe",
            certificate=(
                f"Mittag-Leffler waiting density, alpha={kernel.alpha:g}; wtilde is CM "
                "for 0 < alpha <= 1"
            ),
        )
    if isinstance(kernel, ExponentialKernel):
        if kernel.discriminant >= 0:
            r1, r2 = kernel.waiting_rates()
            return KernelVerdict(
                verdict="safe",
                certificate=f"hypoexponential waiting with rates r1={r1:g}, r2={r2:g}",
                witness={"r1": r1, "r2": r2},
            )
        t_w, w_val, log10_w = _exponential_negative_witness(kernel)
        return KernelVerdict(
            verdict="dangerous",
            certificate=f"waiting density negative at t={t_w:g} (first negative lobe)",
            witness={"t": t_w, "w_value": w_val, "log10_abs_w": log10_w},
        )
    if isinstance(kernel, LaplaceKernel):

        def wtilde(u):
            k = kernel.transform(u)
            return k / (u + k)

        for u0 in np.geomspace(1e-3 * kernel.scale, 1e3 * kernel.scale, 25):
            coeffs = _circle_derivatives(wtilde, float(u0), 0.5 * float(u0), probe_order)
            signs = coeffs * (-1.0) ** np.arange(probe_order + 1)
            bad = np.where(signs < -1e-9 * np.max(np.abs(coeffs)))[0]
            if bad.size:
                return KernelVerdict(
                    verdict="dangerous",
                    certificate=(
                        f"CM probe failed at u={u0:.3g}: derivative order {bad[0]} has the "
                        "wrong sign"
                    ),
                    witness={"u": float(u0), "order": int(bad[0])},
                )
        try:
            waiting_from_kernel(kernel)
        except NotADistributionError as exc:
            return KernelVerdict(
                verdict="dangerous",
                certificate=f"inverted waiting density negative at t={exc.witness_t:g}",
                witness={"t": exc.witness_t, "w_value": exc.value},
            )
        return KernelVerdict(
            verdict="safe-conditional",
            certificate=(
                f"numeric probe only: wtilde sign-alternating through order {probe_order} "
                "on the log grid and inverted density nonnegative"
            ),
            witness={"order": probe_order},
        )
    raise UnsupportedKernelError(f"unknown kernel {kernel!r}")


# ---------------------------------------------------------------------------
# sampling

_ML_TINY = 1e-12


def uniforms_per_draw(waiting: WaitingTimeDistribution) -> int:
    """Raw uniforms consumed by one waiting time of this variant."""
    if isinstance(waiting, (ExponentialWaiting, EmpiricalWaiting)):
        return 1
    if isinstance(waiting, (HypoexponentialWaiting, MittagLefflerWaiting)):
        return 2
    raise UnsupportedKernelError(f"unknown waiting distribution {waiting!r}")


def waiting_from_uniforms(waiting: WaitingTimeDistribution, u) -> np.ndarray:
    """Waiting times from raw uniforms; ``u[..., j]`` is uniform j of each draw.

    Exponential and empirical: inverse CDF.  Hypoexponential: sum of two
    exponentials.  Mittag-Leffler: the exponential-times-stable product
    formula (Fulger, Scalas and Germano, PRE 77, 021122, 2008)
    ``tau = -ln U [sin(a pi)/tan(a pi V) - cos(a pi)]^(1/a) / A^(1/a)``
    (exact heavy tail, O(1) per draw; verified against the survival oracle
    in the tests).  Elementwise, so any batch layout gives the same values.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(waiting, (ExponentialWaiting, EmpiricalWaiting)):
        return waiting_inverse_cdf(waiting, u[..., 0])
    if isinstance(waiting, HypoexponentialWaiting):
        return -np.log1p(-u[..., 0]) / waiting.r1 + -np.log1p(-u[..., 1]) / waiting.r2
    if isinstance(waiting, MittagLefflerWaiting):
        a = waiting.alpha
        first = np.clip(u[..., 0], _ML_TINY, 1.0 - _ML_TINY)
        second = np.clip(u[..., 1], _ML_TINY, 1.0 - _ML_TINY)
        if a == 1.0:
            return -np.log(first) / waiting.amplitude
        bracket = np.sin(a * np.pi) / np.tan(a * np.pi * second) - np.cos(a * np.pi)
        return -np.log(first) * bracket ** (1.0 / a) / waiting.amplitude ** (1.0 / a)
    raise UnsupportedKernelError(f"unknown waiting distribution {waiting!r}")


def sample_waiting(waiting: WaitingTimeDistribution, rng: np.random.Generator, size=None):
    """Draw renewal intervals through :func:`waiting_from_uniforms`.

    A batch draws the first uniform of every interval, then the second, so
    a scalar call consumes the stream in per-draw order.
    """
    n = 1 if size is None else int(size)
    u = rng.random((uniforms_per_draw(waiting), n)).T
    out = waiting_from_uniforms(waiting, u)
    return float(out[0]) if size is None else out


def waiting_inverse_cdf(waiting: WaitingTimeDistribution, q):
    """Quantile function for the variants with a tractable CDF."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if isinstance(waiting, ExponentialWaiting):
        return -np.log1p(-q) / waiting.rate
    if isinstance(waiting, EmpiricalWaiting):
        return np.interp(q, waiting.cdf, waiting.times)
    raise UnsupportedKernelError("no closed-form quantile for this variant")


# ---------------------------------------------------------------------------
# renewal mean


def renewal_mean_count(kernel: MemoryKernel, t):
    """Expected renewal count <N(t)> = int_0^t K(t-s) s ds (safe kernels).

    Markovian: A1 t.  Fractional: A t^alpha / Gamma(1+alpha).
    Exponential (safe): (A/gamma) t - (A/gamma^2)(1 - exp(-gamma t)).
    LaplaceKernel: numeric Talbot inversion of Ktilde(u)/u^2.
    """
    verdict = classify_kernel(kernel)
    if not verdict.is_safe:
        raise DangerousKernelError(verdict.certificate)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(kernel, MarkovianKernel):
        out = kernel.rate * t_arr
    elif isinstance(kernel, FractionalKernel):
        out = kernel.amplitude * t_arr**kernel.alpha / _gamma(1.0 + kernel.alpha)
    elif isinstance(kernel, ExponentialKernel):
        a, g = kernel.amplitude, kernel.decay
        out = (a / g) * t_arr - (a / g**2) * (1.0 - np.exp(-g * t_arr))
    else:
        out = laplace.invert_grid(lambda u: kernel.transform(u) / u**2, t_arr)
    return float(out[0]) if np.isscalar(t) or getattr(t, "ndim", 1) == 0 else out


def survival_cell_integrals(waiting, edges: np.ndarray, n_gauss: int = 6) -> np.ndarray:
    """int_{edges[i]}^{edges[i+1]} P0(s) ds by per-cell Gauss-Legendre.

    Used by the renewal convolution quadrature to build exact first-moment
    weights of the (possibly singular) waiting density.
    """
    nodes, wts = roots_legendre(n_gauss)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * nodes[None, :]
    vals = waiting_survival(waiting, pts.ravel()).reshape(pts.shape)
    return (vals * wts[None, :]).sum(axis=1) * half[:, 0]
