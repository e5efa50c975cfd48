"""Memory kernels, waiting-time distributions, and their Laplace duality.

A memory kernel K(t) and a renewal waiting-time density w(tau) are two
faces of one object, linked by ``Ktilde(u) = u wtilde(u) / (1 - wtilde(u))``
and its inverse ``wtilde(u) = 1 / (u / Ktilde(u) + 1)``.  A kernel is *safe*
when the induced w is a genuine probability density (completely monotone
wtilde); safe kernels admit a renewal-process interpretation and therefore
yield completely positive dynamics regardless of the scattering map.
Every renewal route has one gate, ``kernel.waiting()``: the dual waiting
law, or :class:`DangerousKernelError` with a witness (a negative density is
a :class:`NotADistributionError`); ``verdict()`` reports the same checks.

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

Each variant is a frozen dataclass carrying its own formulas; the module
functions add only what all variants share.

The decay factors h_lam and the renewal count law come from one family of
transforms, ``1/(u + lam Ktilde(u))``: the count law of the dual waiting
law is ``P_n(t) = [z^n] h_{1-z}(t)`` (:meth:`MemoryKernel.count_table`).
On the circle of z that extracts the coefficients, the FFT of those
transforms is closed-form, ``wtilde^n / ((u + Ktilde) (1 - rho^N
wtilde^N))`` for row n.  Both inversions pass the poles a kernel names in
:meth:`MemoryKernel.poles` to :func:`laplace.invert`, which decides which
of them each contour misses and inverts those exactly.  Every waiting law
names its dual kernel and tabulates its count law there.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import laplace, special
from .errors import (
    BadParametersError,
    DangerousKernelError,
    DomainError,
    NotADistributionError,
    UnsupportedKernelError,
)

# ---------------------------------------------------------------------------
# decay factors h_lam(t)


def telegraph_h(t, lam, gamma: float, a_eps: float):
    """Exponential-kernel decay factor.

    ``h(t) = e^{-gamma t/2} [cosh(t Phi/2) + (gamma/Phi) sinh(t Phi/2)]``
    with ``Phi = sqrt(gamma^2 - 4 lam a_eps)``; h is even in Phi, so the
    complex square root branch is irrelevant, the oscillatory regime
    Phi^2 < 0 comes out through cosh(i x) = cos(x), and a sinh(z)/z series
    guard removes the cancellation at the degeneracy Phi -> 0.  lam may be
    complex, or an array that broadcasts against t.  h(0) = 1, h'(0) = 0,
    and h is exactly 1 at lam = 0 (the stationary sector of every kernel).
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    phi = np.sqrt(gamma * gamma - 4.0 * lam * a_eps)
    z = 0.5 * t * phi
    big = np.abs(z.real) > 30.0
    small = np.abs(z) < 1e-6
    z_safe = np.where(small | big, 1.0, z)
    z_small = np.where(small, z, 0.0)  # z * z overflows where |z| is huge
    sinhc = np.where(small, 1.0 + z_small * z_small / 6.0, np.sinh(z_safe) / z_safe)
    z_mod = np.where(big, 0.0, z)  # the big branch is overwritten below
    out = np.asarray(
        np.exp(-0.5 * gamma * t) * (np.cosh(z_mod) + 0.5 * gamma * t * sinhc), dtype=complex
    )
    if big.any():
        # log-stabilized two-exponential form: both exponents have
        # nonpositive real part for decaying dynamics, so nothing overflows;
        # the slow one, t (Phi - gamma)/2, is formed without cancellation
        tb, lamb, phib = (np.broadcast_to(x, z.shape)[big] for x in (t, lam, phi))
        ratio = gamma / phib
        e_plus = np.exp(-2.0 * lamb * a_eps * tb / (gamma + phib))
        e_minus = np.exp(-z[big] - 0.5 * gamma * tb)
        out[big] = 0.5 * (1.0 + ratio) * e_plus + 0.5 * (1.0 - ratio) * e_minus
    out[np.broadcast_to(lam == 0, out.shape)] = 1.0
    if np.max(np.abs(out.imag), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(out.real), initial=0.0)):
        out = out.real
    return out


def _check_positive(**values):
    """Raise :class:`BadParametersError` unless every value is finite and
    > 0; the comparisons fail for NaN."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise BadParametersError(f"{name} must be finite and > 0, got {value}")


def _check_count(name: str, value):
    """Raise :class:`BadParametersError` unless `value` is an integer >= 1:
    a Python or numpy integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise BadParametersError(f"{name} must be an integer >= 1, got {value!r}")


def _check_fractional(amplitude: float, alpha: float):
    """The Mittag-Leffler parameters: finite amplitude > 0, 0 < alpha <= 1."""
    _check_positive(amplitude=amplitude)
    if not (0.0 < alpha <= 1.0):
        raise BadParametersError(f"alpha must be in (0, 1], got {alpha}")


def _by_rate(lam, t: np.ndarray) -> np.ndarray:
    """`lam` as an array shaped to broadcast against `t` into rates x times."""
    lam = np.asarray(lam)
    return lam.reshape(lam.shape + (1,) * t.ndim)


COUNT_RHO_N = 1e-12  # rho^N of the count circle


def _count_circle(rows: int):
    """``z_k = rho e^{2 pi i k/N}``, k < N = 4 rows, ``rho^N = 1e-12``, and
    ``N rho^n``, n < rows: the FFT of ``sum_n z^n P_n`` over the z_k, over this
    scale, is P_n plus 1e-12 P_{n+N} (Abate and Whitt, ORL 12, 245, 1992).
    Raises :class:`BadParametersError` unless `rows` is an integer >= 1."""
    _check_count("rows", rows)
    n = 4 * rows
    rho = COUNT_RHO_N ** (1.0 / n)
    return rho * np.exp(2j * np.pi * np.arange(n) / n), n * rho ** np.arange(rows)


def _count_table(kernel, grid: np.ndarray, rows: int) -> np.ndarray:
    """:meth:`MemoryKernel.count_table` from a closed ``decay_factor`` at
    rates 1 - z, z on the upper half of :func:`_count_circle`; P_n is real,
    so ``h_{1-conj z} = conj h_{1-z}`` is the rest: one Hermitian FFT."""
    z, scale = _count_circle(rows)
    h = kernel.decay_factor(1.0 - z[: z.size // 2 + 1], grid)
    return np.fft.hfft(h, z.size, axis=0)[:rows] / scale[:, None]


# ---------------------------------------------------------------------------
# kernel variants


PROBE_ORDER = 8  # derivative orders checked by the numeric CM probe


class MemoryKernel:
    """Common base of the kernel variants.

    A variant defines ``laplace(u)``, Ktilde at real or complex u, and the
    property ``time_scale``, the characteristic time T with A1 =
    A_alpha^(1/alpha) = A_eps/gamma = 1/T.  The defaults here
    build everything else from ``laplace`` alone by fixed-Talbot inversion
    and the numeric complete-monotonicity probe, which is how
    :class:`LaplaceKernel` is served; the built-in variants override them
    with closed forms.  Only built-ins have a closed-form ``decay_factor``
    and ``short_time_law``.

    Both decay-factor methods take one rate or an array of rates, real or
    complex, and return h_lam(t) shaped rates x times: a solve evaluates
    its whole rate family in one call.
    """

    def __post_init__(self):
        """Refuse parameters whose time scale T is not a finite float > 0:
        a config grid is ``t_max_over_T * T``.  Each variant calls this after
        checking its own parameters."""
        try:
            with np.errstate(over="ignore", divide="ignore", under="ignore"):
                scale = float(self.time_scale)
        except OverflowError:
            scale = math.inf
        if not (math.isfinite(scale) and scale > 0):
            raise BadParametersError(
                f"{type(self).__name__} time scale T = {scale:g} is not finite and > 0"
            )

    def _waiting_laplace(self, u):
        k = self.laplace(u)
        return k / (u + k)

    def _checked_waiting(self):
        """(waiting law, probe orders left undecided) after the two checks of
        a kernel without closed forms, each run once.  First the numeric
        complete-monotonicity probe: wtilde(u) = 1/(u/Ktilde(u) + 1) must be
        positive with alternating derivative signs up to ``PROBE_ORDER`` on a
        log grid spanning [1e-3, 1e3] times the kernel rate (a derivative
        below the rounding floor of its probe circle has no sign to check),
        or :class:`DangerousKernelError` is raised with its witness.  Then
        the density, inverted on 4000 points up to 20 T, must be
        nonnegative, or :class:`NotADistributionError` is raised."""
        rate = 1.0 / self.time_scale
        orders = np.arange(PROBE_ORDER + 1)
        undecided = np.zeros(orders.shape, dtype=bool)
        for u0 in np.geomspace(1e-3 * rate, 1e3 * rate, 25):
            coeffs, floor = _circle_derivatives(self._waiting_laplace, float(u0), 0.5 * float(u0), PROBE_ORDER)
            decided = np.abs(coeffs) > floor
            undecided |= ~decided
            signs = coeffs * (-1.0) ** orders
            bad = np.flatnonzero(decided & (signs < -1e-9 * np.max(np.abs(coeffs[decided]), initial=0.0)))
            if bad.size:
                raise DangerousKernelError(
                    f"CM probe failed at u={u0:.3g}: derivative order {bad[0]} has the wrong sign",
                    {"u": float(u0), "order": int(bad[0])},
                )
        t_max = 20.0 * self.time_scale
        grid = np.linspace(t_max / 4000.0, t_max, 4000)
        pdf = laplace.invert(self._waiting_laplace, grid)
        if pdf.min() < -1e-9 * max(pdf.max(), 1e-30):
            i = int(np.argmin(pdf))
            raise NotADistributionError(float(grid[i]), float(pdf[i]))
        law = EmpiricalWaiting(times=grid, pdf=np.clip(pdf, 0.0, None), kernel=self)
        return law, orders[undecided].tolist()

    def waiting(self):
        """The dual waiting-time distribution, naming this kernel as its
        dual: the one gate of every renewal route.  Raises
        :class:`DangerousKernelError` (:class:`NotADistributionError` for a
        negative density) with the witness of the failed check."""
        return self._checked_waiting()[0]

    def verdict(self) -> "KernelVerdict":
        """The checks of :meth:`waiting` as a verdict: "dangerous" with the
        witness of the failed one, else "safe-conditional", whose
        certificate names the probe orders left undecided."""
        try:
            _, skipped = self._checked_waiting()
        except DangerousKernelError as exc:
            certificate = str(exc)
            if isinstance(exc, NotADistributionError):
                certificate = f"inverted waiting density negative at t={exc.witness_t:g}"
            return KernelVerdict(verdict="dangerous", certificate=certificate, witness=exc.witness)
        note = f" (orders {skipped} below rounding at some u, undecided)" if skipped else ""
        return KernelVerdict(
            verdict="safe-conditional",
            certificate=f"numeric probe only: wtilde sign-alternating through order {PROBE_ORDER} "
            f"on the log grid{note} and inverted density nonnegative",
            witness={"order": PROBE_ORDER, "undecided": skipped},
        )

    def mean_count(self, t: np.ndarray) -> np.ndarray:
        """<N(t)> = int_0^t K(t-s) s ds, by inversion of Ktilde(u)/u^2 (0 at t = 0)."""
        out = np.zeros(t.shape)
        if np.any(t > 0):  # laplace.invert takes no empty time array
            out[t > 0] = laplace.invert(lambda u: self.laplace(u) / u**2, t[t > 0])
        return out

    def decay_factor(self, lam, t):
        """Closed-form h_lam(t), the solution of h' = -lam K * h, h(0) = 1."""
        raise UnsupportedKernelError("closed-form decay functions exist for built-in kernels only")

    def poles(self, lam):
        """Simple poles p of ``1/(u + lam Ktilde(u))`` and their residues R,
        both shaped ``lam.shape + (n_poles,)``; R = 0 names none.  The
        default names none: :func:`laplace.invert` inverts the named poles
        that its contours miss exactly, and the others not at all."""
        empty = np.zeros(np.shape(lam) + (0,), dtype=complex)
        return empty, empty

    def talbot_decay_factor(self, lam, t) -> np.ndarray:
        """h_lam(t) by fixed-Talbot inversion of ``1/(u + lam Ktilde(u))``,
        every rate of `lam` in one :func:`laplace.invert` call, which takes
        the kernel's :meth:`poles`.

        The rule keeps real parts only, so Re h and Im h are inverted from the
        transforms ``(h(lam) + h(conj lam))/2`` and ``(h(lam) - h(conj lam))/2i``
        of real functions; for real lam the second vanishes.  Each names the
        poles of h(lam) and of h(conj lam), their residues combined alike.
        A conjugate or repeated rate is inverted once: ``h(conj lam) = conj
        h(lam)``.  h(0) = 1; no rates give an empty array.
        """
        lam = np.asarray(lam, dtype=complex)
        t = np.asarray(t, dtype=float)
        out = np.ones(lam.shape + t.shape, dtype=complex)
        reps, back = np.unique(lam.real + 1j * np.abs(lam.imag), return_inverse=True)
        if reps.size == 0 or not np.any(t > 0):
            return out
        rates = np.stack([reps, reps.conj()])
        pole, residue = self.poles(rates)
        zero = np.zeros_like(residue[0])

        def even_odd(h):
            return np.stack([(h[0] + h[1]) / 2, (h[0] - h[1]) / 2j])

        def fhat(u):
            h = u + rates[..., None, None] * self.laplace(u)
            np.divide(1.0, h, out=h)
            return even_odd(h)

        both = np.stack([np.concatenate([residue[0], zero], -1), np.concatenate([zero, residue[1]], -1)])
        poles = np.concatenate(pole, -1), even_odd(both)
        parts = laplace.invert(fhat, t[t > 0], poles=poles)
        h = (parts[0] + 1j * parts[1])[back.ravel()].reshape(lam.shape + (-1,))
        out[..., t > 0] = np.where((lam.imag < 0)[..., None], h.conj(), h)
        return out

    def _count_laplace(self, u, rows: int) -> np.ndarray:
        """Transforms of P_n, n < `rows`, at the points u, shape (rows,) +
        u.shape: the FFT of ``1/(u + (1 - z_k) Ktilde(u))`` over the
        :func:`_count_circle` over its scale, in closed form.

        With ``w = Ktilde/(u + Ktilde)`` that transform is ``1/((u + Ktilde)
        (1 - z_k w))``, a geometric series in ``z_k w``, and the DFT of a
        geometric series is geometric: row n is ``w^n / ((u + Ktilde) (1 -
        rho^N w^N))``, N = 4 rows.  Where |w| > 1 it is formed as ``v^(N-n) /
        ((u + Ktilde) (v^N - rho^N))``, v = 1/w, so no power exceeds 1.  The
        poles of the denominator in u are those of the transforms on the
        circle."""
        k = self.laplace(u)
        s = u + k
        w = k / s
        inside = np.abs(w) <= 1.0
        q = np.divide(1.0, w, out=w.copy(), where=~inside)  # |q| <= 1
        powers = np.empty((rows,) + q.shape, dtype=complex)
        powers[0] = 1.0
        powers[1:] = q
        np.cumprod(powers, axis=0, out=powers)
        q_rows = powers[-1] * q
        q_half = q_rows * q_rows
        q_n = q_half * q_half
        head = np.empty_like(q)
        np.divide(1.0, s * (1.0 - COUNT_RHO_N * q_n), out=head, where=inside)
        np.divide(q_half * q_rows * q, s * (q_n - COUNT_RHO_N), out=head, where=~inside)
        return np.where(inside, powers, powers[::-1]) * head

    def count_table(self, grid: np.ndarray, rows: int) -> np.ndarray:
        """Renewal count law P_n(t) of the dual waiting law, n < `rows`, on a
        grid t >= 0: shape (rows, n_grid), ``P_n(0) = delta_n0``.

        Row n is ``[z^n] h_{1-z}(t)`` on the circle of :func:`_count_circle`,
        whose transforms :meth:`_count_laplace` gives in closed form; the
        certified Talbot inversion checks every P_n.  Row n names the
        :meth:`poles` at the rates 1 - z_k that the contours may miss
        (:func:`laplace.may_miss`), with their residues times the weights
        ``e^{-2 pi i nk/N} / (N rho^n)`` of the FFT over the circle."""
        z, scale = _count_circle(rows)
        table = np.zeros((rows, grid.size))
        table[0, grid == 0] = 1.0
        times = grid[grid > 0]
        if times.size == 0:  # laplace.invert takes no empty time array
            return table
        pole, residue = self.poles(1.0 - z)
        k, j = np.nonzero(residue * laplace.may_miss(pole, times))  # (rows, K) only for these
        weights = np.exp(-2j * np.pi * (np.outer(np.arange(rows), k) % z.size) / z.size) / scale[:, None]
        poles = pole[k, j], weights * residue[k, j]
        table[:, grid > 0] = laplace.invert(lambda u: self._count_laplace(u, rows), times, poles=poles)
        return table

    def short_time_law(self) -> tuple[float, float]:
        """(exponent, prefactor) of the leading linear-entropy law
        ``delta(t) ~ prefactor <<E>> t^exponent``."""
        raise UnsupportedKernelError("short-time laws exist for built-in kernels")


@dataclass(frozen=True)
class MarkovianKernel(MemoryKernel):
    """Delta kernel K(t) = rate * delta(t); rate A1 in 1/sec."""

    rate: float

    def __post_init__(self):
        _check_positive(rate=self.rate)
        super().__post_init__()

    def laplace(self, u):
        return self.rate * np.ones_like(np.asarray(u))

    @property
    def time_scale(self) -> float:
        return 1.0 / self.rate

    def waiting(self):
        return ExponentialWaiting(rate=self.rate)

    def verdict(self) -> "KernelVerdict":
        return KernelVerdict(
            verdict="safe",
            certificate=f"exponential waiting density {self.rate:g} exp(-{self.rate:g} t)",
        )

    def mean_count(self, t):
        return self.rate * t

    def poles(self, lam):
        """``u = -lam A1``, residue 1."""
        lam = np.asarray(lam, dtype=complex)
        return (-lam * self.rate)[..., None], np.ones(lam.shape + (1,), dtype=complex)

    def decay_factor(self, lam, t):
        """exp(-lam A1 t); complex lam gives a complex factor."""
        t = np.asarray(t, dtype=float)
        return np.exp(-_by_rate(lam, t) * self.rate * t)

    count_table = _count_table  # Poisson: exp(rate (z - 1) t)

    def short_time_law(self):
        return 1.0, 2.0 * self.rate


@dataclass(frozen=True)
class ExponentialKernel(MemoryKernel):
    """K(t) = amplitude * exp(-decay * t); amplitude A_eps in 1/sec^2, decay gamma in 1/sec."""

    amplitude: float
    decay: float

    def __post_init__(self):
        _check_positive(amplitude=self.amplitude, decay=self.decay)
        super().__post_init__()

    @property
    def discriminant(self) -> float:
        return self.decay**2 - 4.0 * self.amplitude

    def laplace(self, u):
        return self.amplitude / (np.asarray(u) + self.decay)

    @property
    def time_scale(self) -> float:
        return self.decay / self.amplitude

    def waiting(self):
        """Hypoexponential waiting for gamma^2 >= 4 A_eps; otherwise raises
        :class:`NotADistributionError` at the first negative lobe."""
        if self.discriminant < 0:
            raise NotADistributionError(*_exponential_negative_witness(self)[:2])
        r2, r1 = -self.poles(1.0)[0].real  # the roots of u^2 + gamma u + A_eps, r1 <= r2
        return HypoexponentialWaiting(r1=r1, r2=r2)

    def verdict(self) -> "KernelVerdict":
        if self.discriminant >= 0:
            law = self.waiting()
            return KernelVerdict(
                verdict="safe",
                certificate=f"hypoexponential waiting with rates r1={law.r1:g}, r2={law.r2:g}",
                witness={"r1": law.r1, "r2": law.r2},
            )
        t_w, w_val, log10_w = _exponential_negative_witness(self)
        return KernelVerdict(
            verdict="dangerous",
            certificate=f"waiting density negative at t={t_w:g} (first negative lobe)",
            witness={"t": t_w, "w_value": w_val, "log10_abs_w": log10_w},
        )

    def mean_count(self, t):
        a, g = self.amplitude, self.decay
        return (a / g) * t - (a / g**2) * (1.0 - np.exp(-g * t))

    def poles(self, lam):
        """The roots ``p1 = -(gamma + Phi)/2`` and ``p2 = lam A_eps / p1`` of
        ``u^2 + gamma u + lam A_eps``, ``Phi = sqrt(gamma^2 - 4 lam A_eps)``,
        with residues ``(p + gamma)/(2p + gamma)``, that is ``p2/Phi`` and
        ``-p1/Phi``; the double root at Phi = 0 names none."""
        lam = np.asarray(lam, dtype=complex)[..., None]
        phi = np.sqrt(self.decay**2 - 4.0 * lam * self.amplitude)
        p1 = -0.5 * (self.decay + phi)  # Re phi >= 0: no cancellation
        pole = np.concatenate([p1, lam * self.amplitude / p1], axis=-1)
        return pole, np.divide(pole[..., ::-1] * [1, -1], phi, out=np.zeros_like(pole), where=phi != 0)

    def decay_factor(self, lam, t):
        """The telegraph factor :func:`telegraph_h`; accepts complex lam."""
        t = np.asarray(t, dtype=float)
        return telegraph_h(t, _by_rate(lam, t), self.decay, self.amplitude)

    count_table = _count_table  # hypoexponential: telegraph_h at 1 - z

    def short_time_law(self):
        return 2.0, self.amplitude


@dataclass(frozen=True)
class FractionalKernel(MemoryKernel):
    """Ktilde(u) = amplitude * u^(1-alpha); amplitude A_alpha in 1/sec^alpha, 0 < alpha <= 1."""

    amplitude: float
    alpha: float

    def __post_init__(self):
        _check_fractional(self.amplitude, self.alpha)
        super().__post_init__()

    def laplace(self, u):
        return self.amplitude * np.asarray(u) ** (1.0 - self.alpha)

    @property
    def time_scale(self) -> float:
        return self.amplitude ** (-1.0 / self.alpha)

    def waiting(self):
        return MittagLefflerWaiting(amplitude=self.amplitude, alpha=self.alpha)

    def verdict(self) -> "KernelVerdict":
        return KernelVerdict(
            verdict="safe",
            certificate=(
                f"Mittag-Leffler waiting density, alpha={self.alpha:g}; wtilde is CM "
                "for 0 < alpha <= 1"
            ),
        )

    def mean_count(self, t):
        return self.amplitude * t**self.alpha / math.gamma(1.0 + self.alpha)

    def poles(self, lam):
        """The root of ``u^alpha = -lam A_alpha`` on the principal sheet,
        ``|arg(-lam A_alpha)| < alpha pi`` (alpha > 1/2 only at Re lam >= 0),
        residue 1/alpha; none at lam = 0."""
        c = -self.amplitude * np.asarray(lam, dtype=complex)
        on_sheet = (c != 0) & (np.abs(np.angle(c)) < self.alpha * np.pi)
        pole = np.where(on_sheet, c ** (1.0 / self.alpha), 0.0)
        return pole[..., None], np.where(on_sheet, 1.0 / self.alpha, 0.0)[..., None]

    def decay_factor(self, lam, t):
        """E_alpha(-lam A_alpha t^alpha): :func:`special.mittag_leffler` at
        the real rates (imaginary part within 1e-10 of the real one, or of 1),
        one :meth:`talbot_decay_factor` call for the others."""
        lam = np.asarray(lam)
        t = np.asarray(t, dtype=float)
        rates = lam.ravel()
        real = np.abs(rates.imag) <= 1e-10 * np.maximum(1.0, np.abs(rates.real))
        x = _by_rate(rates.real[real] * self.amplitude, t) * t**self.alpha
        ml = special.mittag_leffler(self.alpha, x)
        if real.all():
            return ml.reshape(lam.shape + t.shape)
        out = np.empty(rates.shape + t.shape, dtype=complex)
        out[real] = ml
        out[~real] = self.talbot_decay_factor(rates[~real], t)
        return out.reshape(lam.shape + t.shape)

    def short_time_law(self):
        return self.alpha, 2.0 * self.amplitude / math.gamma(1.0 + self.alpha)


@dataclass(frozen=True)
class LaplaceKernel(MemoryKernel):
    """Kernel given through its Laplace transform Ktilde(u).

    `transform` must accept complex u (the classifier and the Talbot
    inverter evaluate it off the real axis).  `scale` is a characteristic
    rate used to center the numeric probes.
    """

    transform: Callable
    scale: float = 1.0

    def __post_init__(self):
        _check_positive(scale=self.scale)
        super().__post_init__()

    def laplace(self, u):
        return self.transform(np.asarray(u))

    @property
    def time_scale(self) -> float:
        return 1.0 / self.scale


# ---------------------------------------------------------------------------
# waiting-time distributions

_ML_TINY = 1e-12


class WaitingTimeDistribution:
    """Common base of the waiting-time variants.

    A variant defines ``density(t)`` and ``survival(t)`` on float arrays
    t >= 0, and ``from_uniforms(u)``, which turns ``u[..., j]``, j <
    ``uniforms``, into one waiting time per draw (elementwise, so any batch
    layout gives the same values).  The default draw is the inverse CDF
    ``quantile`` of a single uniform.  ``kernel`` names the dual memory
    kernel (None when unknown); the renewal count law (``renewal_table``)
    comes from it, and so does the transform wtilde(u) (``laplace``) of a
    law that has no closed one.
    """

    uniforms = 1
    kernel = None

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self.quantile(u[..., 0])

    def _dual(self) -> MemoryKernel:
        if self.kernel is None:
            raise UnsupportedKernelError("no dual kernel, so no transform or series route")
        return self.kernel

    def laplace(self, u):
        """wtilde(u) = Ktilde/(u + Ktilde) of the dual kernel."""
        return self._dual()._waiting_laplace(np.asarray(u))

    def renewal_table(self, grid: np.ndarray, rows: int) -> np.ndarray:
        """Renewal count law P_n(t), n < `rows`, on a grid t >= 0, shape
        (rows, n_grid): the dual kernel's :meth:`MemoryKernel.count_table`.
        Overflow, division by zero or an invalid operation on the way raises
        :class:`DomainError`."""
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return self._dual().count_table(grid, rows)
        except FloatingPointError as exc:
            raise DomainError(f"the renewal count law leaves the float range: {exc}") from None


@dataclass(frozen=True)
class ExponentialWaiting(WaitingTimeDistribution):
    """w(t) = rate * exp(-rate t)."""

    rate: float

    def __post_init__(self):
        _check_positive(rate=self.rate)

    def density(self, t):
        return self.rate * np.exp(-self.rate * t)

    def survival(self, t):
        return np.exp(-self.rate * t)

    def laplace(self, u):
        return self.rate / (self.rate + u)

    def quantile(self, q):
        return -np.log1p(-q) / self.rate

    @property
    def kernel(self):
        return MarkovianKernel(self.rate)


@dataclass(frozen=True)
class HypoexponentialWaiting(WaitingTimeDistribution):
    """Sum of two independent exponentials with rates r1, r2.

    Dual to the safe exponential kernel: r1 r2 = A_eps, r1 + r2 = gamma.
    """

    r1: float
    r2: float

    uniforms = 2

    def __post_init__(self):
        _check_positive(r1=self.r1, r2=self.r2)

    def density(self, t):
        r1, r2 = self.r1, self.r2
        if abs(r2 - r1) < 1e-12 * r2:
            return r1 * r2 * t * np.exp(-r1 * t)
        return r1 * r2 / (r2 - r1) * (np.exp(-r1 * t) - np.exp(-r2 * t))

    def survival(self, t):
        r1, r2 = self.r1, self.r2
        if abs(r2 - r1) < 1e-12 * r2:
            return (1.0 + r1 * t) * np.exp(-r1 * t)
        return (r2 * np.exp(-r1 * t) - r1 * np.exp(-r2 * t)) / (r2 - r1)

    def laplace(self, u):
        return (self.r1 / (self.r1 + u)) * (self.r2 / (self.r2 + u))

    def from_uniforms(self, u):
        return -np.log1p(-u[..., 0]) / self.r1 + -np.log1p(-u[..., 1]) / self.r2

    @property
    def kernel(self):
        return ExponentialKernel(self.r1 * self.r2, self.r1 + self.r2)


@dataclass(frozen=True)
class MittagLefflerWaiting(WaitingTimeDistribution):
    """Survival E_alpha(-amplitude * t^alpha); heavy tail ~ t^-(1+alpha)."""

    amplitude: float
    alpha: float

    uniforms = 2

    def __post_init__(self):
        _check_fractional(self.amplitude, self.alpha)

    def density(self, t):
        """Diverges as t^(alpha-1) at 0 for alpha < 1."""
        a, al = self.amplitude, self.alpha
        out = np.empty_like(t)
        zero = t == 0.0
        out[zero] = a if al == 1.0 else np.inf
        ts = t[~zero]
        out[~zero] = a * ts ** (al - 1.0) * special.mittag_leffler(al, a * ts**al, beta=al)
        return out

    def survival(self, t):
        return special.mittag_leffler(self.alpha, self.amplitude * t**self.alpha)

    def laplace(self, u):
        return self.amplitude / (self.amplitude + np.asarray(u) ** self.alpha)

    @property
    def kernel(self):
        if self.alpha == 1.0:  # exponential waiting: exactly Poisson counts
            return MarkovianKernel(self.amplitude)
        return FractionalKernel(self.amplitude, self.alpha)

    def from_uniforms(self, u):
        """The exponential-times-stable product formula (Fulger, Scalas and
        Germano, PRE 77, 021122, 2008)
        ``tau = -ln U [sin(a pi)/tan(a pi V) - cos(a pi)]^(1/a) / A^(1/a)``
        (exact heavy tail, O(1) per draw; verified against the survival
        oracle in the tests)."""
        a = self.alpha
        first = np.clip(u[..., 0], _ML_TINY, 1.0 - _ML_TINY)
        second = np.clip(u[..., 1], _ML_TINY, 1.0 - _ML_TINY)
        if a == 1.0:
            return -np.log(first) / self.amplitude
        bracket = np.sin(a * np.pi) / np.tan(a * np.pi * second) - np.cos(a * np.pi)
        return -np.log(first) * bracket ** (1.0 / a) / self.amplitude ** (1.0 / a)


@dataclass(frozen=True)
class EmpiricalWaiting(WaitingTimeDistribution):
    """Tabulated density on a grid, naming the `kernel` it was inverted
    from (none for a table built by hand: no transform or series route)."""

    times: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray = field(init=False)
    kernel: MemoryKernel | None = field(default=None, repr=False)

    def __post_init__(self):
        """`times` and `pdf`: finite 1-d arrays of one length >= 2, `times`
        >= 0 and strictly increasing, and `pdf` of mass > 0
        (:class:`BadParametersError`); a negative `pdf` value raises
        :class:`NotADistributionError`."""
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.pdf, dtype=float)
        if t.ndim != 1 or p.shape != t.shape or t.size < 2:
            raise BadParametersError(
                f"times and pdf must be 1-d of one length >= 2, got shapes {t.shape}, {p.shape}"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise BadParametersError("times and pdf must be finite")
        if not (t[0] >= 0 and np.all(np.diff(t) > 0)):
            raise BadParametersError("times must be >= 0 and strictly increasing")
        if p.min() < 0:
            i = int(np.argmin(p))
            raise NotADistributionError(float(t[i]), float(p[i]))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t))])
        total = cdf[-1]
        if total <= 0:
            raise BadParametersError(f"pdf has zero mass on [{t[0]:g}, {t[-1]:g}]: nothing to normalize")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "pdf", p / total)
        object.__setattr__(self, "cdf", cdf / total)

    def density(self, t):
        return np.interp(t, self.times, self.pdf, left=float(self.pdf[0]), right=0.0)

    def survival(self, t):
        return 1.0 - np.interp(t, self.times, self.cdf, left=0.0, right=1.0)

    def quantile(self, q):
        return np.interp(q, self.cdf, self.times)


def waiting_from_kernel(kernel: MemoryKernel):
    """The waiting-time distribution dual to a kernel (Eq. duality):
    :meth:`MemoryKernel.waiting`, which raises :class:`DangerousKernelError`
    for a kernel without one."""
    return kernel.waiting()


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


def _nonnegative_times(t) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise DomainError("t must be >= 0")
    return t_arr


def waiting_pdf(waiting: WaitingTimeDistribution, t):
    """Density w(t); vectorized.  Diverges as t^(alpha-1) at 0 for the
    Mittag-Leffler variant."""
    return laplace.like_input(t, waiting.density(_nonnegative_times(t)))


def waiting_survival(waiting: WaitingTimeDistribution, t):
    """Survival probability P0(t) = 1 - int_0^t w; vectorized."""
    return laplace.like_input(t, waiting.survival(_nonnegative_times(t)))


def kernel_from_waiting(waiting: WaitingTimeDistribution):
    """Ktilde(u) induced by a waiting distribution (duality direction 2)."""

    def ktilde(u):
        u = np.asarray(u)
        w = waiting.laplace(u)
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
    """Taylor coefficients a_n = f^(n)(center)/n! by FFT on a circle, and
    their rounding floor ``1e-16 max|f| / radius^n`` there: the sign of a
    smaller a_n is rounding.

    Needs f analytic and evaluable at complex points; this is how the CM
    probe reaches order 8 without finite-difference noise.
    """
    m = 256
    z = center + radius * np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.asarray(f(z), dtype=complex)
    coeffs = np.fft.fft(vals) / m
    powers = radius ** np.arange(n_max + 1)
    return np.real(coeffs[: n_max + 1]) / powers, 1e-16 * np.max(np.abs(vals)) / powers


def classify_kernel(kernel: MemoryKernel) -> KernelVerdict:
    """Safe/dangerous classification: exact criteria for the built-ins, the
    numeric probe of :meth:`MemoryKernel.verdict` for a LaplaceKernel."""
    return kernel.verdict()


# ---------------------------------------------------------------------------
# renewal mean


def renewal_mean_count(kernel: MemoryKernel, t):
    """Expected renewal count <N(t)> = int_0^t K(t-s) s ds (safe kernels).

    Markovian: A1 t.  Fractional: A t^alpha / Gamma(1+alpha).
    Exponential (safe): (A/gamma) t - (A/gamma^2)(1 - exp(-gamma t)).
    LaplaceKernel: numeric Talbot inversion of Ktilde(u)/u^2.
    Raises :class:`DangerousKernelError` where :meth:`MemoryKernel.waiting`
    does.
    """
    kernel.waiting()
    return laplace.like_input(t, kernel.mean_count(np.atleast_1d(np.asarray(t, dtype=float))))
