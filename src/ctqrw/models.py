"""Concrete physical models driven by the renewal dynamics.

Qubit reservoirs with closed-form solutions and CP analysis (depolarizing,
dephasing, thermal / generalized amplitude damping), the Fock-space
displacement walk whose Wigner function performs a classical continuous
time random walk, and the generalized intrinsic-decoherence channel with
random Hamiltonian phases.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import engine, seeding, solvers
from .errors import BadMomentsError, BadParametersError, UnsupportedKernelError
from .kernels import MemoryKernel, WaitingTimeDistribution, _check_count, _check_positive
from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, GeneratorMatrix, KrausMap, as_matrix, dissipator

# ---------------------------------------------------------------------------
# qubit reservoirs


@dataclass(frozen=True)
class Depolarizing:
    """Scattering by sigma_x / sigma_y with probabilities p_x + p_y = 1."""

    p_x: float = 0.5
    p_y: float = 0.5

    def __post_init__(self):
        if not (self.p_x >= 0 and self.p_y >= 0 and abs(self.p_x + self.p_y - 1.0) <= 1e-12):
            raise BadParametersError("need p_x, p_y >= 0 with p_x + p_y = 1")


@dataclass(frozen=True)
class Dephasing:
    """Scattering by sigma_z: coherences flip sign, populations untouched."""


@dataclass(frozen=True)
class Thermal:
    """Generalized amplitude damping with strength kappa and level weights.

    Detailed balance sets the temperature through
    p_up / p_down = exp(-beta dE); kappa_tilde is the induced dispersive
    admixture 0.5 (1 - kappa/2 - sqrt(1 - kappa)) in [0, 1/4].
    """

    kappa: float
    p_up: float
    p_down: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise BadParametersError(f"kappa must be in (0, 1], got {self.kappa}")
        pu, pd = self.p_up, self.p_down
        if not (pu >= 0 and pd >= 0 and abs(pu + pd - 1.0) <= 1e-12):
            raise BadParametersError("need p_up, p_down >= 0 with p_up + p_down = 1")

    @property
    def kappa_tilde(self) -> float:
        return 0.5 * (1.0 - self.kappa / 2.0 - np.sqrt(1.0 - self.kappa))


QubitModel = Depolarizing | Dephasing | Thermal


def qubit_kraus(model: QubitModel) -> KrausMap:
    """The scattering map of a qubit reservoir model."""
    if isinstance(model, Depolarizing):
        return KrausMap(
            operators=(np.sqrt(model.p_x) * SIGMA_X, np.sqrt(model.p_y) * SIGMA_Y)
        )
    if isinstance(model, Dephasing):
        return KrausMap(operators=(SIGMA_Z.copy(),))
    if isinstance(model, Thermal):
        k, pu, pd = model.kappa, model.p_up, model.p_down
        c1 = np.sqrt(pu) * np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - k)]], dtype=complex)
        c2 = np.sqrt(pu) * np.array([[0.0, np.sqrt(k)], [0.0, 0.0]], dtype=complex)
        c3 = np.sqrt(pd) * np.array([[np.sqrt(1.0 - k), 0.0], [0.0, 1.0]], dtype=complex)
        c4 = np.sqrt(pd) * np.array([[0.0, 0.0], [np.sqrt(k), 0.0]], dtype=complex)
        ops = tuple(c for c in (c1, c2, c3, c4) if np.max(np.abs(c)) > 0)
        return KrausMap(operators=ops)
    raise BadParametersError(f"unknown qubit model {model!r}")


def _model_rates(model: QubitModel):
    """Damping eigenvalues (lam_pop, lam_coh) and equilibrium upper level."""
    if isinstance(model, Depolarizing):
        if abs(model.p_x - 0.5) > 1e-12:
            raise UnsupportedKernelError(
                "closed forms are implemented for p_x = p_y = 1/2; use the generic solvers"
            )
        return 2.0, 1.0, 0.5
    if isinstance(model, Dephasing):
        return 0.0, 2.0, None  # populations frozen
    if isinstance(model, Thermal):
        lam_coh = 1.0 - np.sqrt(1.0 - model.kappa)  # = kappa/2 + 2 kappa_tilde
        return model.kappa, lam_coh, model.p_up
    raise BadParametersError(f"unknown qubit model {model!r}")


@dataclass(frozen=True)
class QubitSolution:
    """Closed-form trajectory of a qubit model.

    ``states[k]`` is rho(grid[k]); populations/coherences are the matrix
    elements in the sigma_z eigenbasis; for the equal-weight depolarizing
    model `g` holds the map decomposition coefficients
    rho(t) = g_I rho0 + sum_j g_j sigma_j rho0 sigma_j whose positivity is
    exactly the CP condition.
    """

    grid: np.ndarray
    states: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    coherence_up: np.ndarray
    coherence_down: np.ndarray
    h_pop: np.ndarray
    h_coh: np.ndarray
    g: dict | None = field(default=None)


def qubit_closed_solution(
    model: QubitModel, kernel: MemoryKernel, rho0, grid
) -> QubitSolution:
    """Populations/coherences under a built-in kernel, in closed form.

    ``P_+(t) = P_eq + (P_+(0) - P_eq) h_pop(t)``,
    ``C(t) = C(0) h_coh(t)``, with the model's damping eigenvalues feeding
    the kernel's decay function (exp / telegraph / Mittag-Leffler).
    """
    grid = engine.check_grid(grid)
    m = as_matrix(rho0)
    if abs(np.trace(m) - 1.0) > 1e-9:
        raise BadParametersError("qubit_closed_solution expects a unit-trace state")
    lam_pop, lam_coh, p_eq = _model_rates(model)
    h_pop = np.asarray(kernel.decay_factor(lam_pop, grid), dtype=complex).real
    h_coh = np.asarray(kernel.decay_factor(lam_coh, grid), dtype=complex).real
    p0_up = m[0, 0].real
    p0_down = m[1, 1].real
    if p_eq is None:  # dephasing: populations frozen
        p_up = np.full(grid.shape, p0_up)
        p_down = np.full(grid.shape, p0_down)
    else:
        p_up = p_eq + (p0_up - p_eq) * h_pop
        p_down = (1.0 - p_eq) + (p0_down - (1.0 - p_eq)) * h_pop
    c_up = m[0, 1] * h_coh
    c_down = m[1, 0] * h_coh
    states = np.zeros((grid.size, 2, 2), dtype=complex)
    states[:, 0, 0] = p_up
    states[:, 1, 1] = p_down
    states[:, 0, 1] = c_up
    states[:, 1, 0] = c_down
    g = None
    if isinstance(model, Depolarizing):
        g_i = 0.5 * ((1.0 + h_pop) / 2.0 + h_coh)
        g_x = (1.0 - h_pop) / 4.0
        g_z = 0.5 * ((1.0 + h_pop) / 2.0 - h_coh)
        g = {"g_I": g_i, "g_x": g_x, "g_y": g_x.copy(), "g_z": g_z}
    return QubitSolution(
        grid=grid,
        states=states,
        p_up=p_up,
        p_down=p_down,
        coherence_up=c_up,
        coherence_down=c_down,
        h_pop=h_pop,
        h_coh=h_coh,
        g=g,
    )


# ---------------------------------------------------------------------------
# Fock-space displacement walk


def ladder_operators(dim: int):
    """Truncated annihilation/creation matrices."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, a.conj().T


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a^dag - beta* a) on the truncated Fock space (exactly
    unitary: the exponent is skew-Hermitian)."""
    import scipy.linalg  # loaded on first use, off the CLI's import path

    a, adag = ladder_operators(dim)
    return scipy.linalg.expm(beta * adag - np.conj(beta) * a)


def second_order_generator(
    mean_beta: complex, mean_beta_sq: complex, mean_abs_sq: float, fock_dim: int
) -> GeneratorMatrix:
    """Second-order moment expansion of the displacement mixture generator.

    ``L ~= [<b> a^dag - <b*> a, .]
          + <|b|^2> (D[a] + D[a^dag])
          - (1/2)<b^2>  (2 a^dag . a^dag - {a^dag a^dag, .})
          - (1/2)<b*^2> (2 a . a - {a a, .})``

    (the adjoint-action expansion of E = <D rho D^dag>; the infinite
    temperature pair carries <|b|^2>, the squeezing pair <b^2>/<b*^2>).
    Raises :class:`BadMomentsError` on inconsistent moments.
    """
    if fock_dim < 2:
        raise BadMomentsError("fock_dim must be >= 2")
    if mean_abs_sq < abs(mean_beta) ** 2 - 1e-12:
        raise BadMomentsError("<|b|^2> < |<b>|^2 is not a valid moment set")
    if abs(mean_beta_sq) > mean_abs_sq + 1e-12:
        raise BadMomentsError("|<b^2>| must not exceed <|b|^2>")
    a, adag = ladder_operators(fock_dim)
    ident = np.eye(fock_dim)
    drift_op = mean_beta * adag - np.conj(mean_beta) * a
    drift = np.kron(ident, drift_op) - np.kron(drift_op.T, ident)

    def sandwich(left, right):
        # rho -> left rho right in column stacking: right^T kron left
        return np.kron(right.T, left)

    diff = mean_abs_sq * 0.5 * (dissipator(a) + dissipator(adag))
    sq = -0.5 * mean_beta_sq * (2.0 * sandwich(adag, adag) - np.kron((adag @ adag).T, ident) - np.kron(ident, adag @ adag))
    sq_c = -0.5 * np.conj(mean_beta_sq) * (2.0 * sandwich(a, a) - np.kron((a @ a).T, ident) - np.kron(ident, a @ a))
    return GeneratorMatrix(drift + diff + sq + sq_c, fock_dim)


# jump laws -----------------------------------------------------------------

_ZERO_CELL = 2.0**-54  # midpoint of the lowest cell of a 53-bit uniform


class MarkLaw:
    """Common base of the jump and phase laws, the marks an event carries.

    A law defines ``from_uniforms(u)``, which turns ``u[..., j]``, j <
    ``uniforms``, uniform in [0, 1), into one mark per draw (elementwise, so
    any batch layout gives the same values).
    """

    uniforms = 0


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals by the inverse CDF; u = 0 maps to the midpoint of
    its cell, so every draw is finite."""
    from scipy.special import ndtri  # loaded on first use, off the CLI's import path

    return ndtri(np.maximum(u, _ZERO_CELL))


@dataclass(frozen=True)
class GaussianJumps(MarkLaw):
    """Complex Gaussian jumps with moments <b>, <b^2>, <|b|^2>."""

    mean: complex = 0.0
    mean_sq: complex = 0.0
    mean_abs_sq: float = 1.0
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite([self.mean, self.mean_sq, self.mean_abs_sq]).all():
            raise BadParametersError("Gaussian jump moments must be finite")
        c = self.mean_abs_sq - abs(self.mean) ** 2
        p = self.mean_sq - self.mean**2
        if c < -1e-12 or abs(p) > c + 1e-12:
            raise BadMomentsError("inconsistent Gaussian jump moments")
        var_x = max((c + p.real) / 2.0, 0.0)
        var_y = max((c - p.real) / 2.0, 0.0)
        cov = p.imag / 2.0
        # covariance = F F^T; clipping the eigenvalues keeps degenerate and
        # point-like laws valid
        eigvals, eigvecs = np.linalg.eigh(np.array([[var_x, cov], [cov, var_y]]))
        object.__setattr__(self, "_factor", eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)))

    uniforms = 2

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        z0, z1 = _normals(u[..., 0]), _normals(u[..., 1])
        (a, b), (c, d) = self._factor  # elementwise, unlike a batched matmul
        return (self.mean.real + (a * z0 + b * z1)) + 1j * (self.mean.imag + (c * z0 + d * z1))

    def characteristic(self, k: np.ndarray) -> np.ndarray:
        """E exp(i Re(k conj(b)))."""
        k = np.asarray(k, dtype=complex)
        u, v = k.real, k.imag
        (a, b), (c, d) = self._factor
        quad = (a * u + c * v) ** 2 + (b * u + d * v) ** 2  # |F^T (u, v)|^2, covariance F F^T
        phase = u * self.mean.real + v * self.mean.imag
        return np.exp(1j * phase - 0.5 * quad)


@dataclass(frozen=True)
class PointMassJumps(MarkLaw):
    """Deterministic jump by beta0 at every event."""

    beta0: complex = 0.0

    def __post_init__(self):
        if not np.isfinite(self.beta0):
            raise BadParametersError(f"beta0 must be finite, got {self.beta0}")

    @property
    def mean_abs_sq(self) -> float:
        return abs(self.beta0) ** 2

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.shape[:-1], complex(self.beta0))

    def characteristic(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=complex)
        return np.exp(1j * (k.real * self.beta0.real + k.imag * self.beta0.imag))


@dataclass(frozen=True)
class LevyJumps(MarkLaw):
    """Isotropic heavy-tailed jumps, characteristic exp(-sigma^mu |k|^mu).

    Sampled sub-Gaussian style: beta = sqrt(A) (g1 + i g2)/sqrt(2) with A a
    positive stable(mu/2) subordinator (Kanter-style draw, validated by a
    Laplace-transform test), g Gaussian: uniforms 0-1 give the normals,
    2-3 Kanter's U and W.  mu = 2 reduces to the isotropic
    Gaussian.  Second moments diverge for mu < 2.
    """

    mu: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.mu <= 2.0):
            raise BadParametersError(f"mu must be in (0, 2], got {self.mu}")
        _check_positive(sigma=self.sigma)

    uniforms = 4

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # beta = 2 sigma sqrt(S) g with S positive stable(mu/2): the Gaussian
        # char exp(-A|k|^2/4) averaged over A = 4 sigma^2 S gives exactly
        # exp(-sigma^mu |k|^mu)
        normals = _normals(u[..., :2])
        g = (normals[..., 0] + 1j * normals[..., 1]) / np.sqrt(2.0)
        if self.mu == 2.0:
            return 2.0 * self.sigma * g
        s = positive_stable(self.mu / 2.0, u[..., 2:])
        return 2.0 * self.sigma * np.sqrt(s) * g

    @property
    def mean_abs_sq(self) -> float | None:
        """<|b|^2> = 4 sigma^2 at mu = 2 (b = 2 sigma g); None below."""
        return 4.0 * self.sigma**2 if self.mu == 2.0 else None

    def characteristic(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=complex)
        return np.exp(-(self.sigma**self.mu) * np.abs(k) ** self.mu)


JumpLaw = GaussianJumps | PointMassJumps | LevyJumps


def positive_stable(a: float, uniforms: np.ndarray) -> np.ndarray:
    """One-sided stable draws with Laplace transform exp(-s^a), 0 < a < 1,
    one per row ``uniforms[..., :2]`` of uniforms in [0, 1).

    Kanter's representation: ``S = (A(U)/W)^((1-a)/a)`` with U uniform on
    (0, pi), W exponential(1) and
    ``A(u) = sin(a u)^(a/(1-a)) sin((1-a) u) / sin(u)^(1/(1-a))``;
    validated against the Laplace transform in the tests.  A zero uniform
    maps to the midpoint of its cell, so every draw is finite.
    """
    if not (0.0 < a < 1.0):
        raise BadParametersError("positive_stable needs 0 < a < 1")
    cells = np.maximum(uniforms[..., :2], _ZERO_CELL)
    u = np.pi * cells[..., 0]
    w = -np.log1p(-cells[..., 1])
    return (
        np.sin(a * u)
        * np.sin((1.0 - a) * u) ** ((1.0 - a) / a)
        / (np.sin(u) ** (1.0 / a) * w ** ((1.0 - a) / a))
    )


def fourier_mode_rate(jumps: JumpLaw, k) -> np.ndarray:
    """Relaxation rate gamma(k, k*) = 1 - P_hat(k, k*) of a Fourier mode.

    Convention: P_hat(k) = E exp(i Re(k conj(beta))), so the Levy law gives
    exactly exp(-sigma^mu |k|^mu) and the isotropic Gaussian with
    <|b|^2> = c matches the mu = 2 Levy law at sigma^2 = c/4.
    """
    return 1.0 - jumps.characteristic(np.asarray(k, dtype=complex))


@dataclass(frozen=True)
class WignerWalkConfig:
    jumps: JumpLaw
    kernel: MemoryKernel
    n_walkers: int
    initial: complex = 0.0


@dataclass(frozen=True)
class WignerWalkResult:
    """Mean event count and excitation estimate of a walk; the walkers'
    positions and radial histogram are built on first access, from the
    same seed, waiting law, draws and marks."""

    grid: np.ndarray
    mean_counts: np.ndarray
    n_estimate: np.ndarray | None  # n(0) + <|b|^2> <N(t)>, finite-moment laws
    config: WignerWalkConfig
    base_seed: int
    waiting: WaitingTimeDistribution = field(repr=False)  # the kernel's, built once

    @cached_property
    def positions(self) -> np.ndarray:
        """Walker positions, shape (n_grid, n_walkers), complex."""
        cfg = self.config
        counts = engine.event_counts(self.waiting, self.grid, cfg.n_walkers, self.base_seed)
        paths = _mark_paths(self.base_seed, counts, cfg.jumps)
        paths += complex(cfg.initial)
        return paths.T

    @cached_property
    def _radial_histogram(self):
        return np.histogram(np.abs(self.positions[-1]), bins=64)

    @property
    def radial_bins(self) -> np.ndarray:
        """Edges of the 64 equal bins of |position| at the grid end."""
        return self._radial_histogram[1]

    @property
    def radial_counts(self) -> np.ndarray:
        """Walkers in each of the :attr:`radial_bins`."""
        return self._radial_histogram[0]


def wigner_ctrw(cfg: WignerWalkConfig, grid, base_seed: int, n0: float = 0.0) -> WignerWalkResult:
    """Ensemble of phase-space walkers with renewal jump times.

    Walker k is realization k of the run seeded `base_seed`: its events are
    row k of :func:`ctqrw.engine.event_counts`, and jump j comes from draw
    j of the mark lane (see :func:`_mark_paths`).  The mean event count is
    read from the event list alone.  The mean excitation estimate is ``n(t)
    = n(0) + <|b|^2> x (empirical mean event count)``; it is None for jump
    laws without second moments (``mean_abs_sq`` None).  Raises
    :class:`DangerousKernelError` for kernels without a waiting density and
    :class:`BadParametersError` unless `cfg.n_walkers` is an integer >= 1.
    """
    _check_count("n_walkers", cfg.n_walkers)
    waiting = cfg.kernel.waiting()
    grid = engine.check_grid(grid)
    _, _, first = engine._grid_events(waiting, grid, cfg.n_walkers, base_seed)
    mean_counts = np.cumsum(np.bincount(first, minlength=grid.size)) / cfg.n_walkers
    n_est = None
    if cfg.jumps.mean_abs_sq is not None:
        n_est = n0 + cfg.jumps.mean_abs_sq * mean_counts
    return WignerWalkResult(
        grid=grid, mean_counts=mean_counts, n_estimate=n_est, config=cfg, base_seed=base_seed, waiting=waiting
    )


def _mark_paths(base_seed: int, counts: np.ndarray, law: MarkLaw) -> np.ndarray:
    """Entry [k, i]: the sum of the first ``counts[k, i]`` marks of
    realization k, for counts shaped as :func:`ctqrw.engine.event_counts`.
    Mark j of realization k is ``law`` applied to ``seeding.uniforms(
    base_seed, k, j, MARK_LANE, law.uniforms)``; every mark of every
    realization is one call."""
    totals = counts[:, -1]
    taken = np.arange(int(totals.max())) < totals[:, None]
    owners, draws = np.nonzero(taken)
    marks = law.from_uniforms(
        seeding.uniforms(base_seed, owners, draws, seeding.MARK_LANE, law.uniforms)
    )
    steps = np.zeros((len(totals), taken.shape[1] + 1), dtype=marks.dtype)
    steps[:, 1:][taken] = marks
    return np.take_along_axis(np.cumsum(steps, axis=1), counts, axis=1)


# ---------------------------------------------------------------------------
# generalized intrinsic decoherence


@dataclass(frozen=True)
class DeltaPhase(MarkLaw):
    """P(tau) = delta(tau - tau_b): every event applies exp(-i H tau_b)."""

    tau_b: float

    def __post_init__(self):
        if not np.isfinite(self.tau_b):
            raise BadParametersError(f"tau_b must be finite, got {self.tau_b}")

    def fourier(self, omega):
        return np.exp(-1j * np.asarray(omega) * self.tau_b)

    def from_uniforms(self, u):
        return np.full(u.shape[:-1], float(self.tau_b))


@dataclass(frozen=True)
class ExponentialPhase(MarkLaw):
    """P(tau) = exp(-tau/tau_b)/tau_b on tau > 0."""

    tau_b: float

    def __post_init__(self):
        _check_positive(tau_b=self.tau_b)

    def fourier(self, omega):
        return 1.0 / (1.0 + 1j * np.asarray(omega) * self.tau_b)

    uniforms = 1

    def from_uniforms(self, u):
        return -self.tau_b * np.log1p(-u[..., 0])


@dataclass(frozen=True)
class LogFormalPhase(MarkLaw):
    """Formal-rate preset gamma = ln(1 + i omega tau_b).

    The generating density exp(-tau/tau_b)/tau is not normalizable, so the
    rate is exposed directly rather than derived from a distribution; no
    sampler exists for this preset.
    """

    tau_b: float

    def __post_init__(self):
        _check_positive(tau_b=self.tau_b)

    def fourier(self, omega):
        return 1.0 - np.log(1.0 + 1j * np.asarray(omega) * self.tau_b)

    def from_uniforms(self, u):
        raise BadParametersError("the logarithmic preset has no normalizable density")


PhaseDistribution = DeltaPhase | ExponentialPhase | LogFormalPhase


@dataclass(frozen=True)
class SpectrumModel:
    """Hamiltonian spectrum (hbar = 1) plus the event-phase distribution."""

    levels: np.ndarray
    phase: PhaseDistribution

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or not np.all(np.isfinite(lv)):
            raise BadParametersError("levels must be a finite 1-d array")
        object.__setattr__(self, "levels", lv)

    @property
    def dim(self) -> int:
        return self.levels.size

    def bohr_frequencies(self) -> np.ndarray:
        return self.levels[:, None] - self.levels[None, :]

    def rates(self) -> np.ndarray:
        """gamma_nm = 1 - P_hat(omega_nm); exactly zero on the diagonal."""
        om = self.bohr_frequencies()
        g = 1.0 - self.phase.fourier(om)
        np.fill_diagonal(g, 0.0)
        return g


@dataclass(frozen=True)
class IntrinsicResult:
    grid: np.ndarray
    states: np.ndarray
    rates: np.ndarray


def intrinsic_generator(spectrum: SpectrumModel) -> GeneratorMatrix:
    """Diagonal superoperator L[rho]_nm = -gamma_nm rho_nm."""
    g = spectrum.rates()
    return GeneratorMatrix(np.diag(-g.flatten(order="F")), spectrum.dim)


def intrinsic_decoherence(
    spectrum: SpectrumModel,
    kernel: MemoryKernel,
    rho0,
    grid,
    route: str = "closed",
    n_realizations: int = 2000,
    base_seed: int = 0,
) -> IntrinsicResult:
    """Matrix-element relaxation ``drho_nm/dt = -gamma_nm int K rho_nm``.

    Routes: "closed" evaluates h_{gamma_nm}(t) for every element in one
    ``kernel.decay_factor`` call (the fractional kernel's complex rates are
    Talbot-inverted; a kernel without closed forms raises
    :class:`UnsupportedKernelError`), "volterra" solves the same equation by
    quadrature as a cross-check, and "stochastic" samples renewal
    events with random phases (safe kernels): realization k has row k of
    :func:`ctqrw.engine.event_counts` and one phase per event from the mark
    lane (see :func:`_mark_paths`).  Populations are conserved exactly
    (gamma_nn = 0).
    """
    grid = engine.check_grid(grid)
    m = as_matrix(rho0)
    if m.shape != (spectrum.dim, spectrum.dim):
        raise BadParametersError("state dimension does not match the spectrum")
    g = spectrum.rates()

    if route == "stochastic":
        _check_count("n_realizations", n_realizations)
        counts = engine.event_counts(kernel.waiting(), grid, n_realizations, base_seed)
        # total extra Hamiltonian time per realization and grid point
        phases = _mark_paths(base_seed, counts, spectrum.phase)
        # element factors: mean phase factor (stochastic) or h_gamma (closed)
        factors = np.empty((grid.size, spectrum.dim, spectrum.dim), dtype=complex)
        for (n, mm), omega in np.ndenumerate(spectrum.bohr_frequencies()):
            factors[:, n, mm] = np.sum(np.exp(-1j * omega * phases), axis=0) / n_realizations
    elif route == "volterra":
        states = solvers.volterra_solve(intrinsic_generator(spectrum), kernel, m, grid)
        return IntrinsicResult(grid=grid, states=states, rates=g)
    elif route == "closed":
        factors = np.moveaxis(kernel.decay_factor(g, grid), -1, 0)
    else:
        raise BadParametersError(f"unknown route {route!r}")
    return IntrinsicResult(grid=grid, states=factors * m[None, :, :], rates=g)


def milburn_generator(spectrum: SpectrumModel, tau_a: float) -> np.ndarray:
    """Superoperator (1/tau_a)(e^{-iH tau_b} . e^{iH tau_b} - .) for the
    delta-phase preset, used as the reduction oracle."""
    if not isinstance(spectrum.phase, DeltaPhase):
        raise BadParametersError("the Milburn form needs a DeltaPhase spectrum")
    u = np.diag(np.exp(-1j * spectrum.levels * spectrum.phase.tau_b))
    d = spectrum.dim
    return (np.kron(u.conj(), u) - np.eye(d * d)) / tau_a
