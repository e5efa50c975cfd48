"""Dense linear algebra for states, channels, generators and their spectra.

Conventions (fixed once, asserted in tests):

* Vectorization is column-stacking, ``vec(A B C) = (C^T kron A) vec(B)``.
  A map ``rho -> A rho B`` therefore has superoperator ``B^T kron A``; a
  Kraus map ``sum_i C_i rho C_i^dag`` has superoperator
  ``sum_i conj(C_i) kron C_i``.
* The Choi matrix of a map ``M`` is ``sum_jk |j><k| kron M(|j><k|)``,
  equivalently ``sum_i vec(C_i) vec(C_i)^dag`` for a Kraus map.  A map is
  completely positive iff its Choi matrix is positive semidefinite.
* Damping-basis eigenvalues are stored as *decay rates*: ``L[P] = -lam P``
  with ``lam >= 0`` for relaxing channels, so the Markovian solution is
  ``sum_lam c_lam exp(-lam tau) P_lam``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BadWeightsError,
    ClosureDefectError,
    DefectiveGeneratorError,
    DimMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
    NonUnitTraceError,
    NotCPError,
)

TOL_HERM = 1e-12
TOL_TRACE = 1e-12
TOL_EIG = 1e-12
TOL_CLOSURE = 1e-10
TOL_TRACE_PRESERVING = 1e-10
TOL_CP = 1e-9
DEFECTIVE_COND = 1e12

# Pauli matrices, used throughout the qubit models.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).flatten(order="F")


def unvec(vector: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    vector = np.asarray(vector)
    if dim is None:
        dim = int(round(np.sqrt(vector.size)))
    return vector.reshape((dim, dim), order="F")


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d density matrix (Hermitian, unit trace, PSD)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def bloch(self) -> np.ndarray:
        """Bloch vector (M_x, M_y, M_z); qubit states only."""
        if self.dim != 2:
            raise DimMismatchError("Bloch vector is defined for qubits only")
        return np.array(
            [np.trace(s @ self.matrix).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        )


def as_matrix(rho) -> np.ndarray:
    """The complex matrix (or batch) of a DensityMatrix or array-like."""
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def make_density(matrix: np.ndarray) -> DensityMatrix:
    """Validate a candidate density matrix.

    Raises :class:`NonHermitianError`, :class:`NonUnitTraceError` or
    :class:`NegativeEigenvalueError`, each carrying the violation magnitude.
    Evolved (possibly invalid) states should be probed with
    :func:`linear_entropy` or eigvalsh directly, not round-tripped here.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    defect = _hermiticity_defect(m)
    if defect > TOL_HERM:
        raise NonHermitianError(defect)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TOL_TRACE:
        raise NonUnitTraceError(tr)
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if eigs.min() < -TOL_EIG:
        raise NegativeEigenvalueError(float(eigs.min()))
    out = DensityMatrix(matrix=m.copy())
    out.matrix.setflags(write=False)
    return out


def pure_state(ket: np.ndarray) -> DensityMatrix:
    """Density matrix of a (normalized) ket."""
    ket = np.asarray(ket, dtype=complex).ravel()
    ket = ket / np.linalg.norm(ket)
    return make_density(np.outer(ket, ket.conj()))


def linear_entropy(rho) -> float:
    """Purity deficit ``1 - Tr[rho^2]``.

    Accepts any square matrix; unit trace is not required so evolved,
    possibly invalid states can be probed (negative values witness loss of
    state positivity on a qubit).
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(1.0 - np.trace(m @ m).real)


@dataclass(frozen=True)
class KrausMap:
    """A CP trace-preserving map ``rho -> sum_i C_i rho C_i^dag``."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(c, dtype=complex) for c in self.operators)
        if not ops:
            raise DimMismatchError("a Kraus map needs at least one operator")
        d = ops[0].shape[0]
        for c in ops:
            if c.shape != (d, d):
                raise DimMismatchError("all Kraus operators must share one square shape")
        closure = sum(c.conj().T @ c for c in ops)
        defect = float(np.max(np.abs(closure - np.eye(d))))
        if defect > TOL_CLOSURE:
            raise ClosureDefectError(defect)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def superoperator(self) -> np.ndarray:
        """Column-stacking superoperator matrix, ``sum_i conj(C_i) kron C_i``."""
        d = self.dim
        s = np.zeros((d * d, d * d), dtype=complex)
        for c in self.operators:
            s += np.kron(c.conj(), c)
        return s


def apply_kraus(emap: KrausMap, rho: np.ndarray) -> np.ndarray:
    """Apply the scattering map: ``sum_i C_i rho C_i^dag``."""
    m = as_matrix(rho)
    if m.shape != (emap.dim, emap.dim):
        raise DimMismatchError(f"state shape {m.shape} vs map dimension {emap.dim}")
    out = np.zeros_like(m)
    for c in emap.operators:
        out += c @ m @ c.conj().T
    return out


@dataclass(frozen=True)
class GeneratorMatrix:
    """A d^2 x d^2 superoperator generator acting on column-stacked operators.

    Trace preservation (the trace functional annihilates the generator from
    the left) is checked at construction.
    """

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dim
        if m.shape != (d * d, d * d):
            raise DimMismatchError(f"generator shape {m.shape} incompatible with dim {d}")
        drift = float(np.max(np.abs(vec(np.eye(d)).conj() @ m)))
        if drift > TOL_TRACE_PRESERVING:
            raise DimMismatchError(f"generator does not preserve trace: defect {drift:.3e}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


def lindblad_from_kraus(emap: KrausMap) -> GeneratorMatrix:
    """Generator ``L = E - I`` of the scattering map, as a matrix."""
    d = emap.dim
    return GeneratorMatrix(emap.superoperator() - np.eye(d * d), d)


def mixture_generator(weighted_maps) -> GeneratorMatrix:
    """Generator ``sum_a P(a) E_a - I`` of a randomly selected scattering map.

    `weighted_maps` is a sequence of ``(weight, KrausMap)`` pairs with
    nonnegative weights summing to one.
    """
    weighted_maps = list(weighted_maps)
    if not weighted_maps:
        raise BadWeightsError("empty mixture")
    weights = np.array([w for w, _ in weighted_maps], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise BadWeightsError(f"weights must be >= 0 and sum to 1, got sum {weights.sum()!r}")
    d = weighted_maps[0][1].dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for w, emap in weighted_maps:
        if emap.dim != d:
            raise DimMismatchError("all maps in a mixture must share one dimension")
        s += w * emap.superoperator()
    return GeneratorMatrix(s - np.eye(d * d), d)


def dissipator(v: np.ndarray) -> np.ndarray:
    """Superoperator of ``[V, . V^dag] + [V . , V^dag] = 2 D[V]``."""
    v = np.asarray(v, dtype=complex)
    d = v.shape[0]
    vdv = v.conj().T @ v
    ident = np.eye(d)
    return 2.0 * np.kron(v.conj(), v) - np.kron(vdv.T, ident) - np.kron(ident, vdv)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map on a d-dimensional system (Hermitian d^2 x d^2)."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        defect = _hermiticity_defect(m)
        if defect > 1e-10:
            raise NonHermitianError(defect)
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2).min())


def choi_matrices(images: np.ndarray, dim: int) -> np.ndarray:
    """Hermitized Choi matrices (n, d^2, d^2) of n maps, given the images
    (d^2, n, d, d) of the matrix units (unit j*d+l = |j><l|)."""
    d2 = dim * dim
    c = images.reshape(dim, dim, -1, dim, dim).transpose(2, 0, 3, 1, 4).reshape(-1, d2, d2)
    return (c + c.conj().swapaxes(-1, -2)) / 2


def choi_of_map(action, dim: int) -> tuple[ChoiMatrix, float]:
    """Choi matrix of a map given its action on all matrix units.

    `action` is a callable sending a d x d matrix to a d x d matrix.  Returns
    the Choi matrix and ``cp_defect`` = its minimum eigenvalue (>= -tol means
    completely positive).
    """
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    images = np.array([np.asarray(action(unit), dtype=complex) for unit in units])
    if images.shape[1:] != (dim, dim):
        raise DimMismatchError(f"map returned shape {images.shape[1:]}, expected ({dim}, {dim})")
    choi = ChoiMatrix(matrix=choi_matrices(images[:, None], dim)[0], dim=dim)
    return choi, choi.min_eigenvalue()


def choi_of_superop(superop: np.ndarray, dim: int) -> tuple[ChoiMatrix, float]:
    """Choi matrix of a map given as a column-stacking superoperator."""
    return choi_of_map(lambda m: unvec(superop @ vec(m), dim), dim)


def kraus_from_choi(choi: ChoiMatrix, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the spectral decomposition of a PSD Choi matrix."""
    eigvals, eigvecs = np.linalg.eigh((choi.matrix + choi.matrix.conj().T) / 2)
    ops = []
    for lam, v in zip(eigvals, eigvecs.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * unvec(v, choi.dim))
    return ops


def exp_generator_to_kraus(gen: GeneratorMatrix, kappa: float) -> KrausMap:
    """Kraus representation of ``exp(kappa L0)`` for a Lindblad generator L0.

    The map matrix is exponentiated, its Choi matrix diagonalized, and the
    positive eigenpairs turned into Kraus operators.  Raises
    :class:`NotCPError` if the Choi matrix has an eigenvalue below -1e-9,
    which signals that L0 was not of Lindblad form.
    """
    if kappa <= 0:
        raise BadWeightsError("control parameter kappa must be > 0")
    s = scipy.linalg.expm(kappa * gen.matrix)
    choi, cp_defect = choi_of_superop(s, gen.dim)
    if cp_defect < -TOL_CP:
        raise NotCPError(cp_defect)
    return KrausMap(operators=tuple(kraus_from_choi(choi)))


@dataclass(frozen=True)
class DampingBasis:
    """Biorthogonal eigendecomposition of a generator.

    ``rates[k]`` is the decay rate lam_k (``L[P_k] = -lam_k P_k``),
    ``right_ops[k]`` the eigenoperator P_k and ``dual_ops[k]`` the dual
    (left) operator with ``Tr[dual_j right_k] = delta_jk`` after
    normalization.
    """

    rates: np.ndarray
    right_ops: tuple
    dual_ops: tuple
    dim: int

    def evolve(self, rho0, decay_factors: np.ndarray) -> np.ndarray:
        """``rho(t) = sum_k Tr[dual_k rho0] h_k(t) P_k`` from per-rate decay
        factors of shape (n_rates, n_grid).

        `rho0` may be one matrix or a batch (n, d, d); returns (n_grid, d, d)
        or (n, n_grid, d, d) accordingly.
        """
        m = as_matrix(rho0)
        batch = m[None, :, :] if m.ndim == 2 else m
        coeffs = np.array([[np.trace(p @ b) for p in self.dual_ops] for b in batch])
        states = np.einsum("nl,lk,lij->nkij", coeffs, decay_factors, np.array(self.right_ops))
        return states[0] if m.ndim == 2 else states


def damping_basis(gen: GeneratorMatrix) -> DampingBasis:
    """Eigendecomposition of a generator with biorthogonal duals.

    Eigenvalues are returned as decay rates (``-eig``), sorted by real part
    so a trace-preserving generator lists its stationary eigenvalue lam = 0
    first.  Raises :class:`DefectiveGeneratorError` when the eigenvector
    matrix is ill-conditioned beyond 1e12 (Jordan block).
    """
    eigvals, v = scipy.linalg.eig(gen.matrix)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        raise DefectiveGeneratorError(
            f"eigenvector condition number {cond:.3e} exceeds {DEFECTIVE_COND:.0e}"
        )
    w = np.linalg.inv(v)
    order = np.lexsort((eigvals.imag, -eigvals.real))  # decay rate ascending
    rates = -eigvals[order]
    rates = np.where(np.abs(rates) < 1e-13, 0.0, rates)
    right_ops = []
    dual_ops = []
    for k in order:
        right_ops.append(unvec(v[:, k], gen.dim))
        # Tr[dual X] = W_row . vec(X)  <=>  dual = row-major reshape of the row
        dual_ops.append(w[k, :].reshape(gen.dim, gen.dim))
    return DampingBasis(
        rates=rates, right_ops=tuple(right_ops), dual_ops=tuple(dual_ops), dim=gen.dim
    )


def random_kraus_map(dim: int, n_ops: int, rng: np.random.Generator) -> KrausMap:
    """Haar-ish random channel: QR of a stacked Ginibre matrix."""
    g = rng.normal(size=(dim * n_ops, dim)) + 1j * rng.normal(size=(dim * n_ops, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_ops))
    return KrausMap(operators=ops)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = (m + m.conj().T) / 2
    return make_density(m)
