"""States, channels, generators, damping bases and Choi machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqrw.errors import (
    ClosureDefectError,
    DefectiveGeneratorError,
    DimMismatchError,
    NegativeEigenvalueError,
    NonUnitTraceError,
    NotCPError,
)
from ctqrw.models import Dephasing, Depolarizing, Thermal, qubit_kraus
from ctqrw.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GeneratorMatrix,
    KrausMap,
    apply_kraus,
    choi_of_map,
    choi_of_superop,
    damping_basis,
    dissipator,
    exp_generator_to_kraus,
    kraus_from_choi,
    linear_entropy,
    lindblad_from_kraus,
    make_density,
    mixture_generator,
    pure_state,
    unvec,
    vec,
)
from helpers import random_density, random_kraus_map

I2 = np.eye(2, dtype=complex)


def test_vec_column_stacking_convention():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(a)), a)
    # vec(A B C) = (C^T kron A) vec(B)
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = vec(a @ b @ c)
    rhs = np.kron(c.T, a) @ vec(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_make_density_projector():
    rho = make_density(np.array([[1.0, 0.0], [0.0, 0.0]]))
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert np.allclose(sorted(eigs), [0.0, 1.0], atol=1e-14)


def test_make_density_trace_violation_reports_trace():
    with pytest.raises(NonUnitTraceError) as exc:
        make_density(np.diag([0.6, 0.3]))
    assert abs(exc.value.trace - 0.9) < 1e-14


def test_make_density_negative_eigenvalue_magnitude():
    with pytest.raises(NegativeEigenvalueError) as exc:
        make_density(np.diag([1.2, -0.2]))
    assert abs(exc.value.eigenvalue + 0.2) < 1e-12


def test_linear_entropy_values():
    assert linear_entropy(pure_state([1, 0])) == pytest.approx(0.0, abs=1e-14)
    assert linear_entropy(0.5 * I2) == pytest.approx(0.5, abs=1e-14)
    assert linear_entropy(np.diag([0.75, 0.25])) == pytest.approx(0.375, abs=1e-14)


def test_linear_entropy_range_valid_qubits(rng):
    for _ in range(50):
        rho = random_density(2, rng)
        assert -1e-12 <= linear_entropy(rho) <= 0.5 + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_entropy_of_a_stack_is_bitwise_per_matrix(rng, dim):
    stack = rng.standard_normal((4, 50, dim, dim)) + 1j * rng.standard_normal((4, 50, dim, dim))
    batched = linear_entropy(stack)
    assert batched.shape == (4, 50)
    per_matrix = np.array([[linear_entropy(m) for m in row] for row in stack])
    assert np.array_equal(batched, per_matrix)
    assert isinstance(linear_entropy(stack[0, 0]), float)


def test_kraus_closure_enforced():
    with pytest.raises(ClosureDefectError):
        KrausMap(operators=(0.9 * I2,))


def test_apply_kraus_identity_and_dim_mismatch(rng):
    emap = KrausMap(operators=(I2,))
    rho = random_density(2, rng)
    assert np.allclose(apply_kraus(emap, rho), rho.matrix)
    with pytest.raises(DimMismatchError):
        apply_kraus(emap, np.eye(3) / 3)


def test_depolarizing_flips_bloch_vector(rng):
    emap = qubit_kraus(Depolarizing())
    rho = random_density(2, rng)
    m = rho.bloch()
    out = apply_kraus(emap, rho)
    out_bloch = [np.trace(s @ out).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    assert np.allclose(out_bloch, [0.0, 0.0, -m[2]], atol=1e-12)


def test_sigma_z_conjugation_flips_coherence():
    emap = qubit_kraus(Dephasing())
    rho = np.array([[0.5, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
    out = apply_kraus(emap, rho)
    assert out[0, 1] == pytest.approx(-(0.3 - 0.1j))
    assert out[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("dim,n_ops", [(2, 2), (3, 3), (4, 2)])
def test_random_channels_preserve_trace_and_positivity(rng, dim, n_ops):
    for _ in range(100):
        emap = random_kraus_map(dim, n_ops, rng)
        rho = random_density(dim, rng)
        out = apply_kraus(emap, rho)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


def test_lindblad_identity_map_is_zero():
    gen = lindblad_from_kraus(KrausMap(operators=(I2,)))
    assert np.max(np.abs(gen.matrix)) < 1e-14


def test_lindblad_annihilates_trace(rng):
    emap = random_kraus_map(3, 2, rng)
    gen = lindblad_from_kraus(emap)
    for _ in range(100):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(np.trace(gen.apply(x))) < 1e-10 * max(1.0, np.abs(x).max())


def test_depolarizing_damping_eigenvalues():
    gen = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    basis = damping_basis(gen)
    assert np.allclose(sorted(basis.rates.real), [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    # stationary eigenoperator is the maximally mixed state
    p0 = basis.right_ops[0]
    p0 = p0 / np.trace(p0)
    assert np.allclose(p0, I2 / 2, atol=1e-10)


def test_dephasing_damping_eigenvalues():
    gen = lindblad_from_kraus(qubit_kraus(Dephasing()))
    basis = damping_basis(gen)
    assert np.allclose(sorted(basis.rates.real), [0.0, 0.0, 2.0, 2.0], atol=1e-12)


def test_thermal_stationary_state():
    model = Thermal(kappa=0.6, p_up=0.3, p_down=0.7)
    gen = lindblad_from_kraus(qubit_kraus(model))
    basis = damping_basis(gen)
    stat = basis.right_ops[0]
    stat = stat / np.trace(stat)
    assert np.allclose(stat, np.diag([0.3, 0.7]), atol=1e-10)


def thermal_lindblad_parts(model: Thermal):
    """The thermal and dispersive pieces of L = kappa L_th + kappa_tilde L_d.

    L_th is the paper-normalized thermal dissipator
    (p_up/2)([s^dag, . s] + [s^dag ., s]) + (p_down/2)([s, . s^dag] + [s ., s^dag])
    and L_d the dephasing one (1/2)([s_z, . s_z] + [s_z ., s_z]).
    """
    lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |down><up|
    raise_ = lower.conj().T
    l_th = 0.5 * model.p_up * dissipator(raise_) + 0.5 * model.p_down * dissipator(lower)
    l_d = 0.5 * dissipator(SIGMA_Z)
    return l_th, l_d


def test_thermal_lindblad_decomposition_identity():
    # L = kappa L_th + kappa_tilde L_d, exactly
    model = Thermal(kappa=0.75, p_up=0.25, p_down=0.75)
    gen = lindblad_from_kraus(qubit_kraus(model))
    l_th, l_d = thermal_lindblad_parts(model)
    assert model.kappa_tilde == pytest.approx(0.5 * (1 - 0.375 - 0.5), abs=1e-15)
    combo = model.kappa * l_th + model.kappa_tilde * l_d
    assert np.max(np.abs(gen.matrix - combo)) < 1e-12


def test_mixture_generator_single_and_pair(rng):
    emap = random_kraus_map(2, 2, rng)
    g1 = mixture_generator([(1.0, emap)])
    g2 = lindblad_from_kraus(emap)
    assert np.allclose(g1.matrix, g2.matrix, atol=1e-14)
    # equal mixture of sigma_x and sigma_y conjugations = depolarizing
    mix = mixture_generator(
        [(0.5, KrausMap(operators=(SIGMA_X,))), (0.5, KrausMap(operators=(SIGMA_Y,)))]
    )
    depol = lindblad_from_kraus(qubit_kraus(Depolarizing()))
    assert np.allclose(mix.matrix, depol.matrix, atol=1e-14)


def test_damping_basis_biorthogonality_and_reconstruction(rng):
    emap = random_kraus_map(3, 3, rng)
    gen = lindblad_from_kraus(emap)
    rho = random_density(3, rng)
    basis = damping_basis(gen)
    for j, dual in enumerate(basis.dual_ops):
        for k, op in enumerate(basis.right_ops):
            expected = 1.0 if j == k else 0.0
            assert abs(np.trace(dual @ op) - expected) < 1e-9
    # eigen-relation L[P] = -lam P
    for lam, op in zip(basis.rates, basis.right_ops):
        assert np.max(np.abs(gen.apply(op) + lam * op)) < 1e-9
    # trace-preserving generators keep a stationary eigenvalue
    assert np.min(np.abs(basis.rates)) < 1e-10
    recon = basis.evolve(rho, np.ones((len(basis.rates), 1)))[0]
    assert np.max(np.abs(recon - rho.matrix)) < 1e-9


def test_damping_basis_zero_generator():
    gen = GeneratorMatrix(np.zeros((4, 4), dtype=complex), 2)
    basis = damping_basis(gen)
    assert np.allclose(basis.rates, 0.0)


def test_damping_basis_defective_generator_raises():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0  # nilpotent Jordan block in the traceless sector
    gen = GeneratorMatrix(m, 2)
    with pytest.raises(DefectiveGeneratorError):
        damping_basis(gen)


def test_choi_identity_map():
    choi, defect = choi_of_map(lambda m: m, 2)
    # d times the maximally entangled projector
    bell = vec(I2) / np.sqrt(2)
    assert np.allclose(choi.matrix, 2.0 * np.outer(bell, bell.conj()), atol=1e-12)
    assert defect == pytest.approx(0.0, abs=1e-12)


def test_choi_transpose_map_is_not_cp():
    _, defect = choi_of_map(lambda m: m.T, 2)
    assert defect == pytest.approx(-1.0, abs=1e-12)


def test_choi_of_random_kraus_map_is_psd(rng):
    for dim in (2, 3):
        emap = random_kraus_map(dim, 2, rng)
        _, defect = choi_of_map(lambda m: apply_kraus(emap, m), dim)
        assert defect > -1e-10


def test_kraus_from_choi_round_trip(rng):
    emap = random_kraus_map(2, 3, rng)
    choi, _ = choi_of_map(lambda m: apply_kraus(emap, m), 2)
    ops = kraus_from_choi(choi)
    rebuilt = KrausMap(operators=tuple(ops))
    rho = random_density(2, rng)
    assert np.allclose(apply_kraus(rebuilt, rho), apply_kraus(emap, rho), atol=1e-10)


def test_exp_generator_identity_limit(depolarizing_generator):
    emap = exp_generator_to_kraus(depolarizing_generator, 1e-9)
    # phase-fix each operator before measuring the Frobenius distance to {I}
    total = 0.0
    for c in emap.operators:
        tr = np.trace(c)
        if abs(tr) > 0.5:
            c = c * np.exp(-1j * np.angle(tr))
            total += np.linalg.norm(c - I2)
        else:
            total += np.linalg.norm(c)
    assert total < 1e-4


def test_exp_generator_dephasing_closed_form():
    gen = lindblad_from_kraus(qubit_kraus(Dephasing()))
    kappa = 0.37
    emap = exp_generator_to_kraus(gen, kappa)
    w_i = np.sqrt((1 + np.exp(-2 * kappa)) / 2)
    w_z = np.sqrt((1 - np.exp(-2 * kappa)) / 2)
    expected = KrausMap(operators=(w_i * I2, w_z * SIGMA_Z))
    got, _ = choi_of_map(lambda m: apply_kraus(emap, m), 2)
    want, _ = choi_of_map(lambda m: apply_kraus(expected, m), 2)
    assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10


def test_exp_thermal_generator_is_generalized_amplitude_damping():
    # e^(s L_th) equals the thermal Kraus family at kappa = 1 - e^{-s}
    l_th, _ = thermal_lindblad_parts(Thermal(kappa=0.5, p_up=0.3, p_down=0.7))
    gen = GeneratorMatrix(l_th, 2)
    s = 0.8
    emap = exp_generator_to_kraus(gen, s)
    assert len(emap.operators) == 4
    expected = qubit_kraus(Thermal(kappa=1 - np.exp(-s), p_up=0.3, p_down=0.7))
    got, _ = choi_of_map(lambda m: apply_kraus(emap, m), 2)
    want, _ = choi_of_map(lambda m: apply_kraus(expected, m), 2)
    assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10


def test_exp_generator_not_cp_detection():
    # transpose-composed generator is not Lindblad: exp is not CP
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    gen = GeneratorMatrix(swap - np.eye(4), 2)  # rho -> rho^T - rho
    with pytest.raises(NotCPError):
        exp_generator_to_kraus(gen, 1.0)


def test_exp_generator_log_round_trip(depolarizing_generator):
    import scipy.linalg

    kappa = 0.05
    emap = exp_generator_to_kraus(depolarizing_generator, kappa)
    s = emap.superoperator()
    log = scipy.linalg.logm(s)
    assert np.max(np.abs(log - kappa * depolarizing_generator.matrix)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_choi_superop_consistency(seed):
    rng = np.random.default_rng(seed)
    emap = random_kraus_map(2, 2, rng)
    c1, d1 = choi_of_map(lambda m: apply_kraus(emap, m), 2)
    c2, d2 = choi_of_superop(emap.superoperator(), 2)
    assert np.max(np.abs(c1.matrix - c2.matrix)) < 1e-12
    assert abs(d1 - d2) < 1e-12
