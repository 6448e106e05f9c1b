"""Spectral-backend operators against the quadrature build and dense
linear-algebra oracles."""

import numpy as np
import pytest
from scipy.linalg import eigh, expm, logm, sqrtm

from quadrature_oracle import quadrature_generators

from modloc.errors import SpectrumOutOfDomain
from modloc.laguerre import BasisSpec
from modloc.spectral import (
    HermitianOperator,
    build_generators,
    build_T,
    build_Th_Tc,
    build_tilde_generators,
    conjugation_J,
    half_modular_power_apply,
    interior_residual,
    j_conjugate_matrix,
    matrix_function,
    rotation_generator,
    translate_generators,
    tridiagonal_eigh,
    unitary_flow,
)

SPEC128 = BasisSpec(k=1.0, beta=1.0, M=128)


@pytest.fixture(scope="module")
def g128():
    return build_generators(SPEC128)


@pytest.fixture(scope="module")
def gt128(g128):
    return build_tilde_generators(g128)


def test_h_is_ladder_tridiagonal(g128):
    # x = 2 beta E is tridiagonal in any orthogonal-polynomial basis, with
    # diagonal (n + k)/beta
    H = g128.H
    M = H.shape[0]
    off = np.triu(np.abs(H), 2)
    assert np.max(off[: M - 4, : M - 4]) < 1e-10
    n = np.arange(M)
    assert np.allclose(np.diag(H).real[: M - 2], (n[: M - 2] + 1.0),
                       rtol=1e-10)


def test_commutators_interior(g128, gt128):
    for g in (g128, gt128):
        H, D, C = g.H, g.D, g.C
        assert interior_residual(H @ D - D @ H, 1j * H) < 1e-6
        assert interior_residual(C @ D - D @ C, -1j * C) < 1e-6
        assert interior_residual(H @ C - C @ H, 2j * D) < 1e-6


def test_lowest_weight_eigenvalues(g128, gt128):
    lo = eigh(g128.rotation(), eigvals_only=True, subset_by_index=(0, 0))[0]
    assert abs(lo - 1.0) < 1e-8
    lo_t = eigh(gt128.rotation(), eigvals_only=True, subset_by_index=(0, 0))[0]
    assert abs(lo_t - 0.75) < 1e-8


def test_d_spectrum_symmetric(g128):
    evals = eigh(g128.D, eigvals_only=True)
    assert np.max(np.abs(np.sort(evals) + np.sort(-evals)[::-1])) < 1e-8


def test_rotation_swap(g128):
    # exp(i pi (H+C)/2) swaps H with C and flips D
    R = unitary_flow(rotation_generator(g128), np.pi)
    assert interior_residual(R @ g128.H @ R.conj().T, g128.C) < 1e-4
    assert interior_residual(R @ g128.D @ R.conj().T, -g128.D) < 1e-4


def test_inverse_coordinate_bound(g128):
    # |H^{-1/2} psi|^2 <= (k - 1/2)^{-2} (psi, C psi) for states in the
    # lower half of the basis
    evals, vecs = eigh(g128.H)
    Hm = (vecs * evals ** -0.5) @ vecs.conj().T
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = np.zeros(128, complex)
        v[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = np.linalg.norm(Hm @ v) ** 2
        rhs = 4.0 * np.real(np.vdot(v, g128.C @ v))
        assert lhs <= rhs + 1e-8


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("beta", [0.25, 1.0, 16.0])
def test_closed_form_matches_quadrature(k, beta):
    # the closed-form bands against exact Gauss-Laguerre matrix elements,
    # for both triples; the tilde triple is the plain one at (k~, 2 beta)
    for M in (64, 384):
        spec = BasisSpec(k=k, beta=beta, M=M)
        g = build_generators(spec)
        gt = build_tilde_generators(g)
        tilde_spec = BasisSpec(k=spec.tilde_k, beta=2.0 * beta, M=M)
        for trip, ref_spec in ((g, spec), (gt, tilde_spec)):
            for ours, ref in zip((trip.H, trip.D, trip.C),
                                 quadrature_generators(ref_spec)):
                err = np.max(np.abs(ours - ref)) / np.max(np.abs(ref))
                assert err <= 1e-9, (M, trip.variant, err)


def test_tridiagonal_eigh_matches_dense(g128):
    for A in (g128.H, g128.D, g128.C, g128.rotation()):
        evals, vecs = tridiagonal_eigh(A)
        assert np.allclose(evals, eigh(A, eigvals_only=True), rtol=0,
                           atol=1e-9 * np.max(np.abs(evals)))
        assert np.max(np.abs(A @ vecs - vecs * evals)) < 1e-9 * np.max(
            np.abs(evals))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(128))) < 1e-10


def test_tridiagonal_eigh_rejects_off_band(g128):
    A = g128.C.copy()
    A[0, 5] = A[5, 0] = 1e-12
    with pytest.raises(ValueError):
        tridiagonal_eigh(A)
    B = g128.D.copy()
    B[3, 4] = 2.0 * B[3, 4]
    with pytest.raises(ValueError):
        tridiagonal_eigh(B)
    # a dense matrix has no tridiagonal eigensolve and no fallback
    with pytest.raises(ValueError):
        matrix_function(HermitianOperator(expm(1e-3 * g128.C)), "log")


def test_tilde_requires_plain(g128, gt128):
    with pytest.raises(ValueError):
        build_tilde_generators(gt128)


def test_matrix_function_against_scipy(g128):
    R = rotation_generator(g128)
    ours = matrix_function(R, "log").matrix
    ref = logm(R.matrix)
    assert np.max(np.abs(ours - ref)) < 1e-8
    ours = matrix_function(R, "sqrt").matrix
    ref = sqrtm(R.matrix)
    assert np.max(np.abs(ours - ref)) < 1e-8
    ours = matrix_function(R, "exp_scaled", param=-0.3).matrix
    ref = expm(-0.3 * R.matrix)
    assert np.max(np.abs(ours - ref)) < 1e-8
    inv = matrix_function(R, "power", param=-1.0).matrix
    assert np.max(np.abs(inv @ R.matrix - np.eye(128))) < 1e-8


def test_matrix_function_domain_errors(g128):
    D = HermitianOperator(g128.D, "Z")
    with pytest.raises(SpectrumOutOfDomain):
        matrix_function(D, "log")
    with pytest.raises(SpectrumOutOfDomain):
        matrix_function(D, "sqrt")
    with pytest.raises(ValueError):
        matrix_function(D, "nonsense")


def test_unitary_flow_is_unitary(g128):
    U = unitary_flow(HermitianOperator(g128.D, "Z"), 0.7)
    assert np.max(np.abs(U @ U.conj().T - np.eye(128))) < 1e-10
    ref = expm(1j * 0.7 * g128.D)
    assert np.max(np.abs(U - ref)) < 1e-8
    Um = unitary_flow(HermitianOperator(g128.D, "Z"), 0.7, sign=-1)
    assert np.max(np.abs(Um - U.conj().T)) < 1e-10


def test_T_spectrum_affine_in_log(gt128):
    T = build_T(gt128)
    evals_T = np.sort(eigh(T.matrix, eigvals_only=True))
    evals_C = np.sort(eigh(2.0 * gt128.C, eigvals_only=True))
    assert np.allclose(evals_T, 0.5 * np.log(evals_C), rtol=0, atol=1e-9)


def test_T_block_of_larger_truncation(gt128):
    # log(2 C~) truncated at M is wrong near its last rows; the leading
    # block of the logarithm at a larger truncation approaches the
    # compression of the untruncated T
    ref = build_T(gt128, log_M=16 * 128).matrix
    assert np.max(np.abs(build_T(gt128).matrix - ref)) > 0.1
    assert np.max(np.abs(build_T(gt128, log_M=2 * 128).matrix - ref)) < 2e-3
    with pytest.raises(ValueError):
        build_T(gt128, log_M=64)


def test_Th_Tc_from_plain_only(g128, gt128):
    Th, Tc = build_Th_Tc(g128)
    assert Th.matrix.shape == (128, 128)
    with pytest.raises(ValueError):
        build_Th_Tc(gt128)
    with pytest.raises(ValueError):
        build_T(g128)


def test_translate_generators_closed_form(g128):
    # conjugation by exp(-i a H) matches the closed form on an interior
    # block well clear of the truncation boundary
    a = 1.0
    U = expm(-1j * a * g128.H)
    gt = translate_generators(g128, a)
    assert interior_residual(U @ g128.C @ U.conj().T, gt.C, 0.25) < 1e-5
    assert interior_residual(U @ g128.D @ U.conj().T, gt.D, 0.25) < 1e-5
    g0 = translate_generators(g128, 0.0)
    assert np.array_equal(g0.C, g128.C)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_translated_C_positive(g128, a):
    gt = translate_generators(g128, a)
    lo = eigh(gt.C, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert lo > -1e-8


def test_conjugation_J_relations(g128):
    v = np.array([1.0 + 2.0j, -0.5j])
    assert np.array_equal(conjugation_J(v), v.conj())
    assert np.max(np.abs(j_conjugate_matrix(g128.H) - g128.H)) < 1e-10
    assert np.max(np.abs(j_conjugate_matrix(g128.D) + g128.D)) < 1e-10
    assert np.max(np.abs(j_conjugate_matrix(g128.C) - g128.C)) < 1e-10


def test_half_modular_power():
    # small truncation: the whole D spectrum stays within the overflow
    # guard, so the direct eigen-oracle is computable
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=8))
    evals, vecs = eigh(g.D)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    out = half_modular_power_apply(g.D, v)
    ref = vecs @ (np.exp(-np.pi * evals) * (vecs.conj().T @ v))
    assert np.linalg.norm(out - ref) < 1e-8 * np.linalg.norm(ref)


def test_half_modular_power_overflow_guard(g128):
    from modloc.errors import OverflowAbort

    rng = np.random.default_rng(3)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    with pytest.raises(OverflowAbort):
        half_modular_power_apply(g128.D, v)
