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
    Tridiagonal,
    build_generators,
    build_T,
    build_tilde_generators,
    interior_residual,
    j_conjugate_matrix,
    log_spectrum,
    matrix_function,
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
    H = np.asarray(g128.H)
    M = H.shape[0]
    off = np.triu(np.abs(H), 2)
    assert np.max(off[: M - 4, : M - 4]) < 1e-10
    n = np.arange(M)
    assert np.allclose(np.diag(H).real[: M - 2], (n[: M - 2] + 1.0),
                       rtol=1e-10)


def test_commutators_interior(g128, gt128):
    for g in (g128, gt128):
        H, D, C = (np.asarray(X) for X in (g.H, g.D, g.C))
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
    R = unitary_flow(g128.rotation(), np.pi)
    H, D, C = (np.asarray(X) for X in (g128.H, g128.D, g128.C))
    assert interior_residual(R @ H @ R.conj().T, C) < 1e-4
    assert interior_residual(R @ D @ R.conj().T, -D) < 1e-4


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
                err = (np.max(np.abs(np.asarray(ours) - ref))
                       / np.max(np.abs(ref)))
                assert err <= 1e-9, (M, trip.variant, err)


def _random_bands(rng, M, complex_band):
    upper = rng.standard_normal(M - 1)
    if complex_band:
        upper = upper + 1j * rng.standard_normal(M - 1)
    return Tridiagonal(rng.standard_normal(M), upper)


@pytest.mark.parametrize("complex_band", [False, True])
def test_tridiagonal_matches_dense(complex_band):
    # the band kernels against the dense view and numpy/scipy
    rng = np.random.default_rng(5)
    A = _random_bands(rng, 40, complex_band)
    dense = np.asarray(A)
    assert dense.dtype == (complex if complex_band else float)
    assert np.array_equal(dense, dense.conj().T)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    block = rng.standard_normal((40, 3))
    assert np.max(np.abs(A @ v - dense @ v)) < 1e-13
    assert np.max(np.abs(A @ block - dense @ block)) < 1e-13
    assert abs(A.expect(v) - np.vdot(v, dense @ v).real) < 1e-12
    evals, vecs = A.eigh()
    assert np.max(np.abs(evals - eigh(dense, eigvals_only=True))) < 1e-12
    assert np.max(np.abs(dense @ vecs - vecs * evals)) < 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(40))) < 1e-12
    lo = A.eigh(eigvals_only=True, select="i", select_range=(0, 1))
    assert np.allclose(lo, evals[:2], rtol=0, atol=1e-12)
    B = _random_bands(rng, 40, not complex_band)
    assert np.array_equal(np.asarray(2.5 * A + B * 0.5),
                          2.5 * dense + np.asarray(B) * 0.5)


def test_tridiagonal_refuses_complex_scale_and_bad_bands():
    A = _random_bands(np.random.default_rng(6), 8, True)
    for scale in (1j, np.complex128(2.0)):
        with pytest.raises(TypeError):
            scale * A
        with pytest.raises(TypeError):
            A * scale
    with pytest.raises(ValueError):
        Tridiagonal(np.ones(8, complex), np.ones(7))
    with pytest.raises(ValueError):
        Tridiagonal(np.ones(8), np.ones(8))
    with pytest.raises(ValueError):
        Tridiagonal(np.ones((8, 8)), np.ones(7))


def test_tridiagonal_eigh_matches_dense(g128):
    for X in (g128.H, g128.D, g128.C, g128.rotation()):
        A = np.asarray(X)
        evals, vecs = X.eigh()
        assert np.allclose(evals, eigh(A, eigvals_only=True), rtol=0,
                           atol=1e-9 * np.max(np.abs(evals)))
        assert np.max(np.abs(A @ vecs - vecs * evals)) < 1e-9 * np.max(
            np.abs(evals))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(128))) < 1e-10


def test_tilde_requires_plain(g128, gt128):
    with pytest.raises(ValueError):
        build_tilde_generators(gt128)


def test_matrix_function_against_scipy(g128):
    R = g128.rotation()
    dense = np.asarray(R)
    ours = matrix_function(R, log_spectrum).matrix
    ref = logm(dense)
    assert np.max(np.abs(ours - ref)) < 1e-8
    ours = matrix_function(R, np.sqrt).matrix
    ref = sqrtm(dense)
    assert np.max(np.abs(ours - ref)) < 1e-8
    ours = matrix_function(R, lambda e: np.exp(-0.3 * e)).matrix
    ref = expm(-0.3 * dense)
    assert np.max(np.abs(ours - ref)) < 1e-8
    inv = matrix_function(R, np.reciprocal).matrix
    assert np.max(np.abs(inv @ dense - np.eye(128))) < 1e-8


def test_matrix_function_domain_errors(g128):
    # D has a symmetric spectrum: the log is refused, not clamped, and a
    # bare numpy function warns instead of returning NaN silently
    D = g128.D
    with pytest.raises(SpectrumOutOfDomain):
        matrix_function(D, log_spectrum)
    with pytest.raises(SpectrumOutOfDomain):
        log_spectrum(np.array([1.0, 1e-12]))
    with pytest.warns(RuntimeWarning):
        matrix_function(D, np.sqrt)
    with pytest.raises(TypeError):
        matrix_function(D, "log")


@pytest.mark.parametrize("complex_vecs", [False, True])
def test_hermitian_operator_matches_dense(complex_vecs):
    rng = np.random.default_rng(5)
    n, m = 40, 25
    A = rng.standard_normal((n, n))
    if complex_vecs:
        A = A + 1j * rng.standard_normal((n, n))
    A = A + A.conj().T
    evals, vecs = eigh(A)
    op = HermitianOperator(evals, vecs)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    scale = np.max(np.abs(A))
    assert np.max(np.abs(op.matrix - A)) < 1e-12 * scale
    assert np.allclose(op.weights(v), np.abs(vecs.conj().T @ v) ** 2,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(op.weights(B), np.abs(vecs.conj().T @ B) ** 2,
                       rtol=1e-12, atol=1e-12)
    assert abs(op.expect(v) - np.vdot(v, A @ v).real) < 1e-11 * scale
    ref = np.real(np.sum(B.conj() * (A @ B), axis=0))
    assert np.max(np.abs(op.expect(B) - ref)) < 1e-11 * scale
    # the leading rows of V: the compression onto the first m vectors
    comp = HermitianOperator(evals, vecs[:m])
    Am = A[:m, :m]
    assert np.max(np.abs(comp.matrix - Am)) < 1e-12 * scale
    assert abs(comp.expect(v[:m]) - np.vdot(v[:m], Am @ v[:m]).real) < (
        1e-11 * scale)
    ref = np.real(np.sum(B[:m].conj() * (Am @ B[:m]), axis=0))
    assert np.max(np.abs(comp.expect(B[:m]) - ref)) < 1e-11 * scale


def test_hermitian_operator_shapes_checked():
    evals, vecs = np.arange(4.0), np.eye(4)
    with pytest.raises(ValueError):
        HermitianOperator(evals, vecs[:, :3])
    with pytest.raises(ValueError):
        HermitianOperator(evals + 0j, vecs)
    with pytest.raises(ValueError):
        HermitianOperator(evals[:3], vecs[:, :3])


def test_unitary_flow_is_unitary(g128):
    U = unitary_flow(g128.D, 0.7)
    assert np.max(np.abs(U @ U.conj().T - np.eye(128))) < 1e-10
    ref = expm(1j * 0.7 * np.asarray(g128.D))
    assert np.max(np.abs(U - ref)) < 1e-8
    Um = unitary_flow(g128.D, 0.7, sign=-1)
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


def test_T_from_tilde_only(g128, gt128):
    assert build_T(gt128).matrix.shape == (128, 128)
    with pytest.raises(ValueError):
        build_T(g128)


def test_translate_generators_closed_form(g128):
    # with [H, D] = iH and [H, C] = 2iD, conjugation by exp(-i a H) takes
    # D to D + aH and C to C + 2aD + a^2 H; checked on an interior block
    # well clear of the truncation boundary
    a = 1.0
    H, D, C = (np.asarray(X) for X in (g128.H, g128.D, g128.C))
    U = expm(-1j * a * H)
    assert interior_residual(U @ C @ U.conj().T, C + 2 * a * D + a * a * H,
                             0.25) < 1e-5
    assert interior_residual(U @ D @ U.conj().T, D + a * H, 0.25) < 1e-5


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_translated_C_positive(g128, a):
    Ca = g128.C + 2 * a * g128.D + a * a * g128.H
    lo = eigh(Ca, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert lo > -1e-8


def test_conjugation_J_relations(g128):
    H, D, C = (np.asarray(X) for X in (g128.H, g128.D, g128.C))
    assert np.max(np.abs(j_conjugate_matrix(H) - H)) < 1e-10
    assert np.max(np.abs(j_conjugate_matrix(D) + D)) < 1e-10
    assert np.max(np.abs(j_conjugate_matrix(C) - C)) < 1e-10

