"""Spectral-backend operators against the quadrature build and dense
linear-algebra oracles."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh, expm, logm, sqrtm

from quadrature_oracle import quadrature_generators

from modloc.errors import SpectrumOutOfDomain
from modloc.laguerre import BasisSpec
from modloc.spectral import (
    INTERIOR_FRACTION,
    HermitianOperator,
    Tridiagonal,
    TridiagonalLog,
    _bands,
    _norm2,
    _unit_ladder_eig,
    build_generators,
    build_T,
    build_tilde_generators,
    log_spectrum,
    matrix_function,
    relative_residual,
    unitary_flow,
)

SPEC128 = BasisSpec(k=1.0, beta=1.0, M=128)
# the interior block of an M = 128 matrix: its leading
# ceil(INTERIOR_FRACTION M) rows and columns
B128 = int(np.ceil(INTERIOR_FRACTION * SPEC128.M))
P128 = np.s_[:B128, :B128]


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
        assert relative_residual((H @ D - D @ H)[P128], 1j * H[P128]) < 1e-6
        assert relative_residual((C @ D - D @ C)[P128], -1j * C[P128]) < 1e-6
        assert relative_residual((H @ C - C @ H)[P128], 2j * D[P128]) < 1e-6


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
    assert relative_residual((R @ H @ R.conj().T)[P128], C[P128]) < 1e-4
    assert relative_residual((R @ D @ R.conj().T)[P128], -D[P128]) < 1e-4


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


def _eigh(A):
    """(evals, V) of a band's eigensystem, with its gauge multiplied into V."""
    op = A.eigensystem()
    return op.evals, (op.vecs if op.gauge is None
                      else op.gauge[:, None] * op.vecs)


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
    # a block gives one value per column, not their sum
    cols = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    per_column = [np.vdot(c, dense @ c).real for c in cols.T]
    assert np.max(np.abs(A.expect(cols) - per_column)) < 1e-12
    evals, vecs = _eigh(A)
    assert np.max(np.abs(evals - eigh(dense, eigvals_only=True))) < 1e-12
    assert np.max(np.abs(dense @ vecs - vecs * evals)) < 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(40))) < 1e-12
    lo = A.eigvals(0, 1)
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
        evals, vecs = _eigh(X)
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


def test_tridiagonal_log_matches_eigensystem(gt128):
    # (1/2) log(2 C~) by resolvent quadrature on the bands against the
    # eigensystem T of the same matrix, for a vector, a block and a real
    # vector; the shift adds shift * |v|^2
    two_C = 2.0 * gt128.C
    T = build_T(gt128)
    op = TridiagonalLog(two_C, 0.5, 0.25)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
    norms = np.sum(np.abs(B) ** 2, axis=0)
    ref = T.expect(B) + 0.25 * norms
    assert np.all(np.abs(op.expect(B) - ref) <= 1e-12 * np.abs(ref))
    assert abs(op.expect(B[:, 0]) - ref[0]) <= 1e-12 * abs(ref[0])
    v = B[:, 1].real
    assert abs(op.expect(v) - T.expect(v) - 0.25 * v @ v) <= 1e-12 * abs(
        T.expect(v))
    assert np.allclose(op.spectral_range, T.evals[[0, -1]] + 0.25, rtol=0,
                       atol=1e-9)


def test_tridiagonal_log_domain_guard(g128):
    # the log needs a real, positive definite band with lambda_min above
    # 1e-10 lambda_max: refused, never clamped
    with pytest.raises(ValueError):
        TridiagonalLog(g128.D)
    v = np.ones(3)
    for diag in ([1.0, -1.0, 1.0], [1.0, 1e-12, 1.0]):
        op = TridiagonalLog(Tridiagonal(np.array(diag), np.zeros(2)))
        with pytest.raises(SpectrumOutOfDomain):
            op.expect(v)


@pytest.mark.parametrize("N", [2, 64])
def test_tridiagonal_log_constant_band_matches_eigensystem(N):
    # a constant band of either sign of the off-diagonal, or none, goes
    # through the sine transform with no quadrature node; against its
    # dense eigensystem; one ulp off constant takes the quadrature
    rng = np.random.default_rng(12)
    B = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    for c, e in ((2.0, -1.0), (3.0, 1.2), (1.5, 0.0)):
        A = Tridiagonal(np.full(N, c), np.full(N - 1, e))
        op = TridiagonalLog(A, 0.5, 0.25)
        evals, vecs = eigh(np.asarray(A))
        ref = 0.5 * np.log(evals) @ np.abs(vecs.T @ B) ** 2 + 0.25 * np.sum(
            np.abs(B) ** 2, axis=0)
        assert op.nodes.size == 0
        assert np.allclose(np.sort(op.sine_evals), evals, rtol=1e-12, atol=0)
        assert np.all(np.abs(op.expect(B) - ref) <= 1e-12 * np.abs(ref))
        bad = B[:, 0].copy()
        bad[N // 2] = np.nan
        assert np.isnan(op.expect(bad))
    diag = np.full(N, 2.0)
    diag[N // 2] = np.nextafter(2.0, 3.0)
    op = TridiagonalLog(Tridiagonal(diag, np.full(N - 1, -1.0)))
    assert op.sine_evals is None and op.nodes.size > 0
    assert np.isnan(op.expect(bad))


def test_tridiagonal_log_constant_band_domain_guard():
    # the sine transform keeps log_spectrum's guard: the N = 2e5 Laplacian
    # has lambda_min / lambda_max = 6.2e-11, below 1e-10, and is refused;
    # at N = 1e5 (2.5e-10) it is read
    def laplacian(N):
        return TridiagonalLog(Tridiagonal(np.full(N, 2.0),
                                          np.full(N - 1, -1.0)))

    assert np.isfinite(laplacian(100_000).expect(np.ones(100_000)))
    op = laplacian(200_000)
    assert op.nodes.size == 0
    with pytest.raises(SpectrumOutOfDomain):
        op.expect(np.ones(200_000))
    with pytest.raises(SpectrumOutOfDomain):
        op.spectral_range


def test_tridiagonal_log_refuses_nan_spectrum():
    # an infinite constant band has NaN sine_evals; the guard once let NaN
    # through (NaN <= cut is False) and spectral_range read (nan, nan)
    op = TridiagonalLog(Tridiagonal(np.full(8, 2.0), np.full(7, np.inf)))
    with pytest.raises(SpectrumOutOfDomain):
        op.spectral_range
    with pytest.raises(SpectrumOutOfDomain):
        op.expect(np.ones(8))
    with pytest.raises(SpectrumOutOfDomain):
        log_spectrum(np.array([np.nan, 1.0]))


def test_unitary_flow_is_unitary(g128):
    U = unitary_flow(g128.D, 0.7)
    assert np.max(np.abs(U @ U.conj().T - np.eye(128))) < 1e-10
    ref = expm(1j * 0.7 * np.asarray(g128.D))
    assert np.max(np.abs(U - ref)) < 1e-8
    Um = unitary_flow(g128.D, 0.7, sign=-1)
    assert np.max(np.abs(Um - U.conj().T)) < 1e-10


def test_operator_flows_and_functions_match_dense(g128, gt128):
    # flow blocks are blocks of expm, apply is f(A) X for a vector and a
    # block, and eigval picks from both ends of the spectrum
    D = g128.D.eigensystem()
    dense = np.asarray(g128.D)
    U = expm(-0.7j * dense)
    b = slice(0, 16)
    assert np.max(np.abs(D.flow(-0.7) - U)) < 1e-8
    assert np.array_equal(D.flow(-0.7, rows=b), D.flow(-0.7)[b])
    assert np.array_equal(D.flow(-0.7, cols=b), D.flow(-0.7)[:, b])
    assert np.max(np.abs(D.flow(-0.7, rows=b, cols=b) - U[b, b])) < 1e-8
    rng = np.random.default_rng(8)
    X = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
    for Y in (X, X[:, 0]):
        flowed = D.apply(lambda e: np.exp(-0.7j * e), Y)
        assert np.max(np.abs(flowed - U @ Y)) < 1e-8
    # a compression: apply and flow read the leading rows of a larger solve
    T = build_T(gt128, log_M=256)
    T256 = build_T(build_tilde_generators(build_generators(
        BasisSpec(k=1.0, beta=1.0, M=256)))).matrix
    assert np.max(np.abs(T.apply(lambda e: e, X) - T.matrix @ X)) < 1e-10
    assert np.max(np.abs(T.flow(0.3) - expm(0.3j * T256)[:128, :128])) < 1e-8
    evals = eigh(dense, eigvals_only=True)
    assert abs(g128.D.eigval(0) - evals[0]) < 1e-9
    assert abs(g128.D.eigval(-1) - evals[-1]) < 1e-9
    assert g128.D.eigval(127) == g128.D.eigval(-1)


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


@pytest.mark.parametrize("k", [0.5, 0.75, 1.75])
@pytest.mark.parametrize("N", [1, 2, 64, 768, 2048])
def test_unit_ladder_eig_matches_lapack(k, N):
    # the Laguerre rows at the eigenvalues against LAPACK's eigenvectors of
    # the same bands: T's compression onto the leading half, and the
    # orthonormality of those rows
    ref_op = Tridiagonal(*_bands(k, N)).eigensystem()
    mu0, V0 = ref_op.evals, ref_op.vecs
    _unit_ladder_eig.cache_clear()
    mu, V = _unit_ladder_eig(k, N)
    _unit_ladder_eig.cache_clear()
    h = max(N // 2, 1)
    ref = (V0[:h] * (0.5 * np.log(4.0 * mu0))) @ V0[:h].T
    T = (V[:h] * (0.5 * np.log(4.0 * mu))) @ V[:h].T
    assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(V[:h] @ V[:h].T - np.eye(h))) <= 1e-12


def test_translate_generators_closed_form(g128):
    # with [H, D] = iH and [H, C] = 2iD, conjugation by exp(-i a H) takes
    # D to D + aH and C to C + 2aD + a^2 H; checked on an interior block
    # well clear of the truncation boundary
    a = 1.0
    H, D, C = (np.asarray(X) for X in (g128.H, g128.D, g128.C))
    U = expm(-1j * a * H)
    q = np.s_[:SPEC128.M // 4, :SPEC128.M // 4]
    assert relative_residual((U @ C @ U.conj().T)[q],
                             (C + 2 * a * D + a * a * H)[q]) < 1e-5
    assert relative_residual((U @ D @ U.conj().T)[q], (D + a * H)[q]) < 1e-5


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_translated_C_positive(g128, a):
    Ca = g128.C + 2 * a * g128.D + a * a * g128.H
    lo = eigh(Ca, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert lo > -1e-8


def test_conjugation_J_relations(g128):
    H, D, C = (np.asarray(X) for X in (g128.H, g128.D, g128.C))
    # J is componentwise conjugation of the real basis' coefficients
    assert np.max(np.abs(np.conj(H) - H)) < 1e-10
    assert np.max(np.abs(np.conj(D) + D)) < 1e-10
    assert np.max(np.abs(np.conj(C) - C)) < 1e-10


@pytest.mark.parametrize("complex_block", [False, True])
@pytest.mark.parametrize("shape", ["tall", "wide", "square", "rank-1"])
def test_gram_norm_matches_svd(shape, complex_block):
    # the largest Gram eigenvalue on the narrow side against the largest
    # singular value
    rng = np.random.default_rng(11)
    dims = {"tall": (300, 7), "wide": (7, 300), "square": (40, 40),
            "rank-1": (50, 1)}[shape]
    X = rng.standard_normal(dims)
    if complex_block:
        X = X + 1j * rng.standard_normal(dims)
    if shape == "rank-1":
        X = X @ rng.standard_normal((1, 20))
    ref = np.linalg.svd(X, compute_uv=False)[0]
    assert abs(_norm2(X) - ref) <= 1e-13 * ref
    v = X[:, 0]
    assert _norm2(v) == np.linalg.norm(v)


def test_relative_residual_is_nan_without_finite_evidence():
    # a zero rhs, or a NaN or an inf on either side, never reads as small
    block, vec = np.ones((6, 3)), np.ones(6)
    assert np.isnan(relative_residual(block, np.zeros((6, 3))))
    assert np.isnan(relative_residual(vec, np.zeros(6)))
    for bad in (np.nan, np.inf):
        spoiled = block.copy()
        spoiled[2, 1] = bad
        assert np.isnan(relative_residual(spoiled, block))
        assert np.isnan(relative_residual(block, spoiled))
    assert relative_residual(2.0 * block, block) == pytest.approx(1.0)


def test_empty_blocks_give_nan_without_blas(capfd):
    # an empty Gram matrix is an illegal BLAS argument: the reference xerbla
    # stops the program, OpenBLAS prints a message and carries on
    for dtype in (float, complex):
        empty = np.zeros((0, 0), dtype=dtype)
        assert np.isnan(relative_residual(empty, empty))
    assert capfd.readouterr() == ("", "")


def test_banded_commutators_match_dense_interior_block():
    # on a perturbed triple, so that the residuals compared are not
    # round-off: the interior block of [X, Y] - z W from dense products,
    # normed by SVD
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=64))
    rng = np.random.default_rng(12)
    g = dataclasses.replace(
        g, H=Tridiagonal(g.H.diag * (1 + 1e-3 * rng.standard_normal(64)),
                         g.H.upper),
        C=Tridiagonal(g.C.diag,
                      g.C.upper * (1 + 1e-3 * rng.standard_normal(63))))
    res = g.commutator_residuals()
    H, D, C = (np.asarray(X) for X in (g.H, g.D, g.C))
    b = slice(0, int(np.ceil(0.8 * 64)))
    for key, comm, rhs in (("HD", H @ D - D @ H, 1j * H),
                           ("CD", C @ D - D @ C, -1j * C),
                           ("HC", H @ C - C @ H, 2j * D)):
        ref = (np.linalg.svd((comm - rhs)[b, b], compute_uv=False)[0]
               / np.linalg.svd(rhs[b, b], compute_uv=False)[0])
        assert ref > 1e-6
        assert abs(res[key] - ref) <= 1e-12 * ref
    diag = g.H.diag.copy()
    diag[5] = np.nan
    nan_set = dataclasses.replace(g, H=Tridiagonal(diag, g.H.upper))
    res = nan_set.commutator_residuals()
    # [C, D] = -iC does not involve H
    assert np.isnan(res["HD"]) and np.isnan(res["HC"])
    assert np.isfinite(res["CD"])


def test_gauge_of_D_is_exact():
    # the phases of an axis-aligned band divide exactly: D's gauge is
    # (-i)^n to the bit at M = 4096, with no drift off the unit circle
    D = build_generators(BasisSpec(k=1.0, beta=1.0, M=4096)).D
    _, gauge = D.gauged()
    powers = np.array([1, -1j, -1, 1j])[np.arange(4096) % 4]
    assert np.array_equal(gauge, powers)


def test_gauged_operator_matches_complex_vectors(g128):
    # D's eigensystem kept as real eigenvectors and the gauge (-i)^n
    # against the same solve with the gauge multiplied in
    gauged = g128.D.eigensystem()
    assert not np.iscomplexobj(gauged.vecs)
    assert np.allclose(gauged.gauge,
                       np.array([1, -1j, -1, 1j])[np.arange(128) % 4],
                       rtol=0, atol=1e-14)
    plain = HermitianOperator(gauged.evals,
                              gauged.gauge[:, None] * gauged.vecs)
    assert plain.gauge is None and np.iscomplexobj(plain.vecs)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
    R = rng.standard_normal((128, 2))
    b = slice(0, 16)
    m = 100
    compressed = [HermitianOperator(op.evals, op.vecs[:m],
                                    None if op.gauge is None
                                    else op.gauge[:m])
                  for op in (gauged, plain)]

    def outputs(op, Y):
        f = lambda e: np.exp(-0.3j * e) * e
        return [op.weights(Y), op.weights(Y[:, 0]), op.apply(f, Y),
                op.apply(f, Y[:, 1]), op.apply(f, R[:len(Y)]), op.matrix,
                op.flow(0.4), op.flow(-0.7, rows=b), op.flow(0.3, cols=b),
                op.flow(1.1, rows=b, cols=b)]

    for ours, ref in zip(outputs(gauged, X) + outputs(compressed[0], X[:m]),
                         outputs(plain, X) + outputs(compressed[1], X[:m])):
        assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(
            np.abs(ref)))
    # H and C share one solve: H is C's eigensystem in the sign gauge
    H, C = g128.hc_eigensystems()
    assert H.vecs is C.vecs and np.array_equal(H.gauge ** 2, np.ones(128))
    for op, X in ((H, g128.H), (C, g128.C)):
        dense = np.asarray(X)
        assert np.max(np.abs(op.matrix - dense)) < 1e-12 * np.max(
            np.abs(dense))
