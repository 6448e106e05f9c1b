"""Finite-difference backend: structure, convergence, and cross-oracles."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from modloc import gridop, spectral
from modloc.gridop import GridSpec, GridState, build_grid_ops
from modloc.localization import (
    BumpSpec,
    FourierProfile,
    positive_frequency,
)
from modloc.spectral import Tridiagonal


@pytest.fixture(scope="module")
def rep():
    return build_grid_ops(GridSpec(N=2048, E_max=40.0), 1.0)


@pytest.fixture(scope="module")
def bump_state(rep):
    bump = BumpSpec(1.0, 2.0)
    return (positive_frequency(bump, rep.grid, max_residual=1e-3),
            FourierProfile(bump))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(N=4)
    with pytest.raises(ValueError):
        GridSpec(N=64, E_max=-1.0)
    g = GridSpec(N=99, E_max=10.0)
    assert abs(g.spacing - 0.1) < 1e-12
    assert abs(g.nodes[0] - 0.1) < 1e-12 and len(g.nodes) == 99


def test_operator_structure(rep):
    # H diagonal = nodes; D = -i times a real antisymmetric tridiagonal;
    # C and C~ real symmetric tridiagonal
    assert np.array_equal(rep.H.diag, rep.grid.nodes)
    assert not np.any(rep.H.upper)
    assert not np.any(rep.D.diag) and not np.any(rep.D.upper.real)
    assert np.all(rep.D.upper.imag < 0)
    for X in (rep.C, rep.Ctilde):
        assert not np.iscomplexobj(X.upper) and np.all(X.upper < 0)


def test_k_validation():
    with pytest.raises(ValueError):
        build_grid_ops(GridSpec(N=64, E_max=10.0), 0.3)


def test_commutator_residuals_both_triples():
    rep4 = build_grid_ops(GridSpec(N=4096, E_max=40.0), 1.0)
    res = rep4.commutator_residuals(triple="plain")
    assert max(res.values()) < 1e-3
    rept = build_grid_ops(GridSpec(N=4096, E_max=10.0), 1.0)
    res_t = rept.commutator_residuals(triple="tilde")
    assert max(res_t.values()) < 1e-3
    with pytest.raises(ValueError):
        rep4.commutator_residuals(triple="bogus")


def test_commutator_residuals_second_order():
    rs = []
    for N in (1024, 2048, 4096):
        r = build_grid_ops(GridSpec(N=N, E_max=40.0), 1.0)
        rs.append(r.commutator_residuals(triple="plain")["HD"])
    orders = np.log2(np.array(rs[:-1]) / np.array(rs[1:]))
    assert np.all(orders > 1.5)


def test_rotation_ground_state_convergence():
    errs = []
    for N in (256, 512, 1024):
        r = build_grid_ops(GridSpec(N=N, E_max=40.0), 1.0)
        lo = eigh_tridiagonal(0.5 * (r.H.diag + r.C.diag), 0.5 * r.C.upper,
                              select="i", select_range=(0, 0),
                              eigvals_only=True)[0]
        errs.append(abs(lo - 1.0))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.3)


def test_ctilde_positive_and_t_min(rep):
    # C~ is positive definite, and the least (largest) eigenvalue of T is
    # half the log of twice its lowest (highest) one
    evals = eigh_tridiagonal(rep.Ctilde.diag, rep.Ctilde.upper,
                             eigvals_only=True)
    assert evals[0] > 0
    t_min, t_max = rep.T.spectral_range
    assert abs(t_min - 0.5 * np.log(2.0 * evals[0])) < 1e-9
    assert abs(t_max - 0.5 * np.log(2.0 * evals[-1])) < 1e-9


def test_d_eigenvectors(rep):
    evals, vecs = rep.D.eigh()
    D = rep.D
    for i in (0, rep.grid.N // 2, rep.grid.N - 1):
        r = D @ vecs[:, i] - evals[i] * vecs[:, i]
        assert np.linalg.norm(r) < 1e-8


def test_expectations_match_dense(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    h = rep.grid.spacing
    v = gs.samples
    for got, X, tol in ((rep.expect_H(gs), rep.H, 1e-10),
                        (rep.expect_C(gs), rep.C, 1e-8),
                        (rep.expect_D(gs), rep.D, 1e-10),
                        (h * rep.Ctilde.expect(v), rep.Ctilde, 1e-10)):
        dense = np.asarray(X)
        assert abs(got - h * np.real(np.vdot(v, dense @ v))) < tol


def test_expect_T_in_interval_bounds(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    val = rep.expect_T(gs) / gs.norm_sq()
    assert np.log(1.0) - 1e-6 <= val <= np.log(2.0) + 1e-6


def test_dilation_flows_agree(rep, bump_state):
    # exp(-i t D_grid) against the exact pushforward of the profile,
    # e^{-t/2} psi_plus_tilde(e^{-t} E); compared on the resolved bulk: the
    # matrix flow scatters the sqrt(E) origin kink into high-energy modes
    # near the outer wall
    sv, prof = bump_state
    psi = sv.as_grid_state().samples
    evals, vecs = rep.D.eigh()
    amps = vecs.conj().T @ psi
    E = rep.grid.nodes
    sel = (E > 0.5) & (E < 20.0)
    for t in (0.2, 0.3):
        flowed = vecs @ (np.exp(-1j * t * evals) * amps)
        exact = np.exp(-t / 2.0) * prof.positive_part(np.exp(-t) * E)
        err = np.linalg.norm((flowed - exact)[sel]) / np.linalg.norm(psi)
        assert err < 1e-3


def test_grid_state_norm():
    grid = GridSpec(N=64, E_max=10.0)
    v = np.ones(64, complex)
    assert abs(GridState(v, grid).norm_sq() - 64 * grid.spacing) < 1e-12


def _dense_T(rep):
    """Oracle: eigenvalues of (1/2) log(2 C~) and eigenvectors of C~, from
    the dense eigensystem of the grid's own C~ bands."""
    evals, vecs = eigh_tridiagonal(rep.Ctilde.diag, rep.Ctilde.upper)
    return 0.5 * np.log(2.0 * evals), vecs


def _dense_expect(t, vecs, v):
    return t @ np.abs(vecs.T @ v) ** 2


def _rayleigh_T(N, k):
    """Oracle: eigenvectors of the unit bands 2K(N, k) = 2 h^2 C~ from the
    dense tridiagonal solve, and log of their eigenvalues as Rayleigh
    quotients summed over the differences of each eigenvector.

    2K = -D2 + c with c_j = (k^2 - k)/j^2, so <u, 2K u> = sum_j (u_{j+1} -
    u_j)^2 + sum_j c_j u_j^2 (u_0 = u_{N+1} = 0): a sum of squares, exact to
    round-off relative to the eigenvalue, where the solver's eigenvalues
    are exact only relative to |2K| ~ 4 (relative error up to 3e-10 at
    N = 4096).
    """
    j = np.arange(1, N + 1, dtype=float)
    c = (k * k - k) / (j * j)
    _, vecs = eigh_tridiagonal(2.0 + c, np.full(N - 1, -1.0))
    du = np.diff(vecs, axis=0)
    lam = (np.einsum("ij,ij->j", du, du) + vecs[0] ** 2 + vecs[-1] ** 2
           + np.einsum("i,ij,ij->j", c, vecs, vecs))
    return np.log(lam), vecs


@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("k", [0.5, 0.75, 1.0, 1.5, 3.0])
def test_expect_T_matches_dense_oracle(bump_state, k, N):
    # T = (1/2) log(2K) - log h on the bump's profile sampled on the grid
    # and on a random vector, at the fixtures' smallest and largest E_max
    _, prof = bump_state
    log_lam, vecs = _rayleigh_T(N, k)
    rng = np.random.default_rng(11)
    for emax in (40.0, 160.0):
        rep = build_grid_ops(GridSpec(N=N, E_max=emax), k)
        h = rep.grid.spacing
        v = np.stack([prof.positive_part(rep.grid.nodes),
                      rng.standard_normal(N) + 1j * rng.standard_normal(N)],
                     axis=1)
        # real GEMMs: the complex product would cast vecs to complex
        weights = (vecs.T @ v.real) ** 2 + (vecs.T @ v.imag) ** 2
        ref = h * ((0.5 * log_lam - np.log(h)) @ weights)
        got = [rep.expect_T(GridState(col, rep.grid)) for col in v.T]
        assert np.all(np.abs(np.subtract(got, ref)) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("k", [1.0, 1.5])
def test_ctilde_eig_matches_direct_solve(k):
    # C~ = h^-2 K(N, k): T built from the unit bands has the spectrum and
    # the expectation values of the direct solve of C~ at each E_max
    rng = np.random.default_rng(3)
    v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    for emax in (40.0, 213.3):
        r = build_grid_ops(GridSpec(N=1024, E_max=emax), k)
        t, vecs = _dense_T(r)
        # relative error of the extreme eigenvalues of C~
        err = np.expm1(2.0 * (np.array(r.T.spectral_range) - t[[0, -1]]))
        assert np.max(np.abs(err)) < 1e-9
        ref = _dense_expect(t, vecs, v)
        assert abs(r.T.expect(v) - ref) < 1e-9 * abs(ref)
def test_expect_T_matches_complex_projection(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    h = rep.grid.spacing
    evals, vecs = eigh_tridiagonal(rep.Ctilde.diag, rep.Ctilde.upper)
    amps = h * (vecs.astype(complex).T @ gs.samples)
    ref = np.sum(0.5 * np.log(2.0 * evals) * np.abs(amps) ** 2 / h)
    assert abs(rep.expect_T(gs) - ref) <= 1e-12 * abs(ref)


def test_ctilde_eigensystem_shared_per_n_and_k():
    # T reads the unit bands 2K(N, k), the same for every E_max; C~ scales
    # by h^-2, so T shifts by log(h1 / h2), in the spectral range and in
    # every expectation value
    r1 = build_grid_ops(GridSpec(N=512, E_max=40.0), 1.0)
    r2 = build_grid_ops(GridSpec(N=512, E_max=53.3), 1.0)
    for band in ("diag", "upper"):
        assert np.array_equal(getattr(r1.T.A, band), getattr(r2.T.A, band))
    shift = np.log(r1.grid.spacing / r2.grid.spacing)
    assert np.allclose(np.subtract(r2.T.spectral_range, r1.T.spectral_range),
                       shift, rtol=0, atol=1e-13)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((512, 2)) + 1j * rng.standard_normal((512, 2))
    v /= np.linalg.norm(v, axis=0)
    assert np.allclose(r2.T.expect(v) - r1.T.expect(v), shift, rtol=0,
                       atol=1e-13)
    # and against the dense eigensystem of each grid's own C~
    for r in (r1, r2):
        ref = _dense_expect(*_dense_T(r), v)
        assert np.all(np.abs(r.T.expect(v) - ref) <= 1e-12 * np.abs(ref))


def test_grid_T_ends_solved_once_per_n_and_k(monkeypatch):
    # eight grids of one (N, k) share the unit bands, so two eigenvalue-
    # only solves serve all of them; each spectral range is the one its
    # own solve of the same bands gives
    gridop._unit_band.cache_clear()
    calls = []
    solve = spectral.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)
    reps = [build_grid_ops(GridSpec(N=1000, E_max=e), 1.25)
            for e in np.linspace(20.0, 90.0, 8)]
    ranges = [r.T.spectral_range for r in reps]
    assert calls == [True, True]
    j = np.arange(1, 1001, dtype=float)
    for r, got in zip(reps, ranges):
        own = Tridiagonal(2.0 + (1.25 ** 2 - 1.25) / (j * j),
                          np.full(999, -1.0))
        lo, hi = 0.5 * np.log([own.eigval(0), own.eigval(-1)])
        shift = -np.log(r.grid.spacing)
        assert got == (float(lo + shift), float(hi + shift))
