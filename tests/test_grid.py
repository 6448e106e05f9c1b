"""Finite-difference backend: structure, convergence, and cross-oracles."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from modloc.errors import SupportEscapesGrid
from modloc.gridop import GridSpec, GridState, build_grid_ops, grid_dilation
from modloc.localization import (
    BumpSpec,
    FourierProfile,
    make_bump,
    positive_frequency,
)


@pytest.fixture(scope="module")
def rep():
    return build_grid_ops(GridSpec(N=2048, E_max=40.0), 1.0)


@pytest.fixture(scope="module")
def bump_state(rep):
    x, psi = make_bump(BumpSpec(1.0, 2.0, samples=8192))
    prof = FourierProfile(x, psi)
    return positive_frequency(x, psi, rep.grid, max_residual=1e-3,
                              profile=prof), prof


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
    evals = rep.ctilde_eig[0]
    assert evals[0] > 0


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
    for expect, X, tol in ((rep.expect_H, rep.H, 1e-10),
                           (rep.expect_C, rep.C, 1e-8),
                           (rep.expect_D, rep.D, 1e-10),
                           (rep.expect_Ctilde, rep.Ctilde, 1e-10)):
        dense = np.asarray(X)
        assert abs(expect(gs) - h * np.real(np.vdot(v, dense @ v))) < tol


def test_expect_T_in_interval_bounds(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    val = rep.expect_T(gs) / gs.norm_sq()
    assert np.log(1.0) - 1e-6 <= val <= np.log(2.0) + 1e-6


def test_dilation_flows_agree(rep, bump_state):
    # integral flow (resampling) vs matrix exponential of D_grid; compared
    # on the resolved bulk: the matrix flow scatters the sqrt(E) origin
    # kink into high-energy modes near the outer wall
    sv, prof = bump_state
    gs = sv.as_grid_state()
    t = 0.2
    a1 = grid_dilation(gs, t)
    a2 = rep.apply_dilation_matrix(gs, t)
    E = rep.grid.nodes
    sel = (E > 0.5) & (E < 20.0)
    num = np.linalg.norm((a1.samples - a2.samples)[sel])
    den = np.linalg.norm(gs.samples)
    assert num / den < 1e-3
    # and the resampling flow matches the exact pushforward of the profile
    s = np.exp(-t)
    exact = np.exp(-t / 2.0) * prof.positive_part(s * E)
    assert np.linalg.norm((a1.samples - exact)[sel]) / den < 1e-3


def test_dilation_norm_preserved(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    # resampling loses a little mass at the sqrt(E) origin kink
    out = grid_dilation(gs, 0.3)
    assert abs(out.norm_sq() - gs.norm_sq()) < 5e-3 * gs.norm_sq()


def test_dilation_wall_escape(bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    with pytest.raises(SupportEscapesGrid):
        grid_dilation(gs, 3.5, sign=1)


def test_grid_state_norm():
    grid = GridSpec(N=64, E_max=10.0)
    v = np.ones(64, complex)
    assert abs(GridState(v, grid).norm_sq() - 64 * grid.spacing) < 1e-12


@pytest.mark.parametrize("k", [1.0, 1.5])
def test_ctilde_eig_matches_direct_solve(k):
    # C~ = h^-2 K(N, k): the shared unit solve rescaled to each E_max
    for emax in (40.0, 213.3):
        r = build_grid_ops(GridSpec(N=1024, E_max=emax), k)
        direct = eigh_tridiagonal(r.Ctilde.diag, r.Ctilde.upper,
                                  eigvals_only=True)
        evals = r.ctilde_eig[0]
        assert np.max(np.abs(evals - direct) / direct) < 1e-9


def test_expect_T_matches_complex_projection(rep, bump_state):
    sv, _ = bump_state
    gs = sv.as_grid_state()
    h = rep.grid.spacing
    evals, vecs = eigh_tridiagonal(rep.Ctilde.diag, rep.Ctilde.upper)
    amps = h * (vecs.astype(complex).T @ gs.samples)
    ref = np.sum(0.5 * np.log(2.0 * evals) * np.abs(amps) ** 2 / h)
    assert abs(rep.expect_T(gs) - ref) <= 1e-12 * abs(ref)


def test_ctilde_eigensystem_shared_per_n_and_k():
    r1 = build_grid_ops(GridSpec(N=512, E_max=40.0), 1.0)
    r2 = build_grid_ops(GridSpec(N=512, E_max=53.3), 1.0)
    (mu1, v1), (mu2, v2) = r1.ctilde_eig, r2.ctilde_eig
    assert v1 is v2
    assert not v1.flags.writeable
    with pytest.raises(ValueError):
        v1[0, 0] = 0.0
    ratio = (r1.grid.spacing / r2.grid.spacing) ** 2
    assert np.allclose(mu2, mu1 * ratio, rtol=1e-14)
