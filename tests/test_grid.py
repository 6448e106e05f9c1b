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
            FourierProfile([bump]))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(N=4)
    with pytest.raises(ValueError):
        GridSpec(N=64, E_max=-1.0)
    # E_max is a finite real number, N an integer, neither a bool
    for N, E_max in ((4096, float("inf")), (4096, float("nan")),
                     (100.5, 40.0), (64, True), ("64", 40.0)):
        with pytest.raises(ValueError):
            GridSpec(N, E_max)
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
    res, _ = rep4.commutator_residuals(triple="plain")
    assert max(res.values()) < 1e-3
    rept = build_grid_ops(GridSpec(N=4096, E_max=10.0), 1.0)
    res_t, _ = rept.commutator_residuals(triple="tilde")
    assert max(res_t.values()) < 1e-3
    with pytest.raises(ValueError):
        rep4.commutator_residuals(triple="bogus")


def test_commutator_residuals_second_order():
    rs = []
    for N in (1024, 2048, 4096):
        r = build_grid_ops(GridSpec(N=N, E_max=40.0), 1.0)
        rs.append(r.commutator_residuals(triple="plain")[0]["HD"])
    orders = np.log2(np.array(rs[:-1]) / np.array(rs[1:]))
    assert np.all(orders > 1.5)


# the grid of each triple's default check
TRIPLE_EMAX = {"plain": 40.0, "tilde": 10.0}


def _oracle_modes(band, m):
    """The lowest m eigenpairs of a real band from LAPACK's subset solve."""
    return eigh_tridiagonal(band.diag, band.upper, select="i",
                            select_range=(0, m - 1))


def _recorded_modes(monkeypatch, rep, triple):
    """Run the commutator check and return (band, theta, V) of the smooth-
    mode kernel call inside it."""
    calls = []
    kernel = gridop._smooth_modes

    def recorded(band, m):
        out = kernel(band, m)
        calls.append((band, *out))
        return out

    monkeypatch.setattr(gridop, "_smooth_modes", recorded)
    _, theta = rep.commutator_residuals(triple)
    (band, theta_k, V), = calls
    assert theta is theta_k
    return band, theta, V


@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("triple", ["plain", "tilde"])
def test_smooth_modes_span_the_lapack_oracle_modes(monkeypatch, triple, k,
                                                   N):
    rep = build_grid_ops(GridSpec(N=N, E_max=TRIPLE_EMAX[triple]), k)
    band, theta, X = _recorded_modes(monkeypatch, rep, triple)
    m = gridop.SMOOTH_MODES[triple]
    w, V = _oracle_modes(band, m)
    assert X.shape == (N, m)
    assert np.linalg.norm(X.T @ X - np.eye(m), 2) <= 1e-10
    assert np.linalg.norm(X - V @ (V.T @ X), 2) <= 1e-10
    # the Rayleigh quotients are the eigenvalues, to the bands' round-off
    scale = np.abs(band.diag).max() + 2.0 * np.abs(band.upper).max()
    assert np.max(np.abs(theta - w)) <= 1e-15 * scale


@pytest.mark.parametrize("triple", ["plain", "tilde"])
def test_commutator_residuals_match_oracle_modes(monkeypatch, triple):
    rep = build_grid_ops(GridSpec(N=4096, E_max=TRIPLE_EMAX[triple]), 1.0)
    res, _ = rep.commutator_residuals(triple)
    monkeypatch.setattr(gridop, "_smooth_modes", _oracle_modes)
    ref, _ = rep.commutator_residuals(triple)
    worst, worst_ref = max(res.values()), max(ref.values())
    assert abs(worst - worst_ref) <= 1e-9 * worst_ref


def test_grid_commutator_checks_solve_no_eigenvectors(monkeypatch):
    # the smooth modes come from bisection and inverse iteration, not from
    # an eigenvector solve
    import scipy.linalg

    from modloc.verification import check_commutators

    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return solve(*args, **kwargs)

    for module in (spectral, gridop, scipy.linalg):
        if hasattr(module, "eigh_tridiagonal"):
            monkeypatch.setattr(module, "eigh_tridiagonal", counted)
    for triple in ("plain", "tilde"):
        rep = build_grid_ops(GridSpec(N=1024, E_max=TRIPLE_EMAX[triple]), 1.0)
        assert np.isfinite(check_commutators(rep, triple=triple).residual)
    assert not [c for c in calls if not c]


def test_smooth_modes_need_more_nodes_than_modes():
    rep = build_grid_ops(GridSpec(N=32, E_max=40.0), 1.0)
    with pytest.raises(ValueError, match="48 smooth modes.*N = 32"):
        rep.commutator_residuals("plain")
    band = Tridiagonal(np.full(16, 2.0), np.full(15, -1.0))
    with pytest.raises(ValueError, match="16 smooth modes.*N = 16"):
        gridop._smooth_modes(band, 16)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_band_refused_before_bisection(bad):
    # LAPACK's bisection may bisect a non-finite band silently (a NaN
    # diagonal entry can give a finite eigenvalue with info 0), so every
    # eigenvalue read of the band refuses it first
    d = np.full(8, 2.0)
    d[3] = bad
    band = Tridiagonal(d, np.full(7, -1.0))
    reads = (lambda: band.eigval(0), lambda: band.eigvals(0, 2),
             lambda: gridop._smooth_modes(band, 3),
             lambda: spectral.TridiagonalLog(band).spectral_range)
    for read in reads:
        with pytest.raises(ValueError, match="finite"):
            read()


def test_smooth_modes_survive_an_exact_eigenvalue_shift():
    # a zero coupling splits off the 1 x 1 block [0]: bisection returns
    # its eigenvalue 0 exactly, the shifted band has an exactly zero pivot,
    # and the shift moves off it
    d = np.full(20, 3.0)
    d[0] = 0.0
    e = np.full(19, -1.0)
    e[0] = 0.0
    theta, V = gridop._smooth_modes(Tridiagonal(d, e), 3)
    w, ref = _oracle_modes(Tridiagonal(d, e), 3)
    assert abs(theta[0]) < 1e-14 and abs(abs(V[0, 0]) - 1.0) < 1e-14
    assert np.allclose(theta, w, rtol=0, atol=1e-13)
    assert np.linalg.norm(V - ref @ (ref.T @ V), 2) < 1e-12


def test_smooth_modes_bisect_a_coarse_bracket_again(monkeypatch):
    # eigenvalues 1e-3 apart under |R| = 1e4: the first pass, to sqrt(eps)
    # |R| = 1.5e-4, is too coarse for that gap, so a second pass bisects at
    # GAP_FRACTION of it
    band = Tridiagonal([0.0, 1e-3, 2e-3, 3e-3, 1e4], np.full(4, 1e-5))
    tols = []
    bisect = Tridiagonal.eigvals

    def recorded(self, first, last, tol=0.0):
        tols.append(tol)
        return bisect(self, first, last, tol)

    monkeypatch.setattr(Tridiagonal, "eigvals", recorded)
    theta, V = gridop._smooth_modes(band, 3)
    assert len(tols) == 2 and tols[1] < gridop.GAP_FRACTION * 1e-3
    w, ref = _oracle_modes(band, 3)
    # the oracle's eigenvalues are exact only to the round-off of |R|
    assert np.max(np.abs(theta - w)) <= 1e-15 * 1e4
    assert np.linalg.norm(V - ref @ (ref.T @ V), 2) < 1e-10


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
    op = rep.D.eigensystem()
    evals, vecs = op.evals, op.gauge[:, None] * op.vecs
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
    op = rep.D.eigensystem()
    evals, vecs = op.evals, op.gauge[:, None] * op.vecs
    amps = vecs.conj().T @ psi
    E = rep.grid.nodes
    sel = (E > 0.5) & (E < 20.0)
    for t in (0.2, 0.3):
        flowed = vecs @ (np.exp(-1j * t * evals) * amps)
        exact = np.exp(-t / 2.0) * prof.positive_part(np.exp(-t) * E)[:, 0]
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
        v = np.stack([prof.positive_part(rep.grid.nodes)[:, 0],
                      rng.standard_normal(N) + 1j * rng.standard_normal(N)],
                     axis=1)
        # real GEMMs: the complex product would cast vecs to complex
        weights = (vecs.T @ v.real) ** 2 + (vecs.T @ v.imag) ** 2
        ref = h * ((0.5 * log_lam - np.log(h)) @ weights)
        got = [rep.expect_T(GridState(col, rep.grid)) for col in v.T]
        assert np.all(np.abs(np.subtract(got, ref)) <= 1e-12 * np.abs(ref))


def test_unit_band_sine_ends_match_bisection():
    # at k = 1 the grid T reads the closed-form spectrum of 2K =
    # tridiag(-1, 2, -1), its ends too; they agree with bisection, which is
    # accurate only to eps |2K| (5e-10 relative at lambda_min), and with a
    # 40-digit reference to 1e-14 relative; the form 2 - 2 cos(pi / (N +
    # 1)) is off by 2.7e-12 there
    mpmath = pytest.importorskip("mpmath")
    N = 4096
    T = build_grid_ops(GridSpec(N=N), 1.0).T
    lam = T.sine_evals[[0, -1]]
    assert np.array_equal(T.extremes, lam)
    assert abs(lam[1] - T.A.extremes[1]) <= 1e-14 * lam[1]
    assert abs(lam[0] - T.A.extremes[0]) <= 1e-14 * lam[1]
    with mpmath.workdps(40):
        ref = [float(4 * mpmath.sin(m * mpmath.pi / (2 * (N + 1))) ** 2)
               for m in (1, N)]
    assert np.all(np.abs(lam - ref) <= 1e-14 * np.abs(ref))
    assert abs(2.0 - 2.0 * np.cos(np.pi / (N + 1)) - ref[0]) > 1e-12 * ref[0]


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
    # eight grids of one (N, k) share the unit bands, so two bisections,
    # one per end, serve all of them; each spectral range is the one its
    # own solve of the same bands gives
    gridop._unit_band.cache_clear()
    calls = []
    bisect = spectral.dstebz

    def counted(d, e, select, vl, vu, il, iu, *args):
        calls.append((il, iu))
        return bisect(d, e, select, vl, vu, il, iu, *args)

    monkeypatch.setattr(spectral, "dstebz", counted)
    reps = [build_grid_ops(GridSpec(N=1000, E_max=e), 1.25)
            for e in np.linspace(20.0, 90.0, 8)]
    ranges = [r.T.spectral_range for r in reps]
    assert calls == [(1, 1), (1000, 1000)]
    j = np.arange(1, 1001, dtype=float)
    for r, got in zip(reps, ranges):
        own = Tridiagonal(2.0 + (1.25 ** 2 - 1.25) / (j * j),
                          np.full(999, -1.0))
        lo, hi = 0.5 * np.log([own.eigval(0), own.eigval(-1)])
        shift = -np.log(r.grid.spacing)
        assert got == (float(lo + shift), float(hi + shift))
