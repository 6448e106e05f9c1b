"""Bumps, Fourier profiles, and positive-frequency projections."""

import functools

import numpy as np
import pytest
from scipy.integrate import simpson

from modloc.errors import ProjectionLoss
from modloc.gridop import GridSpec
from modloc.laguerre import BasisSpec
from modloc.localization import (
    FIXTURE_FAMILIES,
    BumpSpec,
    FourierProfile,
    _legendre,
    _umesh,
    _unit_transform,
    _UnitTransform,
    make_bump,
    positive_frequency,
    project_bumps,
)

BUMP = BumpSpec(1.0, 2.0)
# the oracle's s values, all below both fixture families' s_cut
ORACLE_S = (0.5, 7.5, 60.0, 250.0, 520.0)


@functools.lru_cache(maxsize=None)
def unit_transform_oracle(family: str, s: float) -> float:
    """W(s) = 2 int_0^1 w0(u) cos(s u) du by mpmath quadrature, split at
    every half period of the cosine; the tests that read it skip without
    mpmath (the test extra)."""
    mpmath = pytest.importorskip("mpmath")
    if family == "mollifier":
        def w0(u):
            return mpmath.exp(1 - 1 / (1 - u * u))
    else:
        def w0(u):
            return (1 - u * u) ** 4
    with mpmath.workdps(20):
        pts = mpmath.linspace(0, 1, max(1, int(s / mpmath.pi)) + 1)
        return float(2 * mpmath.quad(lambda u: w0(u) * mpmath.cos(s * u),
                                     pts))


def direct_positive_part(bump, E, n: int = 2049) -> np.ndarray:
    """i sqrt(E/pi) int psi(x) e^{iEx} dx by the trapezoid rule on n points
    of the support, from the closed-form bump.

    The phase is taken about the centre c, e^{iEx} = e^{iEc} e^{iE(x - c)},
    so its rounding grows with E h rather than E b.  The bump and its
    derivatives through the third vanish at both ends, so the rule's error
    is the aliased transform at 2 pi (n - 1)/(b - a) - E, below 1e-16 of
    the peak up to either fixture family's cutoff at n = 2049.
    """
    c, h = 0.5 * (bump.a + bump.b), 0.5 * (bump.b - bump.a)
    u = h * np.linspace(-1.0, 1.0, n)
    wpsi = (u[1] - u[0]) * make_bump(bump, c + u)
    E = np.asarray(E, dtype=float)
    out = np.concatenate([np.exp(1j * np.outer(e, u)) @ wpsi
                          for e in np.array_split(E, max(1, E.size // 128))])
    return 1j * np.sqrt(E / np.pi) * np.exp(1j * E * c) * out


def positive_part_samples(bump, x_eval) -> np.ndarray:
    """psi_plus(x) = -i int_0^oo e^{-iEx} psi_plus_tilde(E) / sqrt(4 pi E) dE.

    The mode function carries the same phase i as the profile convention,
    so the real bump still splits as psi = 2 Re psi_plus.  Evaluated on the
    Gauss-Legendre panels of the profile's energy range.
    """
    profile = FourierProfile(bump)
    u, w = _umesh(profile.E_cut, beta=1.0, M=1, b=profile.x_hi)
    vals = profile.positive_part(u * u)
    # dE/(sqrt(4 pi E)) = 2u du/(2 sqrt(pi) u) = du/sqrt(pi)
    phases = np.exp(-1j * np.outer(np.asarray(x_eval, dtype=float), u * u))
    return -1j * (phases @ (w * vals)) / np.sqrt(np.pi)


def test_bump_support_and_normalization():
    x = np.linspace(0.0, 3.0, 3001)
    psi = make_bump(BUMP, x)
    assert make_bump(BUMP, 1.5) == 1.0 and psi.max() == 1.0
    assert np.all(psi[x <= 1.0] == 0.0)
    assert np.all(psi[x >= 2.0] == 0.0)
    assert np.all(psi >= 0.0)


@pytest.mark.parametrize("family", ["mollifier", "sine-window",
                                    "polynomial-window"])
def test_bump_families(family):
    # every family peaks at exactly 1 in the centre and is even about it
    spec = BumpSpec(0.5, 1.5, family=family)
    x = np.linspace(0.0, 2.0, 2001)
    psi = make_bump(spec, x)
    assert make_bump(spec, 1.0) == 1.0 and psi.max() == 1.0
    assert np.all(psi[np.abs(2 * x - 2.0) >= 1.0] == 0.0)
    assert np.allclose(psi, make_bump(spec, 2.0 - x), rtol=0, atol=1e-15)


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        BumpSpec(1.0, 2.0, family="gaussian")


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_unit_transform_matches_oracle(family):
    W = _unit_transform(family)
    assert max(ORACLE_S) <= W.s_cut
    peak = unit_transform_oracle(family, 0.0)
    assert abs(W(0.0) - peak) <= 1e-12 * peak
    for s in ORACLE_S:
        assert abs(W(s) - unit_transform_oracle(family, s)) <= 1e-12 * peak


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_unit_transform_build_is_small(family):
    # the table is built on first use; its build holds under 1 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        table = _UnitTransform(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not table.coef.flags.writeable
    assert table(table.s_end) == 0.0 and table(table.s_end - 1.0) != 0.0


def test_sine_window_transform_outruns_the_table():
    # the sin^2 window's transform decays only like s^-3
    with pytest.raises(ValueError, match="past the table"):
        FourierProfile(BumpSpec(1.0, 2.0, family="sine-window"))


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_cutoff_is_scale_covariant(family):
    # E_cut h is one number per family: the sampled profile's cutoff read
    # 649 at [1, 2] and 760 at [16, 32] for the mollifier
    cuts = []
    for s in (0.25, 1.0, 16.0):
        prof = FourierProfile(BumpSpec(s, 2.0 * s, family=family))
        cuts.append(prof.E_cut * 0.5 * s)
    assert max(cuts) - min(cuts) <= 1e-12 * cuts[0]


def test_profile_matches_direct_fourier():
    prof = FourierProfile(BUMP)
    E = np.array([0.3, 1.0, 2.7, 9.9, 20.0])
    direct = direct_positive_part(BUMP, E)
    assert np.max(np.abs(prof.positive_part(E) - direct)) < 1e-7 * np.max(
        np.abs(direct))


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_profile_matches_oracle_up_to_cutoff(a, b):
    # the fixtures' first bumps against the oracle transform
    # i sqrt(E/pi) h e^{iEc} W(Eh), at energies E = s/h up to the profile's
    # own cutoff, alone and in a block with a narrower sub-interval bump
    w = b - a
    bumps = [BumpSpec(a, b), BumpSpec(a + 0.15 * w, b - 0.1 * w)]
    prof = FourierProfile(bumps[0])
    block = FourierProfile(bumps)
    assert block.E_cut[0] == prof.E_cut
    s = np.array(ORACLE_S)
    W = np.array([unit_transform_oracle("mollifier", v) for v in s])
    for col, bump in enumerate(bumps):
        h, c = 0.5 * (bump.b - bump.a), 0.5 * (bump.a + bump.b)
        E = s / h
        assert E.max() <= block.E_cut[col]
        oracle = 1j * np.sqrt(E / np.pi) * h * np.exp(1j * E * c) * W
        peak = np.max(np.abs(block.positive_part(
            np.linspace(1e-3, block.E_cut[col], 2001))[:, col]))
        vals = block.positive_part(E)
        assert vals.shape == (E.size, 2)
        assert np.max(np.abs(vals[:, col] - oracle)) <= 1e-12 * peak
        if col == 0:
            assert np.max(np.abs(prof.positive_part(E) - oracle)) <= (
                1e-12 * peak)


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_profile_matches_direct_transform_up_to_cutoff(family, a, b):
    # every panel of the table, seams included, against the trapezoid
    # transform of the closed-form bump on a dense mesh below E_cut
    bump = BumpSpec(a, b, family=family)
    prof = FourierProfile(bump)
    h = 0.5 * (b - a)
    seams = np.arange(2.0, prof.W.s_end, 2.0) / h
    E = np.concatenate([np.linspace(0.0, prof.E_cut, 4001)[:-1], seams,
                        seams * (1.0 - 1e-12)])
    vals = prof.positive_part(E)
    peak = np.max(np.abs(vals))
    assert np.max(np.abs(vals - direct_positive_part(bump, E))) <= (
        1e-12 * peak)


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_norm_mesh_matches_refined_mesh(a, b):
    # the family's norm constant against the energy integral of
    # |psi_plus_tilde|^2 on 24-node panels that resolve the phase (scale b)
    prof = FourierProfile(BumpSpec(a, b))
    u, w = _umesh(prof.E_cut, beta=1.0, M=1, b=prof.x_hi, nodes_per_panel=24)
    ref = w @ (np.abs(prof.positive_part(u * u)) ** 2 * 2.0 * u)
    assert abs(prof.norm_sq - ref) <= 1e-11 * ref


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_family_norm_matches_refined_quadrature(family):
    # (1/pi) int s W(s)^2 ds on 40-node panels of width 1/2
    W = _unit_transform(family)
    t, wt = _legendre(40)
    left = np.arange(0.0, W.s_end, 0.5)
    s = (left[:, None] + 0.25 * (t + 1.0)).ravel()
    ref = np.tile(0.25 * wt, left.size) @ (s * W(s) ** 2) / np.pi
    assert abs(W.norm_sq - ref) <= 1e-11 * ref


@pytest.fixture(scope="module")
def first_bumps():
    # the first (full-width) bump of three fixtures, with its fixture basis
    from modloc.verification import FIXTURE_M, fixture_beta

    return {(a, b): (BumpSpec(a, b),
                     BasisSpec(k=1.0, beta=fixture_beta(a, b), M=FIXTURE_M))
            for a, b in ((0.5, 0.75), (1.0, 2.0), (4.0, 8.0))}


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_projection_converged_in_panel_nodes(first_bumps, monkeypatch, a, b):
    import modloc.localization as loc

    bump, spec = first_bumps[(a, b)]

    def coeffs(family):
        return positive_frequency(bump, spec, family=family,
                                  max_residual=1.0).data

    at12 = {fam: coeffs(fam) for fam in ("Z", "Ztilde")}
    monkeypatch.setattr(loc, "_umesh",
                        functools.partial(_umesh, nodes_per_panel=24))
    for fam, c12 in at12.items():
        c24 = coeffs(fam)
        assert np.linalg.norm(c12 - c24) <= 1e-12 * np.linalg.norm(c24)


def test_corner_projection_mesh_size(first_bumps, monkeypatch):
    # the corner Z projection evaluated the profile at 53,554 Simpson nodes;
    # 12-node Gauss-Legendre panels need 13,392, and the cutoff and the
    # norm evaluate none
    bump, spec = first_bumps[(0.5, 0.75)]
    sizes = []
    positive_part = FourierProfile.positive_part

    def recording(self, E):
        sizes.append(np.size(E))
        return positive_part(self, E)

    monkeypatch.setattr(FourierProfile, "positive_part", recording)
    positive_frequency(bump, spec, family="Z")
    assert len(sizes) == 1 and sizes[0] <= 14_000


def test_projection_stores_no_basis_matrix(first_bumps):
    # the corner fixture's first bump: its Z basis matrix alone would be
    # 39 MiB (M = 384 rows of a 13,392-node mesh)
    import tracemalloc

    bump, spec = first_bumps[(0.5, 0.75)]
    tracemalloc.start()
    try:
        positive_frequency(bump, spec, family="Z")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_reality_split():
    # psi = 2 Re psi_plus on the support
    x_eval = np.linspace(0.8, 2.2, 60)
    plus = positive_part_samples(BUMP, x_eval)
    ref = make_bump(BUMP, x_eval)
    assert np.max(np.abs(2.0 * plus.real - ref)) < 1e-5


def test_scalar_product_normalization():
    # int |psi_plus_tilde|^2 dE by two independent quadratures: the
    # profile on a fine energy mesh and the direct x-space transform of
    # the closed-form bump on a coarser one
    prof = FourierProfile(BUMP)
    E = np.linspace(1e-4, 60.0, 200001)
    vals = prof.positive_part(E)
    norm_fft = np.trapezoid(np.abs(vals) ** 2, E)
    Ed = np.linspace(1e-4, 60.0, 3001)
    direct = direct_positive_part(BUMP, Ed)
    norm_direct = np.trapezoid(np.abs(direct) ** 2, Ed)
    assert abs(norm_fft - norm_direct) < 1e-4 * norm_direct


def test_spectral_projection_residual_decreases():
    res = []
    for M in (64, 128, 256):
        sv = positive_frequency(BUMP, BasisSpec(k=1.0, beta=1.0, M=M),
                                max_residual=1.0)
        res.append(sv.projection_residual)
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-4


def test_grid_projection_sqrt_behavior():
    sv = positive_frequency(BUMP, GridSpec(N=2048, E_max=40.0),
                            max_residual=1e-3)
    mags = np.abs(sv.data[:5])
    assert np.all(np.diff(mags) > 0)
    assert sv.representation == "e-grid"
    gs = sv.as_grid_state()
    assert abs(gs.norm_sq() - sv.norm_sq) < 1e-3 * sv.norm_sq


def test_backend_norms_agree():
    sv = positive_frequency(BUMP, BasisSpec(k=1.0, beta=1.0, M=256))
    svg = positive_frequency(BUMP, GridSpec(N=2048, E_max=40.0),
                             max_residual=1e-3)
    # the norms the representations hold: coefficient sum, grid h-sum
    spectral = np.vdot(sv.data, sv.data).real
    grid = svg.as_grid_state().norm_sq()
    assert abs(spectral - grid) < 2e-3 * spectral


def test_projection_error_paths():
    with pytest.raises(ProjectionLoss):
        positive_frequency(BUMP, BasisSpec(k=1.0, beta=1.0, M=16),
                           max_residual=1e-8)
    with pytest.raises(TypeError):
        positive_frequency(BUMP, object())
    with pytest.raises(ValueError):
        positive_frequency(BUMP, BasisSpec(k=1.0, M=64), family="bogus")
    with pytest.raises(ValueError, match="one family"):
        FourierProfile([BUMP, BumpSpec(1.0, 2.0, family="polynomial-window")])


@pytest.mark.parametrize("target", [BasisSpec(k=1.0, M=64),
                                    GridSpec(N=1024, E_max=40.0)])
def test_bump_without_support_rejected(target):
    # an empty interval or an empty block holds no bump to project
    with pytest.raises(ValueError, match="0 < a < b"):
        positive_frequency(BumpSpec(1.0, 1.0), target, max_residual=1.0)
    with pytest.raises(ValueError, match="one family"):
        project_bumps(FourierProfile([]), target, max_residual=1.0)


def test_panel_rule_exact_for_degree_23():
    # one panel of 12 Legendre nodes integrates u^d exactly for d <= 23
    u, w = _umesh(2.0, beta=1.0, M=1, b=0.1)
    assert u.size == 12
    U = np.sqrt(2.0)
    for d in range(24):
        exact = U ** (d + 1) / (d + 1)
        assert abs(w @ u ** d - exact) <= 1e-14 * exact


@pytest.mark.parametrize("c,cU2", [(1.0, 10.0), (0.75, 100.0), (2.0, 1e3),
                                   (0.75, 4e3)])
def test_panel_rule_resolves_bump_phase(c, cU2):
    # int_0^U 2u cos(c u^2) du = sin(c U^2)/c, with the bump phase c u^2 up
    # to the corner fixture's x_hi E_cut ~ 3.8e3.  Each node's phase carries
    # a rounding error eps c u^2, so the error is measured against the
    # envelope integral int_0^U 2u du = U^2; 8-node panels miss it on three
    # of these four
    U2 = cU2 / c
    u, w = _umesh(U2, beta=1.0, M=1, b=c)
    got = w @ (2.0 * u * np.cos(c * u * u))
    assert abs(got - np.sin(cU2) / c) <= 1e-13 * U2


@pytest.mark.parametrize("n", [100001, 100000])
def test_simpson_weights_match_scipy(n):
    # the panel weights give the value of the composite Simpson mesh they
    # replace, where that mesh is converged: scipy's simpson on n points,
    # odd n the plain rule and even n with its Cartwright correction
    U = 3.7
    u, w = _umesh(U * U, beta=1.0, M=1, b=1.0)
    s = np.linspace(0.0, U, n)
    ref = simpson(np.cos(3.0 * s) + s ** 2 + 2.0, x=s)
    got = w @ (np.cos(3.0 * u) + u ** 2 + 2.0)
    assert abs(got - ref) <= 1e-13 * abs(ref)
