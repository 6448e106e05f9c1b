"""Bumps, Fourier profiles, and positive-frequency projections."""

import functools

import numpy as np
import pytest
from fourier_oracle import fourier_positive_part
from scipy.integrate import simpson

from modloc.errors import (
    DegenerateInterval,
    NyquistViolation,
    ProjectionLoss,
    SupportEscapesGrid,
)
from modloc.gridop import GridSpec
from modloc.laguerre import BasisSpec
from modloc.localization import (
    BumpSpec,
    FourierProfile,
    _umesh,
    make_bump,
    moebius_on_wavefunction,
    positive_frequency,
    positive_part_samples,
)
from modloc.mobius import dilation_matrix, translation


@pytest.fixture(scope="module")
def bump():
    spec = BumpSpec(1.0, 2.0, samples=8192)
    x, psi = make_bump(spec)
    return x, psi


def test_bump_support_and_normalization(bump):
    x, psi = bump
    assert psi.max() == 1.0
    assert np.all(psi[x <= 1.0] == 0.0)
    assert np.all(psi[x >= 2.0] == 0.0)
    assert np.all(psi >= 0.0)


@pytest.mark.parametrize("family", ["mollifier", "sine-window",
                                    "polynomial-window"])
def test_bump_families(family):
    x, psi = make_bump(BumpSpec(0.5, 1.5, family=family))
    assert psi.max() == 1.0
    assert np.all(psi[np.abs(2 * x - 2.0) >= 1.0] == 0.0)


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        BumpSpec(1.0, 2.0, family="gaussian")
    with pytest.raises(DegenerateInterval):
        make_bump(BumpSpec(1.0, 1.001, samples=256))


def test_profile_matches_direct_fourier(bump):
    x, psi = bump
    prof = FourierProfile(x, psi)
    E = np.array([0.3, 1.0, 2.7, 9.9, 20.0])
    direct = fourier_positive_part(x, psi, E)
    assert np.max(np.abs(prof.positive_part(E) - direct)) < 1e-7 * np.max(
        np.abs(direct))


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_profile_matches_oracle_up_to_cutoff(a, b):
    # the fixtures' first bumps: the direct sum over the support against
    # the outer-product oracle over the whole grid, up to the profile's
    # own energy cutoff
    x, psi = make_bump(BumpSpec(a, b, samples=8192))
    prof = FourierProfile(x, psi)
    E = np.linspace(1e-3, prof.E_cut, 2001)
    direct = fourier_positive_part(x, psi, E)
    err = np.max(np.abs(prof.positive_part(E) - direct))
    assert err <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_norm_mesh_matches_refined_mesh(a, b):
    # |psi_hat|^2 drops the phase e^{i E x_lo}, so the norm mesh is sized to
    # the support width; the reference resolves the phase (scale x_hi)
    # with twice the nodes per panel
    x, psi = make_bump(BumpSpec(a, b, samples=8192))
    prof = FourierProfile(x, psi)
    u, w = _umesh(prof.E_cut, beta=1.0, M=1, b=prof.x_hi, nodes_per_panel=24)
    ref = w @ (np.abs(prof.positive_part(u * u)) ** 2 * 2.0 * u)
    assert abs(prof.norm_sq - ref) <= 1e-11 * ref


@pytest.fixture(scope="module")
def first_bumps():
    # the first (full-width) bump of three fixtures, with its fixture basis
    from modloc.verification import BUMP_SAMPLES, FIXTURE_M, fixture_beta

    out = {}
    for a, b in ((0.5, 0.75), (1.0, 2.0), (4.0, 8.0)):
        x, psi = make_bump(BumpSpec(a, b, samples=BUMP_SAMPLES))
        spec = BasisSpec(k=1.0, beta=fixture_beta(a, b), M=FIXTURE_M)
        out[(a, b)] = (x, psi, spec)
    return out


@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.0, 2.0), (4.0, 8.0)])
def test_projection_converged_in_panel_nodes(first_bumps, monkeypatch, a, b):
    import modloc.localization as loc

    x, psi, spec = first_bumps[(a, b)]
    prof = FourierProfile(x, psi)

    def coeffs(family):
        return positive_frequency(x, psi, spec, family=family,
                                  max_residual=1.0, profile=prof).data

    at12 = {fam: coeffs(fam) for fam in ("Z", "Ztilde")}
    monkeypatch.setattr(loc, "_umesh",
                        functools.partial(_umesh, nodes_per_panel=24))
    for fam, c12 in at12.items():
        c24 = coeffs(fam)
        assert np.linalg.norm(c12 - c24) <= 1e-12 * np.linalg.norm(c24)


def test_corner_projection_mesh_size(first_bumps, monkeypatch):
    # the corner Z projection evaluated the profile at 53,554 Simpson nodes;
    # 12-node Gauss-Legendre panels need 13,392
    x, psi, spec = first_bumps[(0.5, 0.75)]
    prof = FourierProfile(x, psi)
    assert prof.norm_sq > 0  # E_cut and the norm evaluate their own meshes
    sizes = []
    hat = FourierProfile.hat

    def recording(self, E):
        sizes.append(np.size(E))
        return hat(self, E)

    monkeypatch.setattr(FourierProfile, "hat", recording)
    positive_frequency(x, psi, spec, family="Z", profile=prof)
    assert len(sizes) == 1 and sizes[0] <= 14_000


def test_projection_stores_no_basis_matrix():
    # the corner fixture's first bump: its Z basis matrix alone would be
    # 39 MiB (M = 384 rows of a 13,392-node mesh)
    import tracemalloc

    from modloc.verification import BUMP_SAMPLES, FIXTURE_M, fixture_beta

    x, psi = make_bump(BumpSpec(0.5, 0.75, samples=BUMP_SAMPLES))
    spec = BasisSpec(k=1.0, beta=fixture_beta(0.5, 0.75), M=FIXTURE_M)
    tracemalloc.start()
    try:
        positive_frequency(x, psi, spec, family="Z")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_reality_split(bump):
    # psi = 2 Re psi_plus on the support
    x, psi = bump
    x_eval = np.linspace(0.8, 2.2, 60)
    plus = positive_part_samples(x, psi, x_eval)
    ref = np.interp(x_eval, x, psi)
    assert np.max(np.abs(2.0 * plus.real - ref)) < 1e-5


def test_scalar_product_normalization(bump):
    # int |psi_plus_tilde|^2 dE equals the symplectic form of the bump
    # against its positive-frequency part: sigma(psi, 2 Im psi_plus) / 2
    # reduces to the x-space identity 2 int (d psi / dx) Im... ; checked
    # here through Plancherel instead: int |psi_hat|^2 E/pi dE over E > 0
    # equals (1/2pi) int |psi_hat(E)|^2 2E dE = int psi' H psi ... use the
    # direct norm comparison between two independent quadratures.
    x, psi = bump
    prof = FourierProfile(x, psi)
    E = np.linspace(1e-4, 60.0, 200001)
    vals = prof.positive_part(E)
    norm_fft = np.trapezoid(np.abs(vals) ** 2, E)
    Ed = np.linspace(1e-4, 60.0, 3001)
    direct = fourier_positive_part(x, psi, Ed)
    norm_direct = np.trapezoid(np.abs(direct) ** 2, Ed)
    assert abs(norm_fft - norm_direct) < 1e-4 * norm_direct


def test_spectral_projection_residual_decreases(bump):
    x, psi = bump
    prof = FourierProfile(x, psi)
    res = []
    for M in (64, 128, 256):
        sv = positive_frequency(x, psi, BasisSpec(k=1.0, beta=1.0, M=M),
                                max_residual=1.0, profile=prof)
        res.append(sv.projection_residual)
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-4


def test_grid_projection_sqrt_behavior(bump):
    x, psi = bump
    sv = positive_frequency(x, psi, GridSpec(N=2048, E_max=40.0),
                            max_residual=1e-3)
    mags = np.abs(sv.data[:5])
    assert np.all(np.diff(mags) > 0)
    assert sv.representation == "e-grid"
    gs = sv.as_grid_state()
    assert abs(gs.norm_sq() - sv.norm_sq) < 1e-3 * sv.norm_sq


def test_backend_norms_agree(bump):
    x, psi = bump
    prof = FourierProfile(x, psi)
    sv = positive_frequency(x, psi, BasisSpec(k=1.0, beta=1.0, M=256),
                            profile=prof)
    svg = positive_frequency(x, psi, GridSpec(N=2048, E_max=40.0),
                             max_residual=1e-3, profile=prof)
    assert abs(sv.represented_norm_sq() - svg.represented_norm_sq()) < (
        2e-3 * sv.represented_norm_sq())


def test_projection_error_paths(bump):
    x, psi = bump
    with pytest.raises(ProjectionLoss):
        positive_frequency(x, psi, BasisSpec(k=1.0, beta=1.0, M=16),
                           max_residual=1e-8)
    with pytest.raises(NyquistViolation):
        positive_frequency(x, psi, GridSpec(N=1024, E_max=1e4))
    with pytest.raises(TypeError):
        positive_frequency(x, psi, object())
    with pytest.raises(ValueError):
        positive_frequency(x, psi, BasisSpec(k=1.0, M=64), family="bogus")
    with pytest.raises(ValueError):
        positive_frequency(x[:-1], psi, BasisSpec(k=1.0, M=64))


@pytest.mark.parametrize("target", [BasisSpec(k=1.0, M=64),
                                    GridSpec(N=1024, E_max=40.0)])
def test_bump_without_support_rejected(bump, target):
    x, _ = bump
    with pytest.raises(ValueError, match="bump has no support"):
        positive_frequency(x, np.zeros_like(x), target, max_residual=1.0)


def test_complex_bump_rejected(bump):
    x, psi = bump
    with pytest.raises(ValueError, match="bump must be real"):
        positive_frequency(x, psi * (1.0 + 0.5j), BasisSpec(k=1.0, M=64),
                           max_residual=1.0)


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


def test_nyquist_violation_for_narrow_bump():
    # very narrow bump at coarse sampling: energy content beyond Nyquist
    x, psi = make_bump(BumpSpec(1.0, 1.1, samples=512, extent_factor=8.0))
    with pytest.raises(NyquistViolation):
        positive_frequency(x, psi, BasisSpec(k=1.0, beta=1.0, M=512))


def test_moebius_translation_shifts_support(bump):
    x, psi = bump
    # psi(g x) with g = T(-0.5) shifts the bump right by 0.5
    out = moebius_on_wavefunction(translation(-0.5), x, psi)
    nz = x[np.abs(out) > 1e-9]
    assert nz.min() > 1.45 and nz.max() < 2.55


def test_moebius_dilation_rescales(bump):
    x, psi = bump
    g = dilation_matrix(1.0 / np.sqrt(2.0))  # x -> x/2
    out = moebius_on_wavefunction(g, x, psi)
    nz = x[np.abs(out) > 1e-9]
    assert nz.min() > 1.9 and nz.max() < 4.1


def test_moebius_support_escape(bump):
    x, psi = bump
    with pytest.raises(SupportEscapesGrid):
        moebius_on_wavefunction(translation(5.0), x, psi)
