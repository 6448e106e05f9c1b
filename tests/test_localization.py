"""Bumps, Fourier profiles, and positive-frequency projections."""

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
    _simpson_weights,
    make_bump,
    moebius_on_wavefunction,
    positive_frequency,
    positive_part_samples,
    symplectic,
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


def test_symplectic_antisymmetry(bump):
    x, psi = bump
    _, psi2 = make_bump(BumpSpec(1.2, 1.9, samples=8192))
    s12 = symplectic(psi, psi2, x)
    s21 = symplectic(psi2, psi, x)
    assert abs(s12 + s21) < 1e-12 * max(1.0, abs(s12))
    assert abs(symplectic(psi, psi, x)) < 1e-14


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


@pytest.mark.parametrize("n", [*range(3, 13), 100001, 100000])
def test_simpson_weights_match_scipy(n):
    u = np.linspace(0.013, 3.7, n)
    y = np.cos(3.0 * u) + u ** 2 + 2.0
    ref = simpson(y, x=u)
    assert abs(_simpson_weights(u) @ y - ref) <= 1e-13 * abs(ref)


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
