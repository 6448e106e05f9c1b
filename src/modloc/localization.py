"""Local wavefunctions on the half line and their positive-frequency parts.

A bump is a smooth real function supported in [a, b] with 0 < a < b < oo,
sampled on a uniform x grid.  Its positive-frequency profile is

    psi_plus_tilde(E) = i sqrt(E/pi) int psi(x) e^{i E x} dx,

and the one-particle scalar product is int |psi_plus_tilde|^2 dE (the
symplectic-form expression evaluated through Plancherel; the magnitude of
the inversion constant is fixed by requiring this identity, and the global
phase i by the modular invariance exp(-pi D) psi = J psi of real bumps).

Energy integrals run on 12-node Gauss-Legendre panels in u = sqrt(E) that
cover all of [0, u_max] (_umesh); in u both the basis oscillation (phase ~
2 sqrt(n x)) and the bump oscillation (phase ~ b E) have uniformly resolved
wavelength, and each panel spans one wavelength.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    DegenerateInterval,
    NyquistViolation,
    ProjectionLoss,
    SupportEscapesGrid,
)
from .gridop import GridSpec, GridState
from .laguerre import BasisSpec, basis_matrix
from .mobius import INFINITY, MoebiusMap, act_point

__all__ = [
    "BumpSpec",
    "FourierProfile",
    "StateVector",
    "make_bump",
    "positive_frequency",
    "positive_part_samples",
    "moebius_on_wavefunction",
]

PROJECTION_GATE = 1e-4
BUMP_FAMILIES = ("mollifier", "sine-window", "polynomial-window")
# the families whose profiles the fixtures' x sampling resolves: the sin^2
# window's second derivative jumps, so its transform decays only like E^-3
FIXTURE_FAMILIES = ("mollifier", "polynomial-window")


@dataclass(frozen=True)
class BumpSpec:
    """Real bump supported in [a, b] strictly inside (0, oo)."""

    a: float
    b: float
    family: str = "mollifier"
    samples: int = 4096
    extent_factor: float = 4.0

    def __post_init__(self):
        if not 0 < self.a < self.b:
            raise ValueError(f"need 0 < a < b, got [{self.a}, {self.b}]")
        if self.family not in BUMP_FAMILIES:
            raise ValueError(f"unknown bump family {self.family!r}")

    @property
    def extent(self) -> float:
        return self.extent_factor * self.b

    def xgrid(self) -> np.ndarray:
        return np.linspace(0.0, self.extent, self.samples)


def make_bump(spec: BumpSpec):
    """Sampled bump; max normalized to 1.  Returns (x, psi)."""
    x = spec.xgrid()
    dx = x[1] - x[0]
    if spec.b - spec.a < 4 * dx:
        raise DegenerateInterval(
            f"interval width {spec.b - spec.a} below 4 grid spacings {4 * dx}"
        )
    u = (2.0 * x - spec.a - spec.b) / (spec.b - spec.a)
    psi = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    if spec.family == "mollifier":
        psi[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    elif spec.family == "sine-window":
        psi[inside] = np.sin(0.5 * np.pi * (1.0 - np.abs(u[inside]))) ** 2
    else:  # polynomial-window
        psi[inside] = (1.0 - u[inside] ** 2) ** 4
    peak = psi.max()
    if peak > 0:
        psi /= peak
    return x, psi


class FourierProfile:
    """Positive-frequency profile of a sampled bump, evaluable anywhere.

    psi_hat(E) = dx sum_j psi_j e^{i E x_j} runs over the bump's nonzero
    samples only, by Horner's rule in z = e^{i E dx}, with the phase
    e^{i E x_lo} of the first nonzero sample applied once at the end.  The
    bump must vanish at both ends of its x grid (it does by construction,
    living strictly inside [0, extent]), so the sum is the trapezoid rule.
    The energy cutoff E_cut and the continuum norm norm_sq are computed on
    first use and kept, so every backend projection of one bump shares them.
    """

    def __init__(self, x, psi):
        x = np.asarray(x, dtype=float)
        psi = np.asarray(psi, dtype=float)
        nz = np.flatnonzero(psi)
        if nz.size == 0:
            raise ValueError("bump has no support")
        self.dx = float(x[1] - x[0])
        self.nyquist = np.pi / self.dx
        self.x_lo = float(x[nz[0]])
        self.x_hi = float(x[nz[-1]])
        self._samples = psi[nz[0]:nz[-1] + 1].copy()

    def hat(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        z = np.exp(1j * self.dx * E)
        acc = np.full(E.shape, self._samples[-1], dtype=complex)
        for p in self._samples[-2::-1].tolist():
            acc *= z
            acc += p
        acc *= self.dx * np.exp(1j * self.x_lo * E)
        return acc

    def positive_part(self, E) -> np.ndarray:
        """psi_plus_tilde(E) = i sqrt(E/pi) psi_hat(E).

        The factor i pins the inversion phase so real bumps satisfy the
        modular invariance exp(-pi D) psi = J psi (J = conjugation).
        """
        E = np.asarray(E, dtype=float)
        return 1j * np.sqrt(np.abs(E) / np.pi) * self.hat(E)

    @cached_property
    def E_cut(self) -> float:
        """Energy beyond which the profile stays below 1e-10 of its peak on a
        400-point probe, plus a 20 percent margin, capped at Nyquist."""
        probe = np.linspace(1.0, self.nyquist, 400)
        mags = np.abs(self.positive_part(probe))
        last = np.flatnonzero(mags >= 1e-10 * mags.max())[-1]
        if last == probe.size - 1:
            return self.nyquist
        return min(1.2 * probe[last + 1], self.nyquist)

    @cached_property
    def norm_sq(self) -> float:
        """Full |psi_plus_tilde|^2 integral on state-resolution panels.

        The modulus drops the phase e^{i E x_lo}, so it oscillates on the
        scale of the support width x_hi - x_lo rather than of x_hi.
        """
        u, w = _umesh(self.E_cut, beta=1.0, M=1, b=self.x_hi - self.x_lo)
        vals = self.positive_part(u * u)
        return float(w @ (np.abs(vals) ** 2 * 2.0 * u))


def _umesh(E_cut: float, beta: float, M: int, b: float,
           nodes_per_panel: int = 12, family: str = "Z"):
    """Gauss-Legendre panel nodes u and weights w on [0, sqrt(E_cut)]; an
    energy integral int g dE is w @ (g(u^2) 2u).

    In u = sqrt(E) the plain basis phase 2 sqrt(2 beta M) u and the bump
    phase b u^2 both have resolvable wavelength; the squared-argument
    family oscillates uniformly in E instead, which in u means a wavelength
    shrinking like 1/u, resolved at the far end of the mesh.  Each panel
    spans the shorter wavelength with nodes_per_panel nodes.
    """
    from numpy.polynomial.legendre import leggauss

    u_max = np.sqrt(E_cut)
    lam_state = np.pi / max(b * u_max, 1e-3)
    if family == "Ztilde":
        lam_basis = np.pi / (2.0 * u_max * np.sqrt(2.0 * beta * max(M, 1)))
    else:
        lam_basis = np.pi / np.sqrt(2.0 * beta * max(M, 1))
    n = int(np.ceil(u_max / min(lam_basis, lam_state)))
    h = u_max / n
    t, wt = leggauss(nodes_per_panel)
    u = (np.arange(n)[:, None] + 0.5 * (t + 1.0)) * h
    return u.ravel(), np.tile(0.5 * h * wt, n)


def _basis_energy_cap(spec: BasisSpec, family: str) -> float:
    """Energy beyond which every truncated basis function is negligible.

    The Laguerre factor dies past its turning point arg ~ 4M; a 5 percent
    margin keeps the Gaussian tail of the highest basis function inside.
    """
    arg_max = 4.0 * spec.M + 4.0 * spec.k + 6.0
    if family == "Ztilde":
        return float(1.05 * np.sqrt(arg_max / (2.0 * spec.beta)))
    return float(1.05 * arg_max / (2.0 * spec.beta))


@dataclass
class StateVector:
    """One-particle state in a concrete backend representation.

    representation is "z-spectral" (coefficients in the truncated basis) or
    "e-grid" (samples at the grid nodes).  norm_sq is the full continuum
    norm of the profile; projection_residual records the fraction of that
    mass lost entering the truncated representation.
    """

    representation: str
    data: np.ndarray
    basis: object
    norm_sq: float
    projection_residual: float
    family: str = "Z"
    provenance: dict = field(default_factory=dict)

    def represented_norm_sq(self) -> float:
        if self.representation == "z-spectral":
            return float(np.vdot(self.data, self.data).real)
        return GridState(self.data, self.basis).norm_sq()

    def as_grid_state(self) -> GridState:
        if self.representation != "e-grid":
            raise ValueError("not a grid state")
        return GridState(self.data, self.basis)


def positive_frequency(x, psi, target, family: str = "Z",
                       max_residual: float = PROJECTION_GATE,
                       profile: FourierProfile | None = None,
                       provenance: dict | None = None) -> StateVector:
    """Positive-frequency part of a real sampled bump, in a chosen backend.

    target is a BasisSpec (spectral coefficients by panel quadrature in
    sqrt(E); family "Z" or "Ztilde" picks the plain or squared-argument
    family) or a GridSpec (samples at the grid nodes).  A precomputed
    FourierProfile can be shared across backends for the same bump.  Raises
    ValueError for a bump with no nonzero sample, NyquistViolation when the
    x sampling cannot carry the needed energies and ProjectionLoss when more
    than max_residual of the continuum mass misses the representation.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi) and not np.allclose(psi.imag, 0.0):
        raise ValueError("bump must be real")
    psi = np.asarray(psi.real, dtype=float)
    x = np.asarray(x, dtype=float)
    if psi.size != x.size:
        raise ValueError("samples and grid disagree")
    if profile is None:
        profile = FourierProfile(x, psi)
    nyquist = profile.nyquist

    if isinstance(target, BasisSpec):
        if family not in ("Z", "Ztilde"):
            raise ValueError(f"unknown family {family!r}")
        if profile.E_cut >= 0.999 * nyquist:
            raise NyquistViolation(
                f"profile still carries mass at the x-grid Nyquist limit {nyquist:.1f}"
            )
        # the basis sees nothing past its turning point, so the coefficient
        # integral stops at the earlier of basis cap and profile cutoff
        E_int = min(profile.E_cut, _basis_energy_cap(target, family))
        u, w = _umesh(E_int, target.beta, target.M, b=profile.x_hi,
                      family=family)
        E = u * u
        vals = profile.positive_part(E)
        wts = w * 2.0 * u  # dE = 2u du
        f = wts * vals
        # re/im projected inside the recurrence: no basis matrix is stored
        re_im = basis_matrix(target, E, which=family,
                             weights=np.stack([f.real, f.imag], axis=1))
        coeffs = re_im[:, 0] + 1j * re_im[:, 1]
        if E_int < profile.E_cut:
            norm_sq = profile.norm_sq
        else:
            norm_sq = float(wts @ np.abs(vals) ** 2)
        rep_norm = float(np.vdot(coeffs, coeffs).real)
        residual = abs(norm_sq - rep_norm) / norm_sq
        sv = StateVector("z-spectral", coeffs, target, norm_sq,
                         residual, family, provenance or {})
    elif isinstance(target, GridSpec):
        if target.E_max >= nyquist:
            raise NyquistViolation(
                f"grid E_max {target.E_max} exceeds the x-grid Nyquist limit "
                f"{nyquist:.1f}"
            )
        norm_sq = profile.norm_sq
        samples = profile.positive_part(target.nodes)
        rep_norm = GridState(samples, target).norm_sq()
        residual = abs(norm_sq - rep_norm) / norm_sq
        sv = StateVector("e-grid", samples, target, norm_sq, residual, "grid",
                         provenance or {})
    else:
        raise TypeError(f"unsupported projection target {type(target)!r}")

    if sv.projection_residual > max_residual:
        raise ProjectionLoss(
            f"projection residual {sv.projection_residual:.2e} exceeds "
            f"{max_residual:.0e}"
        )
    return sv


def positive_part_samples(x, psi, x_eval) -> np.ndarray:
    """psi_plus(x) = -i int_0^oo e^{-iEx} psi_plus_tilde(E) / sqrt(4 pi E) dE.

    The mode function carries the same phase i as the profile convention,
    so the real bump still splits as psi = 2 Re psi_plus.

    Evaluated on the Gauss-Legendre panels; used for x-space cross-checks
    of the scalar-product convention.
    """
    x = np.asarray(x, dtype=float)
    profile = FourierProfile(x, psi)
    u, w = _umesh(profile.E_cut, beta=1.0, M=1, b=profile.x_hi)
    vals = profile.positive_part(u * u)
    # dE/(sqrt(4 pi E)) = 2u du/(2 sqrt(pi) u) = du/sqrt(pi)
    x_eval = np.asarray(x_eval, dtype=float)
    phases = np.exp(-1j * np.outer(x_eval, u * u))
    return -1j * (phases @ (w * vals)) / np.sqrt(np.pi)


def moebius_on_wavefunction(g: MoebiusMap, x, psi) -> np.ndarray:
    """(U_g psi)(x) = psi(g x) - psi(g oo), resampled on the same grid.

    The image support g^{-1} [supp psi] must stay inside the grid and away
    from its edges.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    nz = np.nonzero(psi)[0]
    if nz.size:
        lo, hi = x[nz[0]], x[nz[-1]]
        ginv = g.inverse()
        for endpoint in (lo, hi):
            img = act_point(ginv, endpoint)
            if img is INFINITY or not (x[0] <= img <= x[-1] - 2 * (x[1] - x[0])):
                raise SupportEscapesGrid(
                    f"image of support endpoint {endpoint} lands at {img!r}"
                )
    spline = CubicSpline(x, psi, extrapolate=False)
    gx = np.empty_like(x)
    for i, xi in enumerate(x):
        p = act_point(g, xi)
        gx[i] = np.nan if p is INFINITY else p
    vals = np.nan_to_num(spline(gx))
    at_inf = act_point(g, INFINITY)
    const = 0.0
    if at_inf is not INFINITY:
        v = spline(float(at_inf))
        const = 0.0 if np.isnan(v) else float(v)
    return vals - const
