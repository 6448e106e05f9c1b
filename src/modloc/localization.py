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
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateInterval, NyquistViolation, ProjectionLoss
from .gridop import GridSpec, GridState
from .laguerre import BasisSpec, basis_matrix

__all__ = [
    "BumpSpec",
    "FourierProfile",
    "StateVector",
    "make_bump",
    "positive_frequency",
    "project_bumps",
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


# samples per block of the positive-frequency sum, and energies per chunk of
# its power table: a chunk's table of z^0 .. z^63 is 512 KiB and stays in
# cache for the GEMM that reads it
_BLOCK = 64
_CHUNK = 512


class FourierProfile:
    """Positive-frequency profiles of real bumps on one uniform x grid.

    psi is one bump, shape (n,), or a block of bumps as columns, (n, r);
    every value below is per bump, on a trailing axis for a block.
    psi_hat(E) = dx sum_j psi_j e^{i E x_j} runs from the first to the last
    sample where any bump is nonzero, with the phase e^{i E x_lo} applied
    at the end.  With z = e^{i E dx} the sum is blocked, sum_m (z^B)^m
    sum_t psi_{mB+t} z^t with B = 64: the powers come by doubling, z^t ..
    z^(2t-1) as z^0 .. z^(t-1) times z^t, so each takes at most six
    roundings, one real GEMM of the (blocks * bumps x B) sample matrix
    against them gives every inner sum, and Horner's rule in z^B, in place,
    finishes.  The bumps vanish at both ends of the x grid, so the sum is
    the trapezoid rule.  E_cut and norm_sq are computed on first use and
    kept, so every backend projection shares them.
    """

    def __init__(self, x, psi):
        x = np.asarray(x, dtype=float)
        psi = np.asarray(psi)
        if np.iscomplexobj(psi) and not np.allclose(psi.imag, 0.0):
            raise ValueError("bump must be real")
        if psi.shape[0] != x.size:
            raise ValueError("samples and grid disagree")
        self._single = psi.ndim == 1
        psi = psi.real.astype(float).reshape(x.size, -1)
        self._bumps = psi.shape[1]
        live = psi != 0.0
        if self._bumps == 0 or not live.any(axis=0).all():
            raise ValueError("bump has no support")
        rows = np.flatnonzero(live.any(axis=1))
        self.dx = float(x[1] - x[0])
        self.nyquist = np.pi / self.dx
        self.x_lo = float(x[rows[0]])
        self.x_hi = float(x[rows[-1]])
        s = psi[rows[0]:rows[-1] + 1]
        s = np.pad(s, ((0, -len(s) % _BLOCK), (0, 0)))
        # row m * r + c holds block m of bump c
        self._blocks = (s.reshape(-1, _BLOCK, self._bumps).transpose(0, 2, 1)
                        .reshape(-1, _BLOCK))

    def _per_bump(self, v):
        """v without its bump axis, a scalar for a 0-d result, for one bump."""
        return v[..., 0][()] if self._single else v

    def hat(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        flat = E.ravel()
        out = np.empty((self._bumps, flat.size), dtype=complex)
        for i in range(0, flat.size, _CHUNK):
            e = flat[i:i + _CHUNK]
            P = np.empty((_BLOCK, e.size), dtype=complex)
            P[0] = 1.0
            P[1] = np.exp(1j * self.dx * e)
            # z^t .. z^(2t-1) as z^0 .. z^(t-1) times z^t = (z^(t/2))^2
            t = 2
            while t < _BLOCK:
                np.multiply(P[:t], P[t // 2] * P[t // 2], out=P[t:2 * t])
                t *= 2
            # rows of P viewed as float interleave re and im, so the real
            # GEMM's rows view back as complex
            S = (self._blocks @ P.view(float)).view(complex)
            S = S.reshape(-1, self._bumps, e.size)
            zB = P[_BLOCK // 2] * P[_BLOCK // 2]
            acc = out[:, i:i + e.size]
            acc[...] = S[-1]
            for m in range(len(S) - 2, -1, -1):
                acc *= zB
                acc += S[m]
        out *= self.dx * np.exp(1j * self.x_lo * flat)
        return self._per_bump(out.T.reshape(E.shape + (self._bumps,)))

    def positive_part(self, E) -> np.ndarray:
        """psi_plus_tilde(E) = i sqrt(E/pi) psi_hat(E).

        The factor i pins the inversion phase so real bumps satisfy the
        modular invariance exp(-pi D) psi = J psi (J = conjugation).
        """
        E = np.asarray(E, dtype=float)
        fac = 1j * np.sqrt(np.abs(E) / np.pi)
        return (fac if self._single else fac[..., None]) * self.hat(E)

    @cached_property
    def E_cut(self):
        """Energy beyond which the profile stays below 1e-10 of its peak on a
        400-point probe, plus a 20 percent margin, capped at Nyquist."""
        probe = np.linspace(1.0, self.nyquist, 400)
        mags = np.abs(self.positive_part(probe)).reshape(probe.size, -1)
        # one past the last probe point at or above the threshold
        stop = np.max((mags >= 1e-10 * mags.max(axis=0))
                      * np.arange(1, probe.size + 1)[:, None], axis=0)
        return self._per_bump(np.minimum(np.append(1.2 * probe, np.inf)[stop],
                                         self.nyquist))

    @cached_property
    def norm_sq(self):
        """Full |psi_plus_tilde|^2 integral on state-resolution panels.

        The modulus drops the phase e^{i E x_lo}, so it oscillates on the
        scale of the support width x_hi - x_lo rather than of x_hi.
        """
        u, w = _umesh(np.max(self.E_cut), beta=1.0, M=1,
                      b=self.x_hi - self.x_lo)
        vals = self.positive_part(u * u).reshape(u.size, -1)
        return self._per_bump((w * 2.0 * u) @ np.abs(vals) ** 2)


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
    u_max = np.sqrt(E_cut)
    lam_state = np.pi / max(b * u_max, 1e-3)
    if family == "Ztilde":
        lam_basis = np.pi / (2.0 * u_max * np.sqrt(2.0 * beta * max(M, 1)))
    else:
        lam_basis = np.pi / np.sqrt(2.0 * beta * max(M, 1))
    n = int(np.ceil(u_max / min(lam_basis, lam_state)))
    h = u_max / n
    t, wt = _legendre(nodes_per_panel)
    u = (np.arange(n)[:, None] + 0.5 * (t + 1.0)) * h
    return u.ravel(), np.tile(0.5 * h * wt, n)


@lru_cache(maxsize=4)
def _legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only and shared."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


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

    def as_grid_state(self) -> GridState:
        if self.representation != "e-grid":
            raise ValueError("not a grid state")
        return GridState(self.data, self.basis)


def positive_frequency(x, psi, target, family: str = "Z",
                       max_residual: float = PROJECTION_GATE,
                       profile: FourierProfile | None = None,
                       provenance: dict | None = None) -> StateVector:
    """Positive-frequency part of one real sampled bump in a chosen backend:
    project_bumps on the bump's FourierProfile, which may be shared across
    backends."""
    if profile is None:
        profile = FourierProfile(x, psi)
    return project_bumps(profile, target, family, max_residual,
                         [provenance or {}])[0]


def project_bumps(profile: FourierProfile, target, family: str = "Z",
                  max_residual: float = PROJECTION_GATE,
                  provenance: list | None = None) -> list:
    """Positive-frequency parts of every bump of a profile in one backend,
    one StateVector per bump.

    target is a BasisSpec (spectral coefficients by panel quadrature in
    sqrt(E); family "Z" or "Ztilde" picks the plain or squared-argument
    family) or a GridSpec (samples at the grid nodes).  The bumps share one
    energy mesh, sized by the largest cutoff and the union support, and one
    Laguerre sweep projects the real and imaginary parts of all of them.
    provenance holds one dict per bump.  Raises NyquistViolation when the x
    sampling cannot carry the needed energies and ProjectionLoss when more
    than max_residual of some bump's continuum mass misses the
    representation.
    """
    if isinstance(target, BasisSpec):
        if family not in ("Z", "Ztilde"):
            raise ValueError(f"unknown family {family!r}")
        cut = np.atleast_1d(profile.E_cut)
        if cut.max() >= 0.999 * profile.nyquist:
            raise NyquistViolation(
                f"profile still carries mass at the x-grid Nyquist limit "
                f"{profile.nyquist:.1f}")
        # the basis sees nothing past its turning point, so the coefficient
        # integral stops at the earlier of basis cap and profile cutoff
        E_int = min(cut.max(), _basis_energy_cap(target, family))
        u, w = _umesh(E_int, target.beta, target.M, b=profile.x_hi,
                      family=family)
        E = u * u
        vals = profile.positive_part(E).reshape(E.size, -1)
        wts = w * 2.0 * u  # dE = 2u du
        f = wts[:, None] * vals
        # re/im projected inside the recurrence: no basis matrix is stored
        re_im = basis_matrix(target, E, which=family,
                             weights=np.concatenate([f.real, f.imag], 1))
        data = re_im[:, :f.shape[1]] + 1j * re_im[:, f.shape[1]:]
        norm_sq = wts @ np.abs(vals) ** 2
        if E_int < cut.max():
            norm_sq = np.where(E_int < cut, profile.norm_sq, norm_sq)
        rep_norm = np.sum(np.abs(data) ** 2, axis=0)
        kind = "z-spectral"
    elif isinstance(target, GridSpec):
        if target.E_max >= profile.nyquist:
            raise NyquistViolation(
                f"grid E_max {target.E_max} exceeds the x-grid Nyquist limit "
                f"{profile.nyquist:.1f}")
        norm_sq = np.atleast_1d(profile.norm_sq)
        data = profile.positive_part(target.nodes).reshape(target.N, -1)
        rep_norm = target.spacing * np.sum(np.abs(data) ** 2, axis=0)
        kind, family = "e-grid", "grid"
    else:
        raise TypeError(f"unsupported projection target {type(target)!r}")
    residual = np.abs(norm_sq - rep_norm) / norm_sq
    lost = residual > max_residual
    if lost.any():
        raise ProjectionLoss(
            f"projection residual {residual[lost].max():.2e} exceeds "
            f"{max_residual:.0e}")
    columns = np.ascontiguousarray(data.T)
    return [StateVector(kind, columns[j], target, float(norm_sq[j]),
                        float(residual[j]), family, prov)
            for j, prov in enumerate(provenance or [{} for _ in columns])]
