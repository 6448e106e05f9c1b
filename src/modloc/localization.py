"""Local wavefunctions on the half line and their positive-frequency parts.

A bump is a smooth real function supported in [a, b] with 0 < a < b < oo:
its family's unit window w0 on [-1, 1] moved to the centre c = (a + b)/2
and stretched by h = (b - a)/2.  Its positive-frequency profile is

    psi_plus_tilde(E) = i sqrt(E/pi) int psi(x) e^{i E x} dx
                      = i sqrt(E/pi) h e^{i E c} W(E h),

with W(s) = int w0(u) cos(s u) du, one real, even table per family, and
the one-particle scalar product is int |psi_plus_tilde|^2 dE (the
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
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ProjectionLoss
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
# the families whose transforms fit the table: the sin^2 window's second
# derivative jumps, so its transform decays only like E^-3 and its cutoff
# lies far past the other families'
FIXTURE_FAMILIES = ("mollifier", "polynomial-window")


@dataclass(frozen=True)
class BumpSpec:
    """Real bump supported in [a, b] strictly inside (0, oo)."""

    a: float
    b: float
    family: str = "mollifier"

    def __post_init__(self):
        if not 0 < self.a < self.b:
            raise ValueError(f"need 0 < a < b, got [{self.a}, {self.b}]")
        if self.family not in BUMP_FAMILIES:
            raise ValueError(f"unknown bump family {self.family!r}")


def _unit_window(family: str, u) -> np.ndarray:
    """The family's window w0 at u: peak w0(0) = 1, zero outside (-1, 1)."""
    u = np.asarray(u, dtype=float)
    w = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    v = u[inside]
    if family == "mollifier":
        w[inside] = np.exp(1.0 - 1.0 / (1.0 - v * v))
    elif family == "sine-window":
        w[inside] = np.cos(0.5 * np.pi * v) ** 2
    else:  # polynomial-window
        w[inside] = (1.0 - v * v) ** 4
    return w


def make_bump(spec: BumpSpec, x) -> np.ndarray:
    """The bump at the points x: w0((2x - a - b)/(b - a)), peak 1 at the
    centre of [a, b]."""
    x = np.asarray(x, dtype=float)
    return _unit_window(spec.family,
                        (2.0 * x - spec.a - spec.b) / (spec.b - spec.a))


# the table: panels of width 2 in s up to _SPAN with _TERMS Taylor
# coefficients each.  The _U_NODES-point rule in u is exact to degree
# 2 * _U_NODES - 1, past the degree ~ s of cos(s u) at s = _SPAN with room
# for the mollifier's flat ends; the moments take _BLOCK panels at a time
# (160 KiB of phases)
_SPAN = 1024
_TERMS = 20
_U_NODES = 640
_BLOCK = 16
_CUTOFF = 1e-10
_MARGIN = 1.2


class _UnitTransform:
    """W(s) = int w0(u) cos(s u) du for one family's unit window w0.

    Panel p covers s in [2p, 2p + 2] and holds the Taylor coefficients of W
    about its centre c = 2p + 1,

        W^(k)(c) / k! = int w0(u) u^k cos(c u + k pi/2) du / k!,

    so with |s - c| <= 1 and |u| <= 1 term k is below W(0)/k!: twenty
    terms reach round-off.  s_cut is the last point of a probe of step 1/4
    where sqrt(s)|W(s)| reaches _CUTOFF of its peak, and W is 0 from
    s_end = _MARGIN s_cut on.  norm_sq = (1/pi) int s W(s)^2 ds is the
    norm of every bump of the family, on Gauss-Legendre nodes exact for
    each panel.
    """

    def __init__(self, family: str):
        u, w = _legendre(_U_NODES)
        k = np.arange(_TERMS)
        moments = ((w * _unit_window(family, u))[:, None] * u[:, None] ** k
                   / np.cumprod(np.maximum(k, 1)))
        centres = np.arange(1.0, _SPAN, 2.0)
        self.coef = np.empty((_TERMS, centres.size))
        for i in range(0, centres.size, _BLOCK):
            c = centres[i:i + _BLOCK]
            # Re(i^k e^{i c u}) = cos(c u + k pi/2)
            self.coef[:, i:i + c.size] = (
                (np.exp(1j * np.outer(c, u)) @ moments) * 1j ** k).real.T
        self.s_end = float(_SPAN)  # the probe reads the whole span
        probe = np.arange(0.0, _SPAN, 0.25)
        env = np.sqrt(probe) * np.abs(self(probe))
        self.s_cut = float(probe[env >= _CUTOFF * env.max()][-1])
        self.s_end = _MARGIN * self.s_cut
        if self.s_end >= _SPAN:
            raise ValueError(
                f"the {family} transform still exceeds {_CUTOFF:.0e} of its "
                f"peak at s = {self.s_cut}, past the table")
        self.coef = self.coef[:, :int(np.ceil(0.5 * self.s_end))].copy()
        self.coef.setflags(write=False)
        t, wt = _legendre(_TERMS)
        s = (2.0 * np.arange(self.coef.shape[1])[:, None] + 1.0 + t).ravel()
        self.norm_sq = float(np.tile(wt, self.coef.shape[1])
                             @ (s * self(s) ** 2) / np.pi)

    def __call__(self, s) -> np.ndarray:
        """W at s by Horner's rule on the panel holding |s|; 0 past s_end."""
        s = np.abs(np.asarray(s, dtype=float))
        live = s < self.s_end
        p = (0.5 * np.where(live, s, 0.0)).astype(np.intp)
        t = s - (2.0 * p + 1.0)
        acc = np.take(self.coef[-1], p)
        for c in self.coef[-2::-1]:
            acc *= t
            acc += np.take(c, p)
        return np.where(live, acc, 0.0)


@lru_cache(maxsize=None)
def _unit_transform(family: str) -> _UnitTransform:
    """The family's transform table, built on first use and shared."""
    return _UnitTransform(family)


class FourierProfile:
    """Positive-frequency profiles of bumps of one family.

    bumps is one BumpSpec or a sequence of them; every value below is per
    bump, on a trailing axis for a sequence.  psi_hat(E) = h e^{iEc} W(Eh)
    with the family's table W, so the profile is 0 from E_cut = s_end / h
    on, and its norm int |psi_plus_tilde|^2 dE = (1/pi) int s W(s)^2 ds is
    the same for every bump of a family.
    """

    def __init__(self, bumps):
        self._single = isinstance(bumps, BumpSpec)
        bumps = [bumps] if self._single else list(bumps)
        families = {bs.family for bs in bumps}
        if len(families) != 1:
            raise ValueError(f"a profile needs bumps of one family, got "
                             f"{sorted(families)}")
        self.W = _unit_transform(families.pop())
        self.h = np.array([0.5 * (bs.b - bs.a) for bs in bumps])
        self.c = np.array([0.5 * (bs.a + bs.b) for bs in bumps])
        self.x_hi = float(np.max(self.c + self.h))
        self.E_cut = self._per_bump(self.W.s_end / self.h)
        self.norm_sq = self._per_bump(np.full(self.h.shape, self.W.norm_sq))

    def _per_bump(self, v):
        """v without its bump axis, a scalar for a 0-d result, for one bump."""
        return v[..., 0][()] if self._single else v

    def positive_part(self, E) -> np.ndarray:
        """psi_plus_tilde(E) = i sqrt(E/pi) psi_hat(E).

        The factor i pins the inversion phase so real bumps satisfy the
        modular invariance exp(-pi D) psi = J psi (J = conjugation).
        """
        E = np.asarray(E, dtype=float)[..., None]
        return self._per_bump(1j * np.sqrt(np.abs(E) / np.pi) * self.h
                              * np.exp(1j * self.c * E) * self.W(self.h * E))


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
    """The n-node Gauss-Legendre rule on [-1, 1], read-only and shared.

    The nodes are the eigenvalues of the Jacobi matrix (off-diagonal
    m / sqrt(4m^2 - 1)), which one Newton step on P_n polishes; the weights
    are 2 / ((1 - x^2) P_n'(x)^2).  Only the tridiagonal matrix is held.
    """
    m = np.arange(1.0, n)
    x = eigh_tridiagonal(np.zeros(n), m / np.sqrt(4.0 * m * m - 1.0),
                         eigvals_only=True)
    p0, p1 = np.ones(n), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    x = x - p1 / dp
    rule = (x, 2.0 / ((1.0 - x * x) * dp * dp))
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


def positive_frequency(bump: BumpSpec, target, family: str = "Z",
                       max_residual: float = PROJECTION_GATE,
                       provenance: dict | None = None) -> StateVector:
    """Positive-frequency part of one bump in a chosen backend: project_bumps
    on the bump's FourierProfile."""
    return project_bumps(FourierProfile(bump), target, family, max_residual,
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
    provenance holds one dict per bump.  Raises ProjectionLoss when more
    than max_residual of some bump's continuum mass misses the
    representation.
    """
    if isinstance(target, BasisSpec):
        if family not in ("Z", "Ztilde"):
            raise ValueError(f"unknown family {family!r}")
        # the basis sees nothing past its turning point, so the coefficient
        # integral stops at the earlier of basis cap and profile cutoff
        E_int = min(np.max(profile.E_cut), _basis_energy_cap(target, family))
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
        rep_norm = np.sum(np.abs(data) ** 2, axis=0)
        kind = "z-spectral"
    elif isinstance(target, GridSpec):
        data = profile.positive_part(target.nodes).reshape(target.N, -1)
        rep_norm = target.spacing * np.sum(np.abs(data) ** 2, axis=0)
        kind, family = "e-grid", "grid"
    else:
        raise TypeError(f"unsupported projection target {type(target)!r}")
    norm_sq = np.atleast_1d(profile.norm_sq)
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
