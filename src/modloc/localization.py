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

At k = 1 the plain family is the Fourier basis of the abstract circle
under the Cayley map x = beta tan(theta/2) (its Laplace kernel is (-1)^n
e^{i n theta} (beta - ix)^{-2}): c_n = (i/sqrt(pi)) (-1)^n sqrt(n+1)
psi~_{n+1}, psi~_m = int psi(beta tan(theta/2)) e^{i m theta} dtheta, with
norm (1/pi) sum_{m>=1} m |psi~_m|^2, so one FFT over the arc of [a, b]
gives every c_n (_circle_coefficients).  The squared-argument family, and
the plain one at k != 1 (whose kernel under the map i sqrt(E/pi) psi_hat
is geometric only at k = 1, until a map E^{k - 1/2} replaces it), take
energy integrals on Gauss-Legendre panels in u = sqrt(E) over
[0, u_max] (_umesh), each spanning at most three local periods of the
faster of the basis phase (~ 2 sqrt(n x)) and the bump phase (b E): graded
in closed form, and halved towards u = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ProjectionLoss, check_numbers
from .gridop import GridSpec, GridState
from .laguerre import BasisSpec, basis_matrix

__all__ = [
    "BumpSpec",
    "FourierProfile",
    "StateVector",
    "make_bump",
    "positive_frequency",
    "project_bumps",
    "projection_mesh",
    "projection_size",
]

PROJECTION_GATE = 1e-4
BUMP_FAMILIES = ("mollifier", "polynomial-window")


@dataclass(frozen=True)
class BumpSpec:
    """Real bump supported in [a, b] strictly inside (0, oo)."""

    a: float
    b: float
    family: str = "mollifier"

    def __post_init__(self):
        check_numbers(self, ("a", "b"))
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
    """Positive-frequency profiles of a sequence of bumps of one family.

    Every value below is per bump, on a trailing axis.  psi_hat(E) =
    h e^{iEc} W(Eh) with the family's table W, so the profile is 0 from
    E_cut = s_end / h on, and its norm int |psi_plus_tilde|^2 dE =
    (1/pi) int s W(s)^2 ds is the same for every bump of a family.
    """

    def __init__(self, bumps):
        families = {bs.family for bs in bumps}
        if len(families) != 1:
            raise ValueError(f"a profile needs bumps of one family, got "
                             f"{sorted(families)}")
        self.family = families.pop()
        self.W = _unit_transform(self.family)
        self.h = np.array([0.5 * (bs.b - bs.a) for bs in bumps])
        self.c = np.array([0.5 * (bs.a + bs.b) for bs in bumps])
        self.x_lo = float(np.min(self.c - self.h))
        self.x_hi = float(np.max(self.c + self.h))
        self.E_cut = self.W.s_end / self.h
        self.norm_sq = np.full(self.h.shape, self.W.norm_sq)

    def positive_part(self, E) -> np.ndarray:
        """psi_plus_tilde(E) = i sqrt(E/pi) psi_hat(E).

        The factor i pins the inversion phase so real bumps satisfy the
        modular invariance exp(-pi D) psi = J psi (J = conjugation).
        """
        E = np.asarray(E, dtype=float)[..., None]
        return (1j * np.sqrt(np.abs(E) / np.pi) * self.h
                * np.exp(1j * self.c * E) * self.W(self.h * E))


# an energy panel: Gauss-Legendre nodes, and the local periods it spans
_PANEL_NODES, _PANEL_PERIODS = 20, 3


def _umesh(E_cut: float, beta: float, M: int, b: float,
           nodes_per_panel: int = _PANEL_NODES, family: str = "Z"):
    """Gauss-Legendre panel nodes u and weights w on [0, sqrt(E_cut)]; an
    energy integral int g dE is w @ (g(u^2) 2u).

    The basis phase is 2 sqrt(2 beta M) u (plain) or 2 sqrt(2 beta M) u^2
    (squared-argument), the bump phase b u^2.  The faster of the two counts
    phi(u) = p u + q max(u - u0, 0)^2: rate p until 2 q u overtakes it at
    u0 = p / 2q (p = 0 when both are quadratic).  The panel edges invert
    phi in closed form at equal steps of at most _PANEL_PERIODS periods;
    the first panel, where the integrand is least smooth, is halved down
    to the shortest period 2 pi / phi'(u_max).
    """
    u_max = np.sqrt(E_cut)
    rate = 2.0 * np.sqrt(2.0 * beta * max(M, 1))
    p, q = (0.0, max(rate, b)) if family == "Ztilde" else (rate, b)
    u0 = p / (2.0 * q)
    phi_max = p * u_max + q * max(u_max - u0, 0.0) ** 2
    n = int(np.ceil(phi_max / (2.0 * np.pi * _PANEL_PERIODS)))
    phi = phi_max * np.arange(1, n + 1) / n
    lin = np.minimum(phi, p * u0)  # the phase spent at the constant rate
    edges = (lin / p if p else 0.0) + 2.0 * (phi - lin) / (
        p + np.sqrt(p * p + 4.0 * q * (phi - lin)))
    halvings = np.log2(edges[0] * max(p, 2.0 * q * u_max) / (2.0 * np.pi))
    edges = np.concatenate([[0.0], edges[0] * 0.5 ** np.arange(
        max(int(np.ceil(halvings)), 0), 0, -1), edges])
    t, wt = _legendre(nodes_per_panel)
    h = np.diff(edges)[:, None]
    return ((edges[:-1, None] + 0.5 * (t + 1.0) * h).ravel(),
            (0.5 * h * wt).ravel())


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


def projection_mesh(profile: FourierProfile, spec: BasisSpec,
                    family: str = "Z") -> tuple:
    """The _umesh panels (u, w) of project_bumps: up to the earlier of the
    profile cutoff and the basis cap, past which the basis sees nothing."""
    E_int = min(np.max(profile.E_cut), _basis_energy_cap(spec, family))
    return _umesh(E_int, spec.beta, spec.M, b=profile.x_hi, family=family)


# samples across the circle arc (the least count putting the mollifier
# within 1e-12 of 4096 samples from [0.5, 0.75] to [16, 32]; the C^3
# polynomial window is then within 3e-11), and the longest FFT
_ARC_SAMPLES = 512
_CIRCLE_MAX = 2 ** 18


def _on_circle(spec: BasisSpec, family: str) -> bool:
    return family == "Z" and spec.k == 1


def projection_size(profile: FourierProfile, spec: BasisSpec,
                    family: str = "Z") -> int:
    """The node count of project_bumps' energy mesh, or on the circle the
    FFT length L: the least power of two with L/2 > M + 1 and _ARC_SAMPLES
    of the angles 2 pi j / L on the union arc."""
    if not _on_circle(spec, family):
        return projection_mesh(profile, spec, family)[0].size
    arc = 2.0 * np.ptp(np.arctan([profile.x_lo / spec.beta,
                                  profile.x_hi / spec.beta]))
    need = max(2 * spec.M + 3, 2.0 * np.pi * _ARC_SAMPLES / arc)
    return 1 << int(np.ceil(np.log2(need)))


def _circle_coefficients(profile: FourierProfile, spec: BasisSpec):
    """c_n of every bump (module docstring) by the trapezoid rule on the
    angles 2 pi j / L: the unit windows sampled on the union arc, one rfft
    of the (bumps, L) block, conjugated, times the row factor."""
    L = projection_size(profile, spec)
    if L > _CIRCLE_MAX:
        raise ProjectionLoss(f"the circle arc of [{profile.x_lo:.3g}, "
                             f"{profile.x_hi:.3g}] needs an FFT of length "
                             f"{L}, above {_CIRCLE_MAX}")
    lo, hi = L / np.pi * np.arctan([profile.x_lo / spec.beta,
                                    profile.x_hi / spec.beta])
    j = np.arange(int(np.ceil(lo)), int(hi) + 1)
    block = np.zeros((profile.h.size, L))
    block[:, j] = _unit_window(profile.family, (
        spec.beta * np.tan(np.pi * j / L) - profile.c[:, None])
        / profile.h[:, None])
    n = np.arange(spec.M)
    row = 2j * np.sqrt(np.pi) / L * (-1.0) ** n * np.sqrt(n + 1.0)
    return row[:, None] * np.fft.rfft(block)[:, 1:spec.M + 1].T.conj()


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
    on the FourierProfile of [bump]."""
    return project_bumps(FourierProfile([bump]), target, family,
                         max_residual, [provenance or {}])[0]


def project_bumps(profile: FourierProfile, target, family: str = "Z",
                  max_residual: float = PROJECTION_GATE,
                  provenance: list | None = None) -> list:
    """Positive-frequency parts of every bump of a profile in one backend,
    one StateVector per bump.

    target is a BasisSpec (spectral coefficients, on the circle for "Z" at
    k = 1; family "Z" picks the plain basis, "Ztilde" the rotation
    eigenbasis of the squared-coordinate triple, the plain family at
    (k~, beta) under u = E^2: Ztilde_n(E) = sqrt(2E) Z_n^{(k~, beta)}(E^2))
    or a GridSpec (samples at the grid nodes).  The bumps share one FFT,
    or one energy mesh, sized by the largest cutoff and the union support,
    and one Laguerre sweep projects the real and imaginary parts of all.
    provenance holds one dict per bump; a list of another length raises
    ValueError.  Raises ProjectionLoss when more than max_residual of some
    bump's continuum mass misses the representation.
    """
    if provenance is None:
        provenance = [{} for _ in profile.h]
    elif len(provenance) != profile.h.size:
        raise ValueError(f"{len(provenance)} provenance dicts for "
                         f"{profile.h.size} bumps")
    if isinstance(target, BasisSpec):
        if family not in ("Z", "Ztilde"):
            raise ValueError(f"unknown family {family!r}")
        if _on_circle(target, family):
            data = _circle_coefficients(profile, target)
        else:
            u, w = projection_mesh(profile, target, family)
            E = u * u
            wts = w * 2.0 * u  # dE = 2u du
            spec, E_rows = target, E
            if family == "Ztilde":
                wts *= np.sqrt(2.0 * E)
                spec, E_rows = replace(target, k=target.tilde_k), E * E
            f = wts[:, None] * profile.positive_part(E)
            # re/im projected inside the recurrence: no basis matrix stored
            re_im = basis_matrix(spec, E_rows,
                                 weights=np.concatenate([f.real, f.imag], 1))
            data = re_im[:, :f.shape[1]] + 1j * re_im[:, f.shape[1]:]
        rep_norm = np.sum(np.abs(data) ** 2, axis=0)
        kind = "z-spectral"
    elif isinstance(target, GridSpec):
        data = profile.positive_part(target.nodes)
        rep_norm = target.spacing * np.sum(np.abs(data) ** 2, axis=0)
        kind, family = "e-grid", "grid"
    else:
        raise TypeError(f"unsupported projection target {type(target)!r}")
    norm_sq = profile.norm_sq
    residual = np.abs(norm_sq - rep_norm) / norm_sq
    lost = residual > max_residual
    if lost.any():
        raise ProjectionLoss(
            f"projection residual {residual[lost].max():.2e} exceeds "
            f"{max_residual:.0e}")
    columns = np.ascontiguousarray(data.T)
    return [StateVector(kind, columns[j], target, float(norm_sq[j]),
                        float(residual[j]), family, prov)
            for j, prov in enumerate(provenance)]
