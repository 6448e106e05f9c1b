"""Brute-force finite-difference backend on a uniform energy grid.

This backend exists to be dumb and independent: H is the coordinate, the
derivatives are second-order central differences with Dirichlet walls at
both ends, and every derived object comes from tridiagonal
eigendecompositions of those matrices.  It shares the Tridiagonal type
with the spectral backend; the independence lies in the discretization.
Agreement with the spectral backend is the main cross-check of the whole
laboratory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import SupportEscapesGrid
from .spectral import HermitianOperator, Tridiagonal, log_spectrum

__all__ = ["GridSpec", "GridState", "GridRep", "build_grid_ops", "grid_dilation"]

# exp(-i t D) pushes a profile to (exp(-t/2) psi(exp(-t) E)); the printed
# flow direction corresponds to the opposite parameter sign, frozen here
# after pinning it against the matrix exponential of D_grid
DILATION_FLOW_SIGN = -1


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid: interior nodes E_j = j h, j = 1..N, h = E_max/(N+1)."""

    N: int = 4096
    E_max: float = 40.0

    def __post_init__(self):
        if self.N < 16:
            raise ValueError("grid needs at least 16 points")
        if self.E_max <= 0:
            raise ValueError("E_max must be positive")

    @property
    def spacing(self) -> float:
        return self.E_max / (self.N + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.N + 1)


@dataclass
class GridState:
    """Complex samples of a positive-frequency profile at the interior nodes."""

    samples: np.ndarray
    grid: GridSpec

    def norm_sq(self) -> float:
        return float(self.grid.spacing * np.vdot(self.samples, self.samples).real)


class GridRep:
    """Finite-difference H, D, C and C~ for lowest weight k, each a
    Tridiagonal, plus derived objects.

    T = (1/2) log(2 C~) is held as its eigensystem, read from the shared
    unit solve, so expectation values over many states stay cheap.
    """

    def __init__(self, grid: GridSpec, k: float):
        if k < 0.5:
            raise ValueError("k must be >= 1/2")
        self.grid = grid
        self.k = k
        h = grid.spacing
        E = self.E = grid.nodes
        link = np.sqrt(E[:-1]) * np.sqrt(E[1:])
        self.H = Tridiagonal(E, np.zeros(E.size - 1))
        # sqrt(E) D1 sqrt(E) with the centred first difference D1 is real
        # antisymmetric under Dirichlet walls; D is -i times it
        self.D = Tridiagonal(np.zeros(E.size), -1j * link / (2 * h))
        # C = -sqrt(E) D2 sqrt(E) + (k^2 - k)/E
        self.C = Tridiagonal(2.0 * E / h**2 + (k * k - k) / E, -link / h**2)
        # C~ = H^{-1/2} C H^{-1/2} / 2
        self.Ctilde = Tridiagonal(0.5 * self.C.diag / E,
                                  0.5 * self.C.upper / link)

    @cached_property
    def T(self) -> HermitianOperator:
        """(1/2) log(2 C~) with C~ = h^-2 K(N, k), from the shared solve."""
        mu, vecs = _unit_ctilde_eig(self.grid.N, self.k)
        return HermitianOperator(
            0.5 * log_spectrum(2.0 * mu / self.grid.spacing ** 2), vecs)

    # -- expectation values ----------------------------------------------
    def expect_H(self, state: GridState) -> float:
        return self.grid.spacing * self.H.expect(state.samples)

    def expect_C(self, state: GridState) -> float:
        return self.grid.spacing * self.C.expect(state.samples)

    def expect_D(self, state: GridState) -> float:
        return self.grid.spacing * self.D.expect(state.samples)

    def expect_Ctilde(self, state: GridState) -> float:
        return self.grid.spacing * self.Ctilde.expect(state.samples)

    def expect_T(self, state: GridState) -> float:
        return float(self.grid.spacing * self.T.expect(state.samples))

    def apply_dilation_matrix(self, state: GridState, t: float) -> GridState:
        """exp(-i t D_grid) applied through the eigensystem of D."""
        evals, vecs = self.D.eigh()
        amps = vecs.conj().T @ state.samples
        out = vecs @ (np.exp(-1j * t * evals) * amps)
        return GridState(samples=out, grid=self.grid)

    # -- commutator residuals --------------------------------------------
    def smooth_window(self, inner: tuple = (0.3, 1.2),
                      outer: tuple = (0.6, 0.9)) -> np.ndarray:
        """C-infinity cutoff: 0 below inner[0], 1 on the plateau, 0 above
        outer[1] * E_max.

        Infinitely differentiable ramps matter: a merely C^1 ramp leaves a
        jump in the second derivative that the 1/h^2 difference stencils
        turn into an h-independent residual at the ramp edges.
        """
        E = self.E
        emax = self.grid.E_max
        lo = _smooth_step((E - inner[0]) / (inner[1] - inner[0]))
        hi = _smooth_step((outer[1] * emax - E) / ((outer[1] - outer[0]) * emax))
        return lo * hi

    def commutator_residuals(self, triple: str = "plain",
                             modes: int | None = None,
                             inner: tuple = (0.3, 1.2),
                             outer: tuple = (0.6, 0.9)) -> dict:
        """Relative residuals of the three sl(2,R) relations on smooth modes.

        Raw operator norms of the commutator defects never converge: the
        Dirichlet walls and the unresolved high-frequency grid modes carry
        O(1) errors at any spacing.  The honest measure restricts to a
        subspace where the difference operators are accurate: the lowest
        rotation modes, multiplied by a C-infinity window vanishing at both
        walls, then re-orthonormalized.  On that subspace all three defects
        shrink at second order in the spacing.

        triple = "plain" tests (H, D, C); "tilde" tests the squared-
        coordinate triple (H~, D~, C~) = (H^2/2, D/2, C~).
        """
        if triple == "plain":
            H, D, C = self.H, self.D, self.C
            count = modes or 48
        elif triple == "tilde":
            H = Tridiagonal(0.5 * self.E ** 2, np.zeros(self.E.size - 1))
            D, C = 0.5 * self.D, self.Ctilde
            count = modes or 16
        else:
            raise ValueError(f"unknown triple {triple!r}")
        # the smooth vectors are the lowest modes of the rotation (H + C)/2
        _, base = (0.5 * (H + C)).eigh(select="i",
                                       select_range=(0, count - 1))
        U, _ = np.linalg.qr(self.smooth_window(inner, outer)[:, None] * base)
        ops = {"H": H, "D": D, "C": C}
        on_U = {name: X @ U for name, X in ops.items()}
        out = {}
        for (x, y), z, w in (("HD", 1j, "H"), ("CD", -1j, "C"),
                             ("HC", 2j, "D")):
            # [X, Y] = z W, applied to the modes
            ref = z * on_U[w]
            diff = ops[x] @ on_U[y] - ops[y] @ on_U[x] - ref
            out[x + y] = float(np.linalg.norm(diff, 2)
                               / np.linalg.norm(ref, 2))
        return out


@lru_cache(maxsize=1)
def _unit_ctilde_eig(N: int, k: float):
    """Eigensystem of K(N, k) = h^2 C~, read-only and shared.

    With E_j = j h the bands of C~ are h^-2 (1 + (k^2 - k)/(2 j^2)) on the
    diagonal and -1/(2 h^2) off it, so the eigenvectors depend only on
    (N, k) and E_max merely rescales the eigenvalues: every grid with the
    same (N, k) shares this one solve.
    """
    j = np.arange(1, N + 1, dtype=float)
    mu, vecs = Tridiagonal(1.0 + (k * k - k) / (2.0 * j * j),
                           np.full(N - 1, -0.5)).eigh()
    mu.setflags(write=False)
    vecs.setflags(write=False)
    return mu, vecs


def _smooth_step(u) -> np.ndarray:
    """C-infinity transition from 0 at u <= 0 to 1 at u >= 1."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        g = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return f / (f + g)


def build_grid_ops(grid: GridSpec, k: float) -> GridRep:
    """Finite-difference generator triple on the grid (see GridRep)."""
    return GridRep(grid, k)


def grid_dilation(state: GridState, t: float,
                  sign: int = DILATION_FLOW_SIGN) -> GridState:
    """Exact integral flow of the dilation: scaled resampling of the profile.

    (flow(t) psi)(E) = e^{s t/2} psi(e^{s t} E) with the frozen sign s that
    matches exp(-i t D_grid).  Interpolation is cubic; the profile must not
    be pushed past the outer wall.
    """
    grid = state.grid
    E = grid.nodes
    s = np.exp(sign * t)
    # support check: significant mass must stay inside the grid
    mags = np.abs(state.samples)
    tail = mags[int(0.95 * grid.N):]
    if s > 1.0 and np.max(tail, initial=0.0) > 1e-8 * np.max(mags):
        raise SupportEscapesGrid("dilated profile would cross the outer wall")
    spline_re = CubicSpline(E, state.samples.real, extrapolate=False)
    spline_im = CubicSpline(E, state.samples.imag, extrapolate=False)
    Es = s * E
    vals = np.nan_to_num(spline_re(Es)) + 1j * np.nan_to_num(spline_im(Es))
    return GridState(samples=np.exp(sign * t / 2.0) * vals, grid=grid)
