"""Brute-force finite-difference backend on a uniform energy grid.

This backend exists to be dumb and independent: H is the coordinate, the
derivatives are second-order central differences with Dirichlet walls at
both ends, and every derived object comes from dense or tridiagonal
eigendecompositions of those matrices.  Agreement with the spectral
backend is the main cross-check of the whole laboratory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .errors import SpectrumOutOfDomain, SupportEscapesGrid

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
    """Finite-difference (H, D, C) for lowest weight k, plus derived objects.

    The operators are real tridiagonal (times -i for D); eigendecompositions
    are cached so expectation values over many states stay cheap.
    """

    def __init__(self, grid: GridSpec, k: float):
        if k < 0.5:
            raise ValueError("k must be >= 1/2")
        self.grid = grid
        self.k = k
        h = grid.spacing
        E = grid.nodes
        n = grid.N
        self.E = E

        sq = np.sqrt(E)
        # D1: centered first difference, antisymmetric under Dirichlet walls
        off1 = np.full(n - 1, 1.0 / (2 * h))
        # A = sqrt(E) D1 sqrt(E): antisymmetric real tridiagonal
        upper = off1 * sq[:-1] * sq[1:]
        self._D_upper = upper  # D = -i A, A upper = +upper, lower = -upper

        # C = -sqrt(E) D2 sqrt(E) + (k^2 - k)/E
        d2_diag = -2.0 / h**2
        d2_off = 1.0 / h**2
        self.C_diag = -d2_diag * E + (k * k - k) / E
        self.C_off = -d2_off * sq[:-1] * sq[1:]
        self.H_diag = E.copy()

    # -- sparse matrices -------------------------------------------------
    @cached_property
    def H(self) -> sp.spmatrix:
        return sp.diags(self.H_diag).tocsr()

    @cached_property
    def D(self) -> sp.spmatrix:
        u = self._D_upper
        return sp.diags([-1j * u, 1j * u], offsets=[1, -1]).tocsr()

    @cached_property
    def C(self) -> sp.spmatrix:
        return sp.diags(
            [self.C_off, self.C_diag, self.C_off], offsets=[-1, 0, 1]
        ).tocsr()

    # -- derived tridiagonal systems ------------------------------------
    @cached_property
    def ctilde_bands(self):
        """Diagonal and off-diagonal of C~ = H^{-1/2} C H^{-1/2} / 2."""
        inv_sq = 1.0 / np.sqrt(self.E)
        diag = 0.5 * self.C_diag * inv_sq**2
        off = 0.5 * self.C_off * inv_sq[:-1] * inv_sq[1:]
        return diag, off

    @cached_property
    def ctilde_eig(self):
        """Eigensystem of C~ = h^-2 K(N, k), from the shared unit solve."""
        mu, vecs = _unit_ctilde_eig(self.grid.N, self.k)
        return mu / self.grid.spacing ** 2, vecs

    @cached_property
    def d_eig(self):
        """Eigensystem of D; done on the equivalent real symmetric matrix.

        With the gauge v_j -> i^j v_j the Hermitian tridiagonal (-i upper,
        +i lower) maps to a real symmetric tridiagonal with the same
        spectrum; undoing the gauge gives complex eigenvectors of D.
        """
        n = self.grid.N
        evals, vecs = eigh_tridiagonal(np.zeros(n), self._D_upper)
        gauge = (1j) ** np.arange(n)
        return evals, gauge[:, None] * vecs

    def t_min_eigenvalue(self) -> float:
        evals = self.ctilde_eig[0]
        if evals[0] <= 0:
            raise SpectrumOutOfDomain(
                f"C~ on the grid is not positive definite: {evals[0]:.3e}"
            )
        return float(0.5 * np.log(2.0 * evals[0]))

    # -- expectation values ----------------------------------------------
    def expect_H(self, state: GridState) -> float:
        h = self.grid.spacing
        return float(h * np.sum(self.H_diag * np.abs(state.samples) ** 2))

    def expect_C(self, state: GridState) -> float:
        h = self.grid.spacing
        v = state.samples
        val = np.sum(self.C_diag * np.abs(v) ** 2) + 2.0 * np.sum(
            self.C_off * (v[:-1].conj() * v[1:]).real
        )
        return float(h * val)

    def expect_D(self, state: GridState) -> float:
        h = self.grid.spacing
        v = state.samples
        # <v, -i A v> with A antisymmetric: 2 Im sum(upper * conj(v_j) v_{j+1})
        val = 2.0 * np.sum(self._D_upper * (v[:-1].conj() * v[1:]).imag)
        return float(h * val)

    def expect_Ctilde(self, state: GridState) -> float:
        h = self.grid.spacing
        v = state.samples
        diag, off = self.ctilde_bands
        val = np.sum(diag * np.abs(v) ** 2) + 2.0 * np.sum(
            off * (v[:-1].conj() * v[1:]).real
        )
        return float(h * val)

    def expect_T(self, state: GridState) -> float:
        """<T> = sum log(2 lambda)/2 |<v_i, psi>|^2 over the C~ eigensystem."""
        evals, vecs = self.ctilde_eig
        if evals[0] <= 0:
            raise SpectrumOutOfDomain(
                f"C~ on the grid is not positive definite: {evals[0]:.3e}"
            )
        v = state.samples
        # real and imaginary parts projected together: one real GEMM, and
        # the N x N eigenvector matrix is never cast to complex
        amps = vecs.T @ np.stack([v.real, v.imag], axis=1)
        weights = self.grid.spacing * np.sum(amps * amps, axis=1)
        return float(np.sum(0.5 * np.log(2.0 * evals) * weights))

    def apply_dilation_matrix(self, state: GridState, t: float) -> GridState:
        """exp(-i t D_grid) applied through the cached eigensystem of D."""
        evals, vecs = self.d_eig
        amps = vecs.conj().T @ state.samples
        out = vecs @ (np.exp(-1j * t * evals) * amps)
        return GridState(samples=out, grid=self.grid)

    # -- commutator residuals --------------------------------------------
    def rotation_modes(self, count: int) -> np.ndarray:
        """Lowest eigenvectors of the grid rotation generator (H + C)/2.

        These are the smooth, well-resolved vectors on which the difference
        operators are trustworthy; columns of the returned (N, count) array.
        """
        _, vecs = eigh_tridiagonal(
            0.5 * (self.H_diag + self.C_diag), 0.5 * self.C_off,
            select="i", select_range=(0, count - 1),
        )
        return vecs

    def tilde_rotation_modes(self, count: int) -> np.ndarray:
        """Lowest eigenvectors of the squared-coordinate rotation (H~ + C~)/2."""
        diag, off = self.ctilde_bands
        _, vecs = eigh_tridiagonal(
            0.5 * (0.5 * self.E ** 2 + diag), 0.5 * off,
            select="i", select_range=(0, count - 1),
        )
        return vecs

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
            rel = {
                "HD": (H @ D - D @ H, 1j * H),
                "CD": (C @ D - D @ C, -1j * C),
                "HC": (H @ C - C @ H, 2j * D),
            }
            base = self.rotation_modes(modes or 48)
        elif triple == "tilde":
            diag, off = self.ctilde_bands
            Ht = sp.diags(0.5 * self.E ** 2).tocsr()
            Dt = (0.5 * self.D).tocsr()
            Ct = sp.diags([off, diag, off], offsets=[-1, 0, 1]).tocsr()
            rel = {
                "HD": (Ht @ Dt - Dt @ Ht, 1j * Ht),
                "CD": (Ct @ Dt - Dt @ Ct, -1j * Ct),
                "HC": (Ht @ Ct - Ct @ Ht, 2j * Dt),
            }
            base = self.tilde_rotation_modes(modes or 16)
        else:
            raise ValueError(f"unknown triple {triple!r}")
        w = self.smooth_window(inner, outer)
        U, _ = np.linalg.qr(w[:, None] * base)
        U = U.astype(complex)
        out = {}
        for name, (lhs, rhs) in rel.items():
            diff = lhs @ U - rhs @ U
            ref = rhs @ U
            out[name] = float(np.linalg.norm(diff, 2) / np.linalg.norm(ref, 2))
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
    mu, vecs = eigh_tridiagonal(1.0 + (k * k - k) / (2.0 * j * j),
                                np.full(N - 1, -0.5))
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
