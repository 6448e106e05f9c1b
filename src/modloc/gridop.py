"""Brute-force finite-difference backend on a uniform energy grid.

This backend exists to be dumb and independent: H is the coordinate, the
derivatives are second-order central differences with Dirichlet walls at
both ends, and every derived object comes from those tridiagonal bands:
their eigenvalues by bisection, the commutator checks' smooth modes by
inverse iteration on shifted band factorizations (_smooth_modes), and <T>
by a sine transform (k = 1) or shifted band solves.  It shares the
Tridiagonal type with the spectral backend; the independence lies in the
discretization.  Agreement with the spectral backend is the main
cross-check of the whole laboratory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import EigenFailure, check_numbers
from .spectral import (SL2_RELATIONS, Tridiagonal, TridiagonalLog,
                       relative_residual)

__all__ = ["GridSpec", "GridState", "GridRep", "build_grid_ops"]

# commutator residuals: the smooth window rises over WINDOW_INNER (in E)
# and falls over WINDOW_OUTER (in units of E_max); the number of lowest
# rotation modes it multiplies, per triple
WINDOW_INNER = (0.3, 1.2)
WINDOW_OUTER = (0.6, 0.9)
SMOOTH_MODES = {"plain": 48, "tilde": 16}
# _smooth_modes: the bisection tolerance, as a fraction of the least gap
# between the bracketed eigenvalues, when the first pass is too coarse;
# and the most inverse iterations a mode may take
GAP_FRACTION = 1e-2
MAX_ITERATIONS = 20


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid: interior nodes E_j = j h, j = 1..N, h = E_max/(N+1)."""

    N: int = 4096
    E_max: float = 40.0

    def __post_init__(self):
        check_numbers(self, ("E_max",), ("N",))
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

    T = (1/2) log(2 C~) is held as the bands of 2 C~ (up to a power of the
    spacing), and <T> comes from band transforms or solves: no N x N array.
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
    def T(self) -> TridiagonalLog:
        """(1/2) log(2 C~) = (1/2) log(2K) - log h.

        With E_j = j h the bands of C~ = h^-2 K(N, k) are h^-2 (1 + (k^2 -
        k)/(2 j^2)) on the diagonal and -1/(2 h^2) off it, so the unit
        matrix 2K depends only on (N, k), and E_max only shifts T: every
        grid of one (N, k) shares the bands and their solved ends.  At k = 1
        2K = tridiag(-1, 2, -1) is constant: its ends and <T> take no band
        solve.
        """
        return TridiagonalLog(_unit_band(self.grid.N, self.k), 0.5,
                              -float(np.log(self.grid.spacing)))

    # -- expectation values ----------------------------------------------
    def expect_H(self, state: GridState) -> float:
        return self.grid.spacing * self.H.expect(state.samples)

    def expect_C(self, state: GridState) -> float:
        return self.grid.spacing * self.C.expect(state.samples)

    def expect_D(self, state: GridState) -> float:
        return self.grid.spacing * self.D.expect(state.samples)

    def expect_T(self, state: GridState) -> float:
        return float(self.grid.spacing * self.T.expect(state.samples))

    # -- commutator residuals --------------------------------------------
    def smooth_window(self) -> np.ndarray:
        """C-infinity cutoff: 0 below WINDOW_INNER[0], 1 on the plateau, 0
        above WINDOW_OUTER[1] * E_max.

        Infinitely differentiable ramps matter: a merely C^1 ramp leaves a
        jump in the second derivative that the 1/h^2 difference stencils
        turn into an h-independent residual at the ramp edges.
        """
        (i0, i1), (o0, o1), emax = WINDOW_INNER, WINDOW_OUTER, self.grid.E_max
        lo = _smooth_step((self.E - i0) / (i1 - i0))
        hi = _smooth_step((o1 * emax - self.E) / ((o1 - o0) * emax))
        return lo * hi

    def commutator_residuals(self, triple: str = "plain") -> tuple:
        """Relative residuals of the three sl(2,R) relations on smooth modes,
        and the Rayleigh quotients of those modes.

        Raw operator norms of the commutator defects never converge: the
        Dirichlet walls and the unresolved high-frequency grid modes carry
        O(1) errors at any spacing.  The honest measure restricts to a
        subspace where the difference operators are accurate: the lowest
        rotation modes, multiplied by a C-infinity window vanishing at both
        walls, then re-orthonormalized.  On that subspace all three defects
        shrink at second order in the spacing.

        triple = "plain" tests (H, D, C); "tilde" tests the squared-
        coordinate triple (H~, D~, C~) = (H^2/2, D/2, C~).

        Every product is real: D = -i K with K real antisymmetric, and the
        modes are real, so a relation [X, Y] = z W is tested as the same
        relation with K in place of D and z times i for each D on the left
        and -i for a D on the right, a real number.
        """
        if triple == "plain":
            H, D, C = self.H, self.D, self.C
        elif triple == "tilde":
            H = Tridiagonal(0.5 * self.E ** 2, np.zeros(self.E.size - 1))
            D, C = 0.5 * self.D, self.Ctilde
        else:
            raise ValueError(f"unknown triple {triple!r}")
        # the smooth vectors are the lowest modes of the rotation (H + C)/2;
        # the windowed modes are far from orthogonal (condition number
        # 6.6e5 for the plain triple), so the QR is Householder's
        theta, base = _smooth_modes(0.5 * (H + C), SMOOTH_MODES[triple])
        U, _ = qr(self.smooth_window()[:, None] * base, mode="economic")
        # H is diagonal in both triples
        ops = {"H": partial(np.multiply, H.diag[:, None]), "C": C.__matmul__,
               "D": partial(_skew, (1j * D.upper).real)}
        XU = {name: X(U) for name, X in ops.items()}
        out = {}
        for x, y, z, w in SL2_RELATIONS:
            z = z * 1j ** (x + y).count("D") * (-1j) ** (w == "D")
            out[x + y] = relative_residual(ops[x](XU[y]) - ops[y](XU[x]),
                                           z.real * XU[w])
        return out, theta


def _smooth_modes(band: Tridiagonal, m: int) -> tuple:
    """(theta, V): the lowest m eigenvectors of a real symmetric band as the
    columns of V, and their Rayleigh quotients theta.

    Sturm bisection (Tridiagonal.eigvals) brackets the lowest m + 1
    eigenvalues; the last one gives the top mode a gap above.  A first
    pass bisects to sqrt(eps) |R|.  If the bracket then shows a least gap
    under 1 / (4 GAP_FRACTION) times that tolerance, it is bisected again
    at GAP_FRACTION of that gap (the slack of 4 keeps a second pass from
    needing a third).  At N = 4096 the first pass stands: its tolerance is
    1.2 % of the least gap of the plain rotation and 0.25 % of the tilde
    one.  Each mode is then inverse iteration on one pivoted LU of the
    shifted band (gttrf, then a gttrs solve per step) from one seeded
    start vector, until the normalized update is below eps |R| / gap, the
    round-off level of an eigenvector with that gap (Parlett, The
    Symmetric Eigenvalue Problem, 1980, ch. 4).  A step divides the error
    by gap / tol or more, so a mode takes about five.  An exactly singular
    pivot moves the shift by a few ulps of |R| and refactors.
    """
    d, e = band.diag, band.upper
    n = d.size
    if not 0 < m < n:
        raise ValueError(f"{m} smooth modes need a band of more than {m} "
                         f"rows, got N = {n}")
    norm = np.abs(d).max() + 2.0 * np.abs(e).max()  # bounds |R|
    eps = np.finfo(float).eps
    tol = np.sqrt(eps) * norm
    while True:
        lam = band.eigvals(0, m, tol)
        gaps = np.diff(lam)
        if tol <= 4.0 * GAP_FRACTION * gaps.min() or tol == 0.0:
            break
        tol = GAP_FRACTION * gaps.min()
    gap = np.minimum(np.concatenate(([np.inf], gaps[:-1])), gaps)
    start = np.random.default_rng(0).standard_normal(n)
    start /= np.linalg.norm(start)
    theta, V = np.empty(m), np.empty((n, m))
    for i in range(m):
        shift = lam[i]
        while True:
            *lu, info = dgttrf(e, d - shift, e)
            if info == 0:
                break
            shift += 4.0 * eps * norm
        x = start
        for _ in range(MAX_ITERATIONS):
            y, _ = dgttrs(*lu, x)
            # a shift above the eigenvalue flips the sign at every step
            y /= np.copysign(np.linalg.norm(y), y @ x)
            update = np.linalg.norm(y - x)
            x = y
            if update <= eps * norm / gap[i]:
                break
        else:
            raise EigenFailure(f"inverse iteration for smooth mode {i} of "
                               f"{m} did not converge (update {update:.1e})")
        theta[i], V[:, i] = x @ (band @ x), x
    return theta, V


def _skew(e: np.ndarray, V: np.ndarray) -> np.ndarray:
    """K V for the real antisymmetric tridiagonal K with upper band e."""
    out = np.zeros_like(V)
    np.multiply(e[:, None], V[1:], out=out[:-1])
    out[1:] -= e[:, None] * V[:-1]
    return out


@lru_cache(maxsize=8)
def _unit_band(N: int, k: float) -> Tridiagonal:
    """The unit bands 2K(N, k) of GridRep.T, read-only and shared, so that
    their ends (Tridiagonal.extremes) are solved once per (N, k)."""
    j = np.arange(1, N + 1, dtype=float)
    band = Tridiagonal(2.0 + (k * k - k) / (j * j), np.full(N - 1, -1.0))
    band.diag.setflags(write=False)
    band.upper.setflags(write=False)
    return band


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
