"""Truncated Hermitian matrices for the sl(2,R) generator triples, the
modular objects, and the coordinate operators.

All operators are compressions P_M X P_M onto the first M basis vectors.
In the lowest-weight basis the generators are exactly tridiagonal, with the
standard discrete-series matrix elements, so the triples are written down in
closed form as bands (Tridiagonal), and every eigensystem of a
generator-derived matrix comes from the equivalent real symmetric
tridiagonal problem (Tridiagonal.eigensystem), kept as real eigenvectors
and a diagonal unit gauge; T's ladder alone takes its eigenvectors from
the Laguerre rows at its eigenvalues (_unit_ladder_eig).

Identities that hold for the infinite-dimensional operators are corrupted
by truncation only near the boundary rows, so they are tested under an
interior projection (default fraction 0.8).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvals_banded
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import dptsv, dstebz

from .errors import EigenFailure, SpectrumOutOfDomain
from .laguerre import BasisSpec, basis_matrix

__all__ = [
    "Tridiagonal",
    "GeneratorSet",
    "HermitianOperator",
    "TridiagonalLog",
    "build_generators",
    "build_tilde_generators",
    "log_spectrum",
    "matrix_function",
    "build_T",
    "unitary_flow",
    "relative_residual",
]

INTERIOR_FRACTION = 0.8
# the sl(2,R) relations [X, Y] = z W that both triples satisfy, (X, Y, z, W)
SL2_RELATIONS = (("H", "D", 1j, "H"), ("C", "D", -1j, "C"),
                 ("H", "C", 2j, "D"))
# resolvent quadrature of log A (TridiagonalLog): the trapezoid step in
# s = log y, how far the window of solves reaches below the least and above
# the largest eigenvalue of A (in s), and the order of the closed-form tail
# series beyond the window
LOG_STEP = 0.6
LOG_REACH = (10.0, 6.0)
LOG_TAIL_ORDER = 6


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Hermitian tridiagonal matrix held as its bands: a real diagonal and
    an upper band, with the conjugate of the upper band below the diagonal.

    A @ v acts on a vector or on a block of columns, a real scalar times A
    and A + B stay banded, and np.asarray(A) is the dense matrix.
    """

    diag: np.ndarray
    upper: np.ndarray

    # numpy scalars and arrays on the left defer to the operators below, so
    # no mixed expression turns into a dense matrix unasked
    __array_priority__ = 1000

    def __post_init__(self):
        d, e = np.asarray(self.diag), np.asarray(self.upper)
        if (d.ndim != 1 or d.dtype.kind not in "iuf"
                or e.shape != (d.size - 1,) or e.dtype.kind not in "iufc"):
            raise ValueError(
                f"a Hermitian tridiagonal needs a real diagonal and an upper "
                f"band one shorter; got {d.dtype} {d.shape} and {e.dtype} "
                f"{e.shape}")
        object.__setattr__(self, "diag", d.astype(float, copy=False))
        object.__setattr__(self, "upper",
                           e.astype(np.result_type(e, 1.0), copy=False))

    def __matmul__(self, v):
        v = np.asarray(v)
        col = _column(v)
        e = self.upper[col]
        dtype = np.result_type(e, v)
        out = np.multiply(self.diag[col], v, dtype=dtype)
        off = np.multiply(e, v[1:], dtype=dtype)  # scratch for both bands
        out[:-1] += off
        out[1:] += np.multiply(np.conj(e), v[:-1], out=off)
        return out

    def __mul__(self, c):
        if not isinstance(c, numbers.Real):
            raise TypeError(f"a Hermitian tridiagonal scales only by a real "
                            f"number, not {c!r}")
        return Tridiagonal(c * self.diag, c * self.upper)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Tridiagonal):
            return NotImplemented
        return Tridiagonal(self.diag + other.diag, self.upper + other.upper)

    def expect(self, v):
        """Re <v, A v> for a vector, or for each column of a block."""
        return np.einsum("i...,i...->...", np.conj(v), self @ v).real

    def gauged(self) -> tuple:
        """(R, g): the real band R = |A| and the diagonal unit gauge g (None
        for a real band) with A = diag(g) R diag(g)^*: g_0 = 1, g_{n+1} =
        g_n conj(e_n)/|e_n| for the upper band e (for D, g_n = (-i)^n).
        The real and imaginary parts are divided by |e_n| one at a time, so
        an axis-aligned band gets exact phases."""
        e = self.upper
        if not np.iscomplexobj(e):
            return self, None
        mag = np.abs(e)
        safe = np.where(mag > 0.0, mag, 1.0)
        phase = np.where(mag > 0.0, e.real / safe - 1j * (e.imag / safe), 1.0)
        return (Tridiagonal(self.diag, mag),
                np.concatenate(([1.0], np.cumprod(phase))))

    def eigvals(self, first: int, last: int, tol: float = 0.0) -> np.ndarray:
        """Eigenvalues first..last (from 0, ascending) of the gauged real
        band to within tol (round-off for 0) by Sturm bisection (LAPACK
        stebz by index), refusing a non-finite band that stebz may pass."""
        d, e = self.diag, self.gauged()[0].upper
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise ValueError("Sturm bisection needs a finite band")
        if d.size == 1:  # scipy's stebz wrapper refuses an empty upper band
            return d.copy()
        m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, first + 1, last + 1,
                                  tol, "E")
        if info != 0:
            raise EigenFailure(f"Sturm bisection failed (stebz info {info})")
        return w[:m]

    def eigval(self, i: int) -> float:
        """The i-th least eigenvalue (i = -1: the largest)."""
        i %= self.diag.size
        return float(self.eigvals(i, i)[0])

    @cached_property
    def extremes(self) -> np.ndarray:
        """The least and the largest eigenvalue, each by its own bisection;
        kept read-only, so a band shared read-only is solved once."""
        ends = np.array([self.eigval(0), self.eigval(-1)])
        ends.setflags(write=False)
        return ends

    def eigensystem(self) -> "HermitianOperator":
        """The band as a HermitianOperator: one full solve of the gauged
        real band (not kept), and the gauge."""
        real, gauge = self.gauged()
        return HermitianOperator(*eigh_tridiagonal(real.diag, real.upper),
                                 gauge=gauge)

    def __array__(self, dtype=None, copy=None):
        A = np.diag(self.diag.astype(self.upper.dtype))
        i = np.arange(self.upper.size)
        A[i, i + 1] = self.upper
        A[i + 1, i] = np.conj(self.upper)
        return A if dtype is None else A.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian operator held as its eigensystem: real eigenvalues, the
    eigenvectors V as columns and an optional diagonal unit gauge g, so
    that A = diag(g) V diag(evals) V^* diag(g)^*.  When V holds only the
    leading rows of a larger solve, A is that solve's compression onto
    those rows.  The gauge multiplies the small operand, so with a real V
    every product against V is a real GEMM and V is never cast to complex.
    The dense matrix is composed only when asked for.
    """

    evals: np.ndarray
    vecs: np.ndarray
    gauge: np.ndarray | None = None

    def __post_init__(self):
        e, V = np.asarray(self.evals), np.asarray(self.vecs)
        if (e.ndim != 1 or e.dtype.kind not in "iuf" or V.ndim != 2
                or V.shape[1] != e.size or V.shape[0] > e.size):
            raise ValueError(f"not an eigensystem: eigenvalues {e.dtype} "
                             f"{e.shape}, eigenvectors {V.shape}")

    def _gauged(self, X, rows=slice(None), cols=None):
        """diag(g)[rows] X, times diag(g)^*[cols] if cols is given."""
        if self.gauge is None:
            return X
        X = self.gauge[rows][_column(X)] * X
        return X if cols is None else X * np.conj(self.gauge[cols])

    def _amplitudes(self, X) -> np.ndarray:
        """V^* diag(g)^* X for a vector or a block X."""
        g = 1.0 if self.gauge is None else np.conj(self.gauge)[_column(X)]
        return _real_matmul(self.vecs.conj().T, g * np.asarray(X))

    def function(self, f) -> "HermitianOperator":
        """f(A) for a callable f on the eigenvalues."""
        return HermitianOperator(f(self.evals), self.vecs, self.gauge)

    def weights(self, v) -> np.ndarray:
        """|V^* g^* v|^2, the spectral weights of a vector or of each column
        of a block."""
        amps = self._amplitudes(v)
        return amps.real ** 2 + amps.imag ** 2

    def expect(self, v):
        """<v, A v> for a vector, or for each column of a block."""
        return self.evals @ self.weights(v)

    def apply(self, f, X) -> np.ndarray:
        """f(A) X for a vector or a block X, with f a callable on the
        eigenvalues: g V f(evals) V^* g^* X, no dense f(A)."""
        amps = self._amplitudes(X)
        return self._gauged(_real_matmul(
            self.vecs, f(self.evals)[_column(amps)] * amps))

    def flow(self, t: float, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """The block [rows, cols] of the unitary exp(i t A); a block costs
        only its own rows or columns of V.  The phases always scale the
        rows' eigenvectors, so a block is bitwise that of the full flow."""
        V, phase, right = self.vecs, t * self.evals, self.vecs[cols].conj().T
        # the real and the imaginary part: one real GEMM each for a real V
        out = (V[rows] * np.cos(phase)) @ right + 1j * (
            (V[rows] * np.sin(phase)) @ right)
        return self._gauged(out, rows, cols)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix g V diag(evals) V^* g^*."""
        return self._gauged((self.vecs * self.evals) @ self.vecs.conj().T,
                            cols=slice(None))


def _column(X) -> tuple:
    """Index that broadcasts a per-row vector against X's columns."""
    return (slice(None),) + (None,) * (np.ndim(X) - 1)


def _real_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X; a real A meets a complex X as the real block of X's
    interleaved real and imaginary parts, in one real GEMM."""
    if np.iscomplexobj(A) or not np.iscomplexobj(X):
        return A @ X
    parts = np.ascontiguousarray(X).reshape(len(X), -1).view(float)
    return (A @ parts).view(complex).reshape(len(A), *X.shape[1:])


@dataclass(frozen=True, eq=False)
class TridiagonalLog:
    """scale * log(A) + shift for a real positive definite Tridiagonal A,
    held as A's bands and read only through expectation values.

    A constant band is read by one real FFT (sine_evals), any other by
    log lambda = int_R [e^s/(1 + e^s) - e^s/(lambda + e^s)] ds, and the
    trapezoid rule converges geometrically on it (the integrand is analytic
    in the strip |Im s| < pi), so <v, log A v> is a sum of shifted
    tridiagonal solves <v, (A + e^s)^{-1} v> on the bands: O(N) work and
    memory per node, no eigenvectors (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385).  The nodes run from LOG_REACH[0] below log lambda_min to
    LOG_REACH[1] above log lambda_max; beyond them the integrand is a power
    series in e^{-s} with coefficients |v|^2 - <v, A^n v> on the right, and
    in e^s with |v|^2 - <v, A^-n v> on the left, whose node sums are
    geometric, so both infinite tails are summed in closed form.
    """

    A: Tridiagonal
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if np.iscomplexobj(self.A.upper):
            raise ValueError("TridiagonalLog needs a real band")

    @cached_property
    def extremes(self) -> np.ndarray:
        """The least and the largest eigenvalue of A, a constant band's in
        closed form (sine_evals); log_spectrum's domain guard applies."""
        lam = self.A.extremes if self.sine_evals is None else self.sine_evals
        ends = np.array([lam.min(), lam.max()])
        log_spectrum(ends)
        return ends

    @property
    def spectral_range(self) -> tuple:
        """The least and the largest eigenvalue of scale * log(A) + shift."""
        lo, hi = self.scale * np.log(self.extremes) + self.shift
        return float(lo), float(hi)

    @cached_property
    def sine_evals(self) -> np.ndarray | None:
        """A constant band's eigenvalues c + 2 e cos(m pi / (N + 1)) at the
        sine modes sin(j m pi / (N + 1)), m = 1..N (Strang, SIAM Rev. 41
        (1999) 135), as (c - 2|e|) + 4|e| sin^2 (of N + 1 - m for e > 0),
        exact to relative round-off; None unless the band is constant.  An
        infinite band gives NaN, which log_spectrum's guard refuses."""
        d, e = self.A.diag, self.A.upper
        if not (e.size and (d == d[0]).all() and (e == e[0]).all()):
            return None
        m = np.arange(1, d.size + 1)[::-1 if e[0] > 0.0 else 1]
        with np.errstate(invalid="ignore"):
            return (d[0] - 2.0 * abs(e[0])) + 4.0 * abs(e[0]) * np.sin(
                m * np.pi / (2 * d.size + 2)) ** 2

    @cached_property
    def nodes(self) -> np.ndarray:
        """The trapezoid nodes s; none on a constant band (sine_evals)."""
        if self.sine_evals is not None:
            return np.empty(0)
        first, last = np.log(self.extremes) + (-LOG_REACH[0], LOG_REACH[1])
        return first + LOG_STEP * np.arange(
            int(np.ceil((last - first) / LOG_STEP)) + 1)

    def _solve(self, shift: float, X: np.ndarray) -> np.ndarray:
        """(A + shift)^{-1} X for a real block X (LAPACK dptsv)."""
        _, _, out, info = dptsv(self.A.diag + shift, self.A.upper, X)
        if info:
            raise np.linalg.LinAlgError(
                f"dptsv: A + {shift:.3e} not positive definite (info {info})")
        return out

    def expect(self, v):
        """<v, (scale log A + shift) v> for a vector, or for each column of
        a block."""
        v = np.asarray(v)
        # real and imaginary parts solved together as one real block
        X = np.stack([v.real, v.imag], -1).reshape(len(v), -1)
        norms = np.einsum("ij,ij->j", X, X)
        if self.sine_evals is None:
            total = self._quadrature(X, norms)
        else:  # the FFT of [0, x, 0, -reversed x] is -2i times x's sine sums
            self.extremes  # log_spectrum's domain guard
            z = np.zeros((1, X.shape[1]))
            S = np.fft.rfft(np.concatenate([z, X, z, -X[::-1]]), axis=0).imag
            total = np.log(self.sine_evals) @ (
                S[1:len(X) + 1] ** 2 / (2 * len(X) + 2))
        out = self.scale * total + self.shift * norms
        return out.reshape(*v.shape[1:], 2).sum(-1)

    def _quadrature(self, X: np.ndarray, norms: np.ndarray) -> np.ndarray:
        s = self.nodes
        total = np.zeros_like(norms)
        for y in np.exp(s):
            total += (y / (1.0 + y)) * norms - y * np.einsum(
                "ij,ij->j", X, self._solve(y, X))
        n = np.arange(1, LOG_TAIL_ORDER + 1)
        geo = (-1.0) ** n / np.expm1(n * LOG_STEP)
        up = _moments(lambda W: np.exp(-s[-1]) * (self.A @ W), X)
        down = _moments(lambda W: np.exp(s[0]) * self._solve(0.0, W), X)
        total += geo @ (np.exp(-n * s[-1])[:, None] * norms - up)
        total -= geo @ (np.exp(n * s[0])[:, None] * norms - down)
        return LOG_STEP * total


def _moments(step, X: np.ndarray) -> np.ndarray:
    """<X, B^n X> column by column for n = 1..LOG_TAIL_ORDER, where step
    applies the symmetric B: with W_j = B^j X, <X, B^n X> = <W_{n//2},
    W_{(n+1)//2}>, so the series needs only ceil(order/2) steps."""
    W = [X]
    for _ in range((LOG_TAIL_ORDER + 1) // 2):
        W.append(step(W[-1]))
    return np.array([np.einsum("ij,ij->j", W[n // 2], W[(n + 1) // 2])
                     for n in range(1, LOG_TAIL_ORDER + 1)])


@dataclass(frozen=True)
class GeneratorSet:
    """One sl(2,R) triple (H, D, C) in the Z basis, each a Tridiagonal.

    variant is "plain" for the triple built from (A.1)-type generators,
    "tilde" for the squared-Hamiltonian triple.
    """

    H: Tridiagonal
    D: Tridiagonal
    C: Tridiagonal
    spec: BasisSpec
    variant: str = "plain"

    @property
    def M(self) -> int:
        return self.H.diag.size

    def rotation(self) -> Tridiagonal:
        """Generator of rotations (H + C)/2."""
        return 0.5 * (self.H + self.C)

    def hc_eigensystems(self) -> tuple:
        """H and C as HermitianOperators.  Both are the discrete-series
        ladder up to scale and the sign gauge S = diag((-1)^n), H = c S C S,
        so one solve serves both unless the bands are perturbed."""
        H, C = self.H, self.C
        c = H.diag[0] / C.diag[0]
        if not (np.allclose(H.diag, c * C.diag, rtol=1e-14, atol=0.0)
                and np.allclose(H.upper, -c * C.upper, rtol=1e-14, atol=0.0)):
            return H.eigensystem(), C.eigensystem()
        op = C.eigensystem()
        sign = (-1.0) ** np.arange(self.M)
        return HermitianOperator(c * op.evals, op.vecs, sign), op

    def commutator_residuals(self) -> dict:
        """The relative residuals of SL2_RELATIONS on the interior block P
        of the leading ceil(INTERIOR_FRACTION M) basis vectors, from the
        bands: for tridiagonal X, Y, W and imaginary z, i([X, Y] - z W) and
        i z W are Hermitian band matrices, whose 2-norms on P are their
        largest |eigenvalues|."""
        b = int(np.ceil(INTERIOR_FRACTION * self.M))
        ops = {"H": self.H, "D": self.D, "C": self.C}
        out = {}
        for x, y, z, w in SL2_RELATIONS:
            X, Y, W = ops[x], ops[y], ops[w]
            defect = _band_norm(lambda V: 1j * (
                X @ (Y @ V) - Y @ (X @ V) - z * (W @ V)), self.M, b)
            out[x + y] = _ratio(defect, _band_norm(
                lambda V: 1j * z * (W @ V), self.M, b))
        return out


def _band_norm(apply, M: int, n: int) -> float:
    """2-norm of the leading n x n block (n < M) of the Hermitian
    pentadiagonal M x M matrix that apply multiplies: the larger |eigenvalue|
    at the two ends of its spectrum.  Its bands come from the five combs
    with ones at rows j = r mod 5, each of which meets a row's band entries
    one at a time (Curtis, Powell & Reid, IMA J. Appl. Math. 13 (1974) 117):
    band[2 - d, j] = A[j - d, j], scipy's upper band storage."""
    combs = apply((np.arange(M)[:, None] % 5 == np.arange(5)).astype(float))
    j = np.arange(n)
    band = np.array([np.pad(combs[j[d:] - d, j[d:] % 5], (d, 0))
                     for d in (2, 1, 0)])
    if not np.all(np.isfinite(band)):
        return float("nan")
    return max(abs(float(eigvals_banded(band, select="i",
                                        select_range=(i, i))[0]))
               for i in (0, n - 1))


def _bands(k: float, M: int):
    """Diagonal d_n = n + k and off-diagonal s_n = sqrt((n+1)(n+2k))/2 of
    the discrete-series ladder, n < M."""
    n = np.arange(M, dtype=float)
    return n + k, 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0 * k))


def build_generators(spec: BasisSpec) -> GeneratorSet:
    """The plain triple (H, D, C) in closed form.

    In the lowest-weight basis the generators act as ladder operators, so
    their compressions are tridiagonal with the discrete-series matrix
    elements (Bargmann 1947): with d_n = n + k and
    s_n = sqrt((n+1)(n+2k))/2,

        H = (diag d - offdiag s)/beta,   C = beta (diag d + offdiag s),
        D = i (superdiag s - subdiag s).

    The truncation keeps the first M rows and columns of each.
    """
    beta, M = spec.beta, spec.M
    d, s = _bands(spec.k, M)
    return GeneratorSet(H=Tridiagonal(d / beta, -s / beta),
                        D=Tridiagonal(np.zeros(M), 1j * s),
                        C=Tridiagonal(beta * d, beta * s),
                        spec=spec, variant="plain")


def build_tilde_generators(g: GeneratorSet) -> GeneratorSet:
    """Squared-coordinate triple (H^2/2, D/2, H^{-1/2} C H^{-1/2} / 2).

    The matrices are written in the companion basis, the orthonormal
    eigenbasis of the triple's rotation generator: the plain basis at
    (k~, beta), k~ = k/2 + 1/4, under the square-coordinate unitary
    u = E^2, psi -> sqrt(2E) psi(E^2) (family "Ztilde" of
    localization.project_bumps).  The same unitary maps the triple onto
    the standard generator form with lowest weight k~ and scale 2 beta,
    so its matrices are exactly a plain build at (k~, 2 beta).
    In the plain basis the entries of the third operator diverge with the
    truncation; this basis is the one where all three are finite.
    """
    if g.variant != "plain":
        raise ValueError("tilde triple is built from the plain one")
    spec = g.spec
    built = build_generators(
        BasisSpec(k=spec.tilde_k, beta=2.0 * spec.beta, M=spec.M))
    return replace(built, spec=spec, variant="tilde")


def log_spectrum(evals: np.ndarray) -> np.ndarray:
    """log of a positive definite matrix's eigenvalues, each of which must
    exceed 1e-10 times the largest; a silent clamp would corrupt the bounds
    on the coordinate operators, so anything below raises, and so does NaN."""
    cut = 1e-10 * max(evals.max(), 0.0)
    if not evals.min() > cut:
        raise SpectrumOutOfDomain(f"log needs eigenvalues above {cut:.3e}; "
                                  f"got {evals.min():.3e}")
    return np.log(evals)


def matrix_function(A: Tridiagonal, f) -> HermitianOperator:
    """f(A) for a callable f on the eigenvalues, eigenvectors kept."""
    return A.eigensystem().function(f)


def build_T(gt: GeneratorSet, log_M: int | None = None) -> HermitianOperator:
    """Modular coordinate T = (1/2) log(2 C~) from the tilde triple.

    The logarithm of the truncated 2 C~ is wrong near its last rows, and
    the error reaches into the rows a state occupies.  log_M > M solves at
    truncation log_M and keeps the leading M rows of the eigenvectors: the
    compression of that T, closer to that of the untruncated T as log_M
    grows.  2 C~ is 4 beta times the discrete-series bands at k~, so every
    beta shares one unit solve (_unit_ladder_eig), with no eigenvector solve.
    """
    if gt.variant != "tilde":
        raise ValueError("T is built from the tilde triple")
    log_M = gt.M if log_M is None else log_M
    if log_M < gt.M:
        raise ValueError(f"log_M {log_M} below the truncation {gt.M}")
    mu, vecs = _unit_ladder_eig(gt.spec.tilde_k, log_M)
    return HermitianOperator(0.5 * log_spectrum(4.0 * gt.spec.beta * mu),
                             vecs[:gt.M])


@lru_cache(maxsize=1)
def _unit_ladder_eig(k: float, M: int):
    """Eigensystem of the discrete-series bands (d, s) at (k, M), read-only
    and shared, with no eigenvector solve: 2 (d, s) is the Laguerre Jacobi
    matrix at a = 2k - 1 in the gauge (-1)^n, so the eigenvector at mu is
    (-1)^n q_n(2 mu) scaled to unit length (Golub & Welsch, Math. Comp. 23
    (1969) 221): basis_matrix's rows at beta = 1/2, whose prefactor keeps
    large nodes finite and cancels in the scaling."""
    mu = eigh_tridiagonal(*_bands(k, M), eigvals_only=True)
    vecs = basis_matrix(BasisSpec(k=k, beta=0.5, M=M), 2.0 * mu)
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    vecs[1::2] *= -1.0
    mu.setflags(write=False)
    vecs.setflags(write=False)
    return mu, vecs


def unitary_flow(A: Tridiagonal, t: float, sign: int = 1) -> np.ndarray:
    """exp(i sign t A); unitary to round-off."""
    return A.eigensystem().flow(sign * t)


def relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs||_2 / ||rhs||_2: the spectral norm of blocks, the
    Euclidean norm of vectors; NaN unless both are finite and ||rhs|| > 0."""
    return _ratio(_norm2(lhs - rhs), _norm2(rhs))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else float("nan")


def _norm2(X: np.ndarray) -> float:
    """The Euclidean norm of a vector; for a block, the root of the top
    eigenvalue of its Gram matrix on the narrow side, by BLAS syrk/herk on
    X.T, the Fortran-ordered view (its Gram is the conjugate of X's); an
    empty block has norm 0 and never reaches BLAS."""
    if X.ndim == 1 or X.size == 0:
        return float(np.linalg.norm(X))
    rank_k = get_blas_funcs("herk" if np.iscomplexobj(X) else "syrk", (X,))
    gram = rank_k(1.0, X.T, trans=0 if X.shape[0] >= X.shape[1] else 2)
    top = (np.linalg.eigvalsh(gram, UPLO="U")[-1]
           if np.all(np.isfinite(gram)) else np.nan)
    return float(np.sqrt(max(top, 0.0)))

