"""Truncated Hermitian matrices for the sl(2,R) generator triples, the
modular objects, and the coordinate operators.

All operators are compressions P_M X P_M onto the first M basis vectors.
In the lowest-weight basis the generators are exactly tridiagonal, with the
standard discrete-series matrix elements, so the triples are written down in
closed form as bands (Tridiagonal), and every eigensystem of a
generator-derived matrix comes from the equivalent real symmetric
tridiagonal problem (Tridiagonal.eigh).

Identities that hold for the infinite-dimensional operators are corrupted
by truncation only near the boundary rows, so they are tested under an
interior projection (default fraction 0.8).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import SpectrumOutOfDomain
from .laguerre import BasisSpec

__all__ = [
    "Tridiagonal",
    "GeneratorSet",
    "HermitianOperator",
    "build_generators",
    "build_tilde_generators",
    "spectrum_function",
    "spectral_compose",
    "matrix_function",
    "build_T",
    "unitary_flow",
    "j_conjugate_matrix",
    "interior_block",
    "interior_residual",
]

INTERIOR_FRACTION = 0.8


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
        col = (slice(None),) + (None,) * (v.ndim - 1)
        e = self.upper[col]
        out = self.diag[col] * v.astype(np.result_type(e, v), copy=False)
        out[:-1] += e * v[1:]
        out[1:] += np.conj(e) * v[:-1]
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

    def expect(self, v) -> float:
        """Re <v, A v>."""
        return float(np.vdot(v, self @ v).real)

    def eigh(self, eigvals_only: bool = False, select: str = "a",
             select_range=None):
        """Eigensystem, with the arguments of scipy's eigh_tridiagonal.

        A real band is solved as it is.  For a complex band the diagonal
        gauge g_0 = 1, g_{n+1} = g_n conj(e_n)/|e_n| takes the upper band e
        to |e|, so eigh_tridiagonal solves the equivalent real symmetric
        problem; the eigenvectors of A are g times the real ones.
        """
        e = self.upper
        mag = np.abs(e) if np.iscomplexobj(e) else e
        out = eigh_tridiagonal(self.diag, mag, eigvals_only=eigvals_only,
                               select=select, select_range=select_range)
        if eigvals_only or mag is e:
            return out
        evals, vecs = out
        phase = np.where(mag > 0.0,
                         np.conj(e) / np.where(mag > 0.0, mag, 1.0), 1.0)
        gauge = np.concatenate(([1.0], np.cumprod(phase)))
        return evals, gauge[:, None] * vecs

    def __array__(self, dtype=None, copy=None):
        A = np.diag(self.diag.astype(self.upper.dtype))
        i = np.arange(self.upper.size)
        A[i, i + 1] = self.upper
        A[i + 1, i] = np.conj(self.upper)
        return A if dtype is None else A.astype(dtype, copy=False)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise ValueError("matrix is not Hermitian")


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

    The matrices are written in the companion basis (basis_eval family
    "Ztilde": argument 2 beta E^2, weight parameter k~ = k/2 + 1/4), the
    orthonormal eigenbasis of the triple's rotation generator.  Under the
    square-coordinate unitary u = E^2, psi -> sqrt(2E) psi(E^2), the triple
    maps onto the standard generator form with lowest weight k~ and scale
    2 beta, so its matrices there are exactly a plain build at (k~, 2 beta).
    In the plain basis the entries of the third operator diverge with the
    truncation; this basis is the one where all three are finite.
    """
    if g.variant != "plain":
        raise ValueError("tilde triple is built from the plain one")
    spec = g.spec
    built = build_generators(
        BasisSpec(k=spec.tilde_k, beta=2.0 * spec.beta, M=spec.M))
    return replace(built, spec=spec, variant="tilde")


def spectral_compose(vecs: np.ndarray, values: np.ndarray,
                     rows=slice(None), cols=slice(None)) -> np.ndarray:
    """The block [rows, cols] of V diag(values) V^* for eigenvectors V; a
    block costs only its own rows or columns."""
    return (vecs[rows] * values) @ vecs[cols].conj().T


_SPECTRAL_FUNCTIONS = {"sqrt", "inv_sqrt", "log", "exp_scaled", "power"}


def spectrum_function(evals: np.ndarray, f: str, param: float | None = None,
                      eps_factor: float = 1e-10) -> np.ndarray:
    """f applied to a Hermitian matrix's eigenvalues, with domain checks.

    For log and inv_sqrt the eigenvalues must exceed eps_factor times the
    largest one; anything below raises rather than being clamped, since a
    silent clamp would corrupt the bounds on the coordinate operator.
    """
    if f not in _SPECTRAL_FUNCTIONS:
        raise ValueError(f"unknown matrix function {f!r}")
    eps = eps_factor * max(evals.max(), 0.0)
    if f in ("sqrt", "log", "inv_sqrt") or (f == "power" and param is not None
                                            and not float(param).is_integer()):
        if evals.min() < -eps:
            raise SpectrumOutOfDomain(
                f"{f} needs a positive semidefinite matrix; min eigenvalue "
                f"{evals.min():.3e}"
            )
    if f in ("log", "inv_sqrt") or (f == "power" and param is not None and param < 0):
        if evals.min() <= eps:
            raise SpectrumOutOfDomain(
                f"{f} needs eigenvalues above the cut {eps:.3e}; got "
                f"{evals.min():.3e}"
            )
    if f == "sqrt":
        return np.sqrt(np.maximum(evals, 0.0))
    if f == "inv_sqrt":
        return evals ** -0.5
    if f == "log":
        return np.log(evals)
    if f == "exp_scaled":
        if param is None:
            raise ValueError("exp_scaled needs a scale parameter")
        return np.exp(param * evals)
    if param is None:
        raise ValueError("power needs an exponent")
    return evals ** float(param)


def matrix_function(A: Tridiagonal, f: str, param: float | None = None,
                    eps_factor: float = 1e-10) -> HermitianOperator:
    """Apply f to the eigenvalues of A, preserving eigenvectors; see
    spectrum_function for f and the domain checks."""
    evals, vecs = A.eigh()
    fe = spectrum_function(evals, f, param, eps_factor)
    return HermitianOperator(spectral_compose(vecs, fe).astype(complex))


def build_T(gt: GeneratorSet, log_M: int | None = None) -> HermitianOperator:
    """Modular coordinate T = (1/2) log(2 C~) from the tilde triple.

    The logarithm of the truncated 2 C~ is wrong near its last rows, and
    the error reaches into the rows a state occupies.  log_M > M takes the
    logarithm at truncation log_M and keeps its leading M x M block, which
    comes closer to the compression of the untruncated T as log_M grows.
    """
    if gt.variant != "tilde":
        raise ValueError("T is built from the tilde triple")
    return HermitianOperator(_T_from_bands(gt.spec.tilde_k, gt.spec.beta,
                                           gt.M, log_M))


def _T_from_bands(tilde_k: float, beta: float, M: int,
                  log_M: int | None = None) -> np.ndarray:
    """Leading M x M block of T = (1/2) log(2 C~) at truncation log_M; 2 C~
    is the plain C at (k~, 2 beta), read from its bands (4 beta times the
    discrete-series bands at k~) without forming any generator matrix."""
    log_M = M if log_M is None else log_M
    if log_M < M:
        raise ValueError(f"log_M {log_M} below the truncation {M}")
    d, s = _bands(tilde_k, log_M)
    scale = 4.0 * beta
    evals, vecs = Tridiagonal(scale * d, scale * s).eigh()
    block = slice(0, M)
    T = 0.5 * spectral_compose(vecs, spectrum_function(evals, "log"),
                               rows=block, cols=block)
    return T.astype(complex)


def unitary_flow(A: Tridiagonal, t: float, sign: int = 1) -> np.ndarray:
    """exp(i sign t A); unitary to round-off."""
    evals, vecs = A.eigh()
    return spectral_compose(vecs, np.exp(1j * sign * t * evals))


def j_conjugate_matrix(A: np.ndarray) -> np.ndarray:
    """Matrix of J A J for the modular conjugation J.

    The basis functions are real-valued, so J acts on spectral
    coefficients as componentwise complex conjugation.
    """
    return np.conj(A)


def interior_block(A: np.ndarray, fraction: float = INTERIOR_FRACTION) -> np.ndarray:
    """Compression onto the first ceil(fraction * M) basis vectors."""
    m = int(np.ceil(fraction * A.shape[0]))
    return A[:m, :m]


def interior_residual(lhs: np.ndarray, rhs: np.ndarray,
                      fraction: float = INTERIOR_FRACTION) -> float:
    """|| P (lhs - rhs) P ||_2 / || P rhs P ||_2 on the interior block."""
    diff = interior_block(lhs - rhs, fraction)
    ref = interior_block(rhs, fraction)
    return float(np.linalg.norm(diff, 2) / np.linalg.norm(ref, 2))

