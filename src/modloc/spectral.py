"""Truncated Hermitian matrices for the sl(2,R) generator triples, the
modular objects, and the coordinate operators.

All operators are compressions P_M X P_M onto the first M basis vectors.
In the lowest-weight basis the generators are exactly tridiagonal, with the
standard discrete-series matrix elements, so the triples are written down in
closed form and every eigensystem of a generator-derived matrix comes from
the equivalent real symmetric tridiagonal problem (tridiagonal_eigh).

Identities that hold for the infinite-dimensional operators are corrupted
by truncation only near the boundary rows, so they are tested under an
interior projection (default fraction 0.8).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import OverflowAbort, SpectrumOutOfDomain
from .laguerre import BasisSpec

__all__ = [
    "GeneratorSet",
    "HermitianOperator",
    "build_generators",
    "build_tilde_generators",
    "tridiagonal_eigh",
    "spectrum_function",
    "spectral_compose",
    "matrix_function",
    "build_T",
    "build_Th_Tc",
    "unitary_flow",
    "conjugation_J",
    "j_conjugate_matrix",
    "translate_generators",
    "interior_block",
    "interior_residual",
    "rotation_generator",
    "half_modular_power_apply",
]

INTERIOR_FRACTION = 0.8


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian complex matrix tagged with the basis it lives in."""

    matrix: np.ndarray
    basis: str = "Z"

    def __post_init__(self):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise ValueError("matrix is not Hermitian")


@dataclass(frozen=True)
class GeneratorSet:
    """Hermitian matrices for one sl(2,R) triple (H, D, C) in the Z basis.

    variant is "plain" for the triple built from (A.1)-type generators,
    "tilde" for the squared-Hamiltonian triple.
    """

    H: np.ndarray
    D: np.ndarray
    C: np.ndarray
    spec: BasisSpec
    variant: str = "plain"

    @property
    def M(self) -> int:
        return self.H.shape[0]

    def rotation(self) -> np.ndarray:
        """Generator of rotations (H + C)/2."""
        return 0.5 * (self.H + self.C)


def _hermitian_tridiagonal(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense complex matrix with the given diagonal and upper band, and the
    conjugate upper band below the diagonal."""
    A = np.diag(diag.astype(complex))
    i = np.arange(upper.size)
    A[i, i + 1] = upper
    A[i + 1, i] = np.conj(upper)
    return A


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
    k, beta, M = spec.k, spec.beta, spec.M
    n = np.arange(M, dtype=float)
    d = n + k
    s = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0 * k))
    return GeneratorSet(H=_hermitian_tridiagonal(d / beta, -s / beta),
                        D=_hermitian_tridiagonal(np.zeros(M), 1j * s),
                        C=_hermitian_tridiagonal(beta * d, beta * s),
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


def tridiagonal_eigh(A: np.ndarray, eigvals_only: bool = False,
                     select: str = "a", select_range=None):
    """Eigensystem of a Hermitian tridiagonal matrix, read from its bands.

    The diagonal gauge g_0 = 1, g_{n+1} = g_n conj(e_n)/|e_n| takes the
    upper band e to |e|, so eigh_tridiagonal (whose arguments follow A)
    solves the equivalent real symmetric problem; the eigenvectors of A are
    g times the real ones.  Raises ValueError if A has an entry outside the
    three bands or non-Hermitian bands; there is no dense fallback.
    """
    d = np.diagonal(A)
    e = np.diagonal(A, 1)
    if (np.any(d.imag) or np.any(np.diagonal(A, -1) != np.conj(e))
            or np.count_nonzero(A) > np.count_nonzero(d)
            + 2 * np.count_nonzero(e)):
        raise ValueError("matrix is not Hermitian tridiagonal")
    mag = np.abs(e)
    out = eigh_tridiagonal(d.real, mag, eigvals_only=eigvals_only,
                           select=select, select_range=select_range)
    if eigvals_only:
        return out
    evals, vecs = out
    phase = np.where(mag > 0.0, np.conj(e) / np.where(mag > 0.0, mag, 1.0),
                     1.0)
    gauge = np.concatenate(([1.0], np.cumprod(phase)))
    if not np.any(gauge.imag):
        gauge = gauge.real
    return evals, gauge[:, None] * vecs


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


def matrix_function(A: HermitianOperator, f: str, param: float | None = None,
                    eps_factor: float = 1e-10) -> HermitianOperator:
    """Apply f to the eigenvalues of the tridiagonal A, preserving
    eigenvectors; see spectrum_function for f and the domain checks."""
    evals, vecs = tridiagonal_eigh(A.matrix)
    fe = spectrum_function(evals, f, param, eps_factor)
    return HermitianOperator(spectral_compose(vecs, fe).astype(complex),
                             A.basis)


def build_T(gt: GeneratorSet) -> HermitianOperator:
    """Modular coordinate T = (1/2) log(2 C~) from the tilde triple."""
    if gt.variant != "tilde":
        raise ValueError("T is built from the tilde triple")
    logC = matrix_function(HermitianOperator(2.0 * gt.C, "tilde"), "log")
    return HermitianOperator(0.5 * logC.matrix, "Z")


def build_Th_Tc(g: GeneratorSet):
    """The two logarithmic coordinates T_h = log H and T_c = log C."""
    if g.variant != "plain":
        raise ValueError("T_h, T_c are built from the plain triple")
    Th = matrix_function(HermitianOperator(g.H, "Z"), "log")
    Tc = matrix_function(HermitianOperator(g.C, "Z"), "log")
    return Th, Tc


def unitary_flow(A: HermitianOperator, t: float, sign: int = 1) -> np.ndarray:
    """exp(i sign t A) for tridiagonal A; unitary to round-off."""
    evals, vecs = tridiagonal_eigh(A.matrix)
    return spectral_compose(vecs, np.exp(1j * sign * t * evals))


def conjugation_J(v: np.ndarray) -> np.ndarray:
    """Modular conjugation on spectral coefficients: componentwise conjugate.

    The basis functions are real-valued, so J acts as plain complex
    conjugation of the coefficient vector.
    """
    return np.conj(v)


def j_conjugate_matrix(A: np.ndarray) -> np.ndarray:
    """Matrix of J A J for antiunitary J = componentwise conjugation."""
    return np.conj(A)


def translate_generators(g: GeneratorSet, a: float) -> GeneratorSet:
    """Closed-form conjugation by exp(-i a H): (H, D + aH, C + 2aD + a^2 H).

    With [H, D] = iH and [H, C] = 2iD the flow of exp(-i a H) adds aH to D
    and 2aD + a^2 H to C; the positive sign of a pairs with the negative
    flow direction.
    """
    if g.variant != "plain":
        raise ValueError("translation conjugation applies to the plain triple")
    return GeneratorSet(
        H=g.H.copy(),
        D=g.D + a * g.H,
        C=g.C + 2.0 * a * g.D + a * a * g.H,
        spec=g.spec,
        variant="plain",
    )


def rotation_generator(g: GeneratorSet) -> HermitianOperator:
    return HermitianOperator(g.rotation(), g.variant)


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


def half_modular_power_apply(D: np.ndarray, v: np.ndarray,
                             guard: float = 1e12) -> np.ndarray:
    """Apply exp(-pi D) (the truncated Delta^{1/2}) to a coefficient vector.

    Works in log space component-by-component in the eigenbasis of D; if the
    reconstructed norm would exceed the guard, the truncation artifact
    dominates and OverflowAbort is raised (the caller reports inconclusive).
    """
    evals, vecs = tridiagonal_eigh(D)
    a = vecs.conj().T @ v
    mag = np.abs(a)
    with np.errstate(divide="ignore"):
        logmag = np.where(mag == 0.0, -np.inf, np.log(mag)) - np.pi * evals
    peak = np.max(logmag)
    ref = max(float(np.linalg.norm(v)), 1e-300)
    if peak > np.log(guard * ref):
        raise OverflowAbort(
            f"exp(-pi D) amplifies components to e^{peak:.1f}; truncated "
            "half-modular power is unreliable here"
        )
    scaled = np.where(np.isfinite(logmag), np.exp(logmag), 0.0)
    phases = np.where(mag == 0.0, 0.0, a / np.where(mag == 0.0, 1.0, mag))
    return vecs @ (scaled * phases)
