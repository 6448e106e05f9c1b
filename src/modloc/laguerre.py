"""Generalized Laguerre polynomials, Gauss-Laguerre quadrature, and the
lowest-weight basis functions on L2(R+, dE).

The basis attached to a lowest weight k >= 1/2 and scale beta > 0 is

    Z_n(E) = sqrt(Gamma(n+1)/Gamma(n+2k)) E^{-1/2} (2 beta E)^k
             e^{-beta E} L_n^{(2k-1)}(2 beta E),        n = 0 .. M-1,

orthonormal under int_0^oo . dE, together with its companion family on the
squared coordinate (argument 2 beta E^2, extra sqrt(2) prefactor, weight
parameter k/2 + 1/4): the orthonormal rotation eigenbasis of the
squared-coordinate generator triple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import EigenFailure

__all__ = [
    "QuadratureRule",
    "BasisSpec",
    "laguerre_log_abs",
    "gauss_laguerre",
    "basis_eval",
]


def laguerre_log_abs(n: int, alpha: float, x):
    """(sign, log|L_n^(alpha)(x)|) by a renormalized recurrence.

    The running pair is rescaled per node whenever it grows past 1e250,
    with the accumulated log offset carried separately, so the result is
    finite for any node magnitude.
    """
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    cur = alpha + 1.0 - x
    logoff = np.zeros_like(x)
    if n == 0:
        cur = prev.copy()
    else:
        for m in range(1, n):
            prev, cur = cur, (
                (2 * m + alpha + 1.0 - x) * cur - (m + alpha) * prev
            ) / (m + 1.0)
            big = np.abs(cur) > 1e250
            if np.any(big):
                s = np.where(big, np.abs(cur), 1.0)
                prev = prev / s
                cur = cur / s
                logoff = logoff + np.log(s)
    sign = np.sign(cur)
    with np.errstate(divide="ignore"):
        logmag = np.where(cur == 0.0, -np.inf, np.log(np.abs(cur))) + logoff
    return sign, logmag


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight x^alpha e^{-x} on (0, oo).

    log_weights carries the weights without underflow.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    order: int
    alpha: float

    def integrate(self, values) -> float:
        """Integral of f(x) x^alpha e^{-x} dx given f sampled on the nodes."""
        return float(np.dot(self.weights, values))


def gauss_laguerre(order: int, alpha: float = 0.0) -> QuadratureRule:
    """Gauss rule for x^alpha e^{-x}: Golub-Welsch nodes, log-space weights.

    The symmetric Jacobi matrix of the L^(alpha) family (diagonal
    2i + alpha + 1, off-diagonal sqrt(i (i + alpha))) gives the nodes, which
    two Newton steps with d/dx L_n = -L_{n-1}^{(alpha+1)} polish to full
    precision.  The eigenvector-based weights lose all accuracy at large
    nodes (first components sit at the round-off floor before squaring), so
    the weights come instead from the derivative formula

        w_i = Gamma(n+alpha+1) x_i / (n! (n+1)^2 L_{n+1}^{(alpha)}(x_i)^2),

    evaluated in log space with e^{-x/2}-scaled recurrences.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    i = np.arange(order, dtype=float)
    diag = 2 * i + alpha + 1.0
    off = np.sqrt((i[1:]) * (i[1:] + alpha))
    try:
        nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenFailure(f"tridiagonal eigensolve failed at order {order}") from exc
    for _ in range(2):
        s_n, lm_n = laguerre_log_abs(order, alpha, nodes)
        s_d, lm_d = laguerre_log_abs(order - 1, alpha + 1.0, nodes)
        # L_n' = -L_{n-1}^{(alpha+1)}; the shared growth cancels in the ratio
        with np.errstate(invalid="ignore"):
            step = np.where(
                np.isfinite(lm_n), -s_n * s_d * np.exp(lm_n - lm_d), 0.0
            )
        nodes = nodes - step
    _, lm = laguerre_log_abs(order + 1, alpha, nodes)
    log_weights = (
        gammaln(order + alpha + 1.0)
        - gammaln(order + 1.0)
        - 2.0 * np.log(order + 1.0)
        + np.log(nodes)
        - 2.0 * lm
    )
    return QuadratureRule(
        nodes=nodes,
        weights=np.exp(log_weights),
        log_weights=log_weights,
        order=order,
        alpha=alpha,
    )


@dataclass(frozen=True)
class BasisSpec:
    """Parameters (k, beta, M) fixing a truncated lowest-weight basis."""

    k: float
    beta: float = 1.0
    M: int = 256

    def __post_init__(self):
        if not (np.isfinite(self.k) and np.isfinite(self.beta)):
            raise ValueError(
                f"k and beta must be finite, got k={self.k}, beta={self.beta}")
        if self.k < 0.5:
            raise ValueError(f"lowest weight k must be >= 1/2, got {self.k}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")

    @property
    def tilde_k(self) -> float:
        """Lowest weight k/2 + 1/4 of the squared-coordinate companion triple."""
        return 0.5 * self.k + 0.25

    def log_norm(self, n) -> np.ndarray:
        """log of the Gamma-ratio prefactor sqrt(Gamma(n+1)/Gamma(n+2k))."""
        n = np.asarray(n, dtype=float)
        return 0.5 * (gammaln(n + 1.0) - gammaln(n + 2.0 * self.k))

    def tilde_log_norm(self, n) -> np.ndarray:
        """Same prefactor with the companion weight k/2 + 1/4."""
        n = np.asarray(n, dtype=float)
        return 0.5 * (gammaln(n + 1.0) - gammaln(n + 2.0 * self.tilde_k))


def basis_eval(spec: BasisSpec, n: int, E, which: str = "Z") -> np.ndarray:
    """Pointwise value of the n-th basis function (m = n + k) at E > 0.

    which = "Z" evaluates the plain family (argument 2 beta E); "Ztilde"
    evaluates the squared-coordinate family (argument 2 beta E^2, extra
    sqrt(2) prefactor).  It is the last row of basis_matrix at truncation
    n + 1.
    """
    if not 0 <= n < spec.M:
        raise ValueError(f"basis index {n} outside 0..{spec.M - 1}")
    return basis_matrix(replace(spec, M=n + 1), E, which=which)[n]


# rows are renormalized past this magnitude; one recurrence step grows a
# row by a factor of order x / n, far inside the 1e58 of headroom left
_RESCALE = 1e250


def basis_matrix(spec: BasisSpec, E, which: str = "Z",
                 weights=None) -> np.ndarray:
    """All basis functions at once: shape (M, len(E)).

    One sweep of the orthonormal recurrence
        q_{n+1} = ((2n + a + 1 - x) q_n - sqrt(n (n+a)) q_{n-1})
                  / sqrt((n+1)(n+a+1)),   a = 2k - 1,
    for q_n = sqrt(n!/Gamma(n+2k)) L_n^(a)(x) runs over all nodes.  The
    prefactor E^{-1/2} x^k e^{-x/2} / sqrt(Gamma(2k)) stays a per-node log
    offset: it underflows once x passes about 1490 while the product with
    the grown q_n does not, so a node's recurrence pair is renormalized
    whenever it passes 1e250 and the offset takes up the scale.

    With weights of shape (len(E), r) the same sweep returns the projection
    basis_matrix(spec, E, which) @ weights, shape (M, r), without storing a
    row: the prefactor is folded into the weights, G = fac[:, None] *
    weights, and row n is q_n @ G.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0):
        raise ValueError("E must be positive")
    if which == "Z":
        x = 2.0 * spec.beta * E
        extra = 0.0
        k = spec.k
    elif which == "Ztilde":
        x = 2.0 * spec.beta * E * E
        extra = 0.5 * np.log(2.0)
        k = spec.tilde_k
    else:
        raise ValueError(f"unknown family {which!r}")
    a = 2.0 * k - 1.0
    logfac = (extra - 0.5 * gammaln(2.0 * k) + k * np.log(x)
              - 0.5 * np.log(E) - 0.5 * x)
    fac = np.exp(logfac)
    if weights is None:
        out = np.empty((spec.M, E.size))

        def emit(n, q):
            np.multiply(q, fac, out=out[n])
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != E.size:
            raise ValueError(
                f"weights must have shape ({E.size}, r), got {weights.shape}")
        G = fac[:, None] * weights
        out = np.empty((spec.M, weights.shape[1]))

        def emit(n, q):
            np.matmul(q, G, out=out[n])
    prev = np.ones_like(x)
    emit(0, prev)
    if spec.M == 1:
        return out
    cur = (a + 1.0 - x) / np.sqrt(a + 1.0)
    emit(1, cur)
    nxt = np.empty_like(x)
    for n in range(1, spec.M - 1):
        np.subtract(2 * n + a + 1.0, x, out=nxt)
        nxt *= cur
        prev *= np.sqrt(n * (n + a))
        nxt -= prev
        nxt *= 1.0 / np.sqrt((n + 1) * (n + a + 1.0))
        prev, cur, nxt = cur, nxt, prev
        if cur.max() > _RESCALE or cur.min() < -_RESCALE:
            big = np.flatnonzero(np.abs(cur) > _RESCALE)
            s = np.abs(cur[big])
            cur[big] /= s
            prev[big] /= s
            logfac[big] += np.log(s)
            fac[big] = np.exp(logfac[big])
            if weights is not None:
                G[big] = fac[big, None] * weights[big]
        emit(n + 1, cur)
    return out
