"""Generalized Laguerre polynomials, Gauss-Laguerre quadrature, and the
lowest-weight basis functions on L2(R+, dE).

The basis attached to a lowest weight k >= 1/2 and scale beta > 0 is

    Z_n(E) = sqrt(Gamma(n+1)/Gamma(n+2k)) E^{-1/2} (2 beta E)^k
             e^{-beta E} L_n^{(2k-1)}(2 beta E),        n = 0 .. M-1,

orthonormal under int_0^oo . dE.  The rotation eigenbasis of the
squared-coordinate generator triple is this family at lowest weight
k/2 + 1/4 under the map u = E^2, psi -> sqrt(2E) psi(E^2)
(localization.project_bumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import get_blas_funcs

from .errors import EigenFailure, check_numbers

__all__ = [
    "QuadratureRule",
    "BasisSpec",
    "laguerre_log_abs",
    "gauss_laguerre",
    "basis_matrix",
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
        math.lgamma(order + alpha + 1.0)
        - math.lgamma(order + 1.0)
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
        check_numbers(self, ("k", "beta"), ("M",))
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


# rows come out in blocks of at most _BLOCK_ROWS, one GEMM (or one product
# with the prefactor) each, and a block's starting pair is renormalized
# wherever it passed _RESCALE; a block and its pair, 14 rows (1.5 MB at the
# 13,392 nodes of the corner interval [0.5, 0.75]), stay below the peak
# memory of the rest of a localization pass, where 18 rows raised it
_BLOCK_ROWS = 12
_RESCALE = 2.0 ** 512


def _block_rows(x_max: float, a: float, M: int) -> int:
    """Rows per block such that no row of any node x <= x_max overflows.

    In the block's own monic scale the recurrence step from row n grows the
    pair's bound by at most max(b_n, x) + c_n <= x + 2 b_n with b_n = 2n + a
    + 1 (|q_{n+1}| d_n <= (|b_n - x| + c_n) max(|q_n|, |q_{n-1}|) for the
    orthonormal rows, Szego 1939 Sec. 5.1), and the pair starts below
    _RESCALE up to one factor d_{n-1} <= b_n; so g^(L+1) <= 2^511, g = x_max
    + 2 b_M, keeps every block below 2^1023.  A single row per block copes
    with g up to 2^255, about 6e76.
    """
    bits = np.log2(x_max + 2.0 * (2 * M + a + 1.0))
    return int(min(_BLOCK_ROWS, max(1, 511 // bits - 1)))


def basis_matrix(spec: BasisSpec, E, weights=None) -> np.ndarray:
    """All basis functions at once: shape (M, len(E)).

    The orthonormal rows q_n = sqrt(n!/Gamma(n+2k)) L_n^(a)(x), a = 2k - 1,
    obey q_{n+1} d_n = (b_n - x) q_n - c_n q_{n-1} with b_n = 2n + a + 1,
    c_n = sqrt(n (n+a)) and d_n = c_{n+1}.  The sweep runs the monic form
    p_{n+1} = (b_n - x) p_n - c_n^2 p_{n-1} over all nodes, three array
    calls a row (the last a BLAS axpy), in blocks of up to 12 rows: inside a
    block p_n = q_n d_{n0} .. d_{n-1} for the block's first row n0, so each
    row's normalization is one scalar of the block, and the pair that
    starts the next block returns to the orthonormal scale.  The prefactor
    E^{-1/2} x^k e^{-x/2} / sqrt(Gamma(2k)) stays a per-node log offset: it
    underflows once x passes about 1490 while its product with the grown
    q_n does not, so a node's pair is scaled by an exact power of two at a
    block start once it passes 2^512, and the offset takes up the exponent.
    The block length follows from the largest node (_block_rows), so no row
    overflows for any node up to about x = 6e76.

    A block is emitted at once: its rows times the prefactor, or with
    weights of shape (len(E), r) the projection basis_matrix(spec, E) @
    weights, shape (M, r), as one GEMM of the block against the weights
    with the prefactor folded in; no row is stored then.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0):
        raise ValueError("E must be positive")
    x = 2.0 * spec.beta * E
    a = 2.0 * spec.k - 1.0
    logfac = (-0.5 * math.lgamma(2.0 * spec.k) + spec.k * np.log(x)
              - 0.5 * np.log(E) - 0.5 * x)
    fac = np.exp(logfac)
    M = spec.M
    if weights is None:
        out = np.empty((M, E.size))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != E.size:
            raise ValueError(
                f"weights must have shape ({E.size}, r), got {weights.shape}")
        G = fac[:, None] * weights
        out = np.empty((M, weights.shape[1]))
    L = _block_rows(float(x.max()) if x.size else 0.0, a, M)
    blocks = -(-M // L)
    n = np.arange(blocks * L, dtype=float)
    b = (2.0 * n + a + 1.0).tolist()
    c2 = (n * (n + a)).tolist()
    # row n0 + j of the block from n0 = i L is q_{n0+j} times norms[i, j]
    norms = np.ones((blocks, L + 1))
    norms[:, 1:] = np.sqrt((n + 1.0) * (n + a + 1.0)).reshape(blocks, L)
    np.cumprod(norms, axis=1, out=norms)
    # Q[0], Q[1] hold rows n0 - 1 (over d_{n0-1}) and n0; rows n0 + 1 ..
    # n0 + L follow, the last of them starting the next block
    Q = np.empty((L + 2, E.size))
    Q[0] = 0.0
    Q[1] = 1.0
    views = list(Q)
    axpy = get_blas_funcs("axpy", (Q,))
    for n0, norm in zip(range(0, M, L), norms):
        rows = min(L, M - n0)
        for j in range(1, rows + 1):
            nxt = views[j + 1]
            np.subtract(b[n0 + j - 1], x, out=nxt)
            nxt *= views[j]
            axpy(views[j - 1], nxt, a=-c2[n0 + j - 1])
        block = out[n0:n0 + rows]
        if weights is None:
            np.multiply(Q[1:rows + 1], fac, out=block)
        else:
            np.matmul(Q[1:rows + 1], G, out=block)
        block /= norm[:rows, None]
        np.divide(Q[rows:rows + 2], norm[rows], out=Q[:2])
        if np.abs(Q[:2]).max(initial=0.0) > _RESCALE:
            big = np.flatnonzero(np.abs(Q[:2]).max(axis=0) > _RESCALE)
            e = np.frexp(np.abs(Q[:2, big]).max(axis=0))[1]
            Q[:2, big] = np.ldexp(Q[:2, big], -e)
            logfac[big] += e * np.log(2.0)
            fac[big] = np.exp(logfac[big])
            if weights is not None:
                G[big] = fac[big, None] * weights[big]
    return out
