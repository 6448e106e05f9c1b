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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import EigenFailure

__all__ = [
    "QuadratureRule",
    "BasisSpec",
    "laguerre_eval",
    "laguerre_eval_scaled",
    "laguerre_rows_logscale",
    "laguerre_log_abs",
    "gauss_laguerre",
    "basis_eval",
]


def laguerre_eval(n: int, alpha: float, x):
    """L_n^(alpha)(x) by the stable three-term recurrence; vectorized in x."""
    x = np.asarray(x, dtype=float)
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = alpha + 1.0 - x
    for m in range(1, n):
        prev, cur = cur, ((2 * m + alpha + 1.0 - x) * cur - (m + alpha) * prev) / (
            m + 1.0
        )
    return cur


def laguerre_eval_scaled(nmax: int, alpha: float, x, scale) -> np.ndarray:
    """All of scale(x) * L_n^(alpha)(x) for n = 0..nmax-1, shape (nmax, len(x)).

    The per-node scale factor rides through the linear recurrence, so the
    rows never overflow when scale absorbs the integration weight.
    """
    x = np.asarray(x, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), x.shape)
    out = np.empty((nmax, x.size), dtype=float)
    out[0] = scale
    if nmax > 1:
        out[1] = (alpha + 1.0 - x) * scale
    for m in range(1, nmax - 1):
        out[m + 1] = ((2 * m + alpha + 1.0 - x) * out[m] - (m + alpha) * out[m - 1]) / (
            m + 1.0
        )
    return out


def laguerre_rows_logscale(nmax: int, alpha: float, x, log_scale) -> np.ndarray:
    """All of exp(log_scale) * L_n^(alpha)(x) for n = 0..nmax-1.

    Like laguerre_eval_scaled, but the scale enters through its logarithm
    and the recurrence is renormalized per node, so rows stay finite even
    when exp(log_scale) underflows while the product does not (large-node
    quadrature weights against high-degree polynomials).
    """
    x = np.asarray(x, dtype=float)
    log_scale = np.broadcast_to(np.asarray(log_scale, dtype=float), x.shape)
    out = np.empty((nmax, x.size), dtype=float)

    def emit(vals, logoff):
        mag = np.abs(vals)
        with np.errstate(divide="ignore"):
            lm = np.where(mag == 0.0, -np.inf, np.log(mag))
        return np.sign(vals) * np.exp(lm + logoff + log_scale)

    prev = np.ones_like(x)
    logoff = np.zeros_like(x)
    out[0] = emit(prev, logoff)
    if nmax == 1:
        return out
    cur = alpha + 1.0 - x
    out[1] = emit(cur, logoff)
    for m in range(1, nmax - 1):
        prev, cur = cur, (
            (2 * m + alpha + 1.0 - x) * cur - (m + alpha) * prev
        ) / (m + 1.0)
        big = np.abs(cur) > 1e250
        if np.any(big):
            s = np.where(big, np.abs(cur), 1.0)
            prev = prev / s
            cur = cur / s
            logoff = logoff + np.log(s)
        out[m + 1] = emit(cur, logoff)
    return out


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
    def full_group(self) -> bool:
        """True when k >= 1, the range covered by the main theorems."""
        return self.k >= 1.0

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
    sqrt(2) prefactor).  Gamma ratios are handled in log space.
    """
    if not 0 <= n < spec.M:
        raise ValueError(f"basis index {n} outside 0..{spec.M - 1}")
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0):
        raise ValueError("E must be positive")
    if which == "Z":
        arg = 2.0 * spec.beta * E
        extra = 0.0
        k = spec.k
        log_norm = spec.log_norm(n)
    elif which == "Ztilde":
        arg = 2.0 * spec.beta * E * E
        extra = 0.5 * np.log(2.0)
        k = spec.tilde_k
        log_norm = spec.tilde_log_norm(n)
    else:
        raise ValueError(f"unknown family {which!r}")
    logpref = log_norm + extra + k * np.log(arg) - 0.5 * arg - 0.5 * np.log(E)
    lag = laguerre_eval_scaled(n + 1, 2 * k - 1.0, arg, np.exp(-0.5 * arg))[n]
    sign = np.sign(lag)
    with np.errstate(divide="ignore"):
        logmag = np.where(lag == 0.0, -np.inf, np.log(np.abs(lag)) + 0.5 * arg)
    out = sign * np.exp(logpref + logmag)
    return out


def basis_matrix(spec: BasisSpec, E, which: str = "Z") -> np.ndarray:
    """All basis functions at once: shape (M, len(E)).

    Shares one scaled recurrence across the whole family, so projecting a
    state onto M = 256 basis functions costs a single O(M len(E)) sweep.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0):
        raise ValueError("E must be positive")
    if which == "Z":
        arg = 2.0 * spec.beta * E
        extra = 0.0
        k = spec.k
        c = np.exp(spec.log_norm(np.arange(spec.M)))
    elif which == "Ztilde":
        arg = 2.0 * spec.beta * E * E
        extra = 0.5 * np.log(2.0)
        k = spec.tilde_k
        c = np.exp(spec.tilde_log_norm(np.arange(spec.M)))
    else:
        raise ValueError(f"unknown family {which!r}")
    pref = np.exp(extra + k * np.log(arg) - 0.5 * np.log(E))
    rows = laguerre_eval_scaled(spec.M, 2 * k - 1.0, arg, np.exp(-0.5 * arg))
    # scaled in place: no M x len(E) temporary next to the rows
    rows *= c[:, None]
    rows *= pref[None, :]
    return rows
