"""The generator triple by exact Gauss-Laguerre quadrature: an oracle for
the closed form that shares none of its arithmetic.  In x = 2 beta E with
weight exponent 2k-1 every integrand is weight times a polynomial of degree
<= 2M, so the rule is exact up to round-off.  The plain and log-scaled
Laguerre recurrences it rests on, and the basis prefactors, live here too:
nothing in modloc needs them."""

import numpy as np
from scipy.special import gammaln

from modloc.laguerre import BasisSpec, gauss_laguerre


def log_norm(k: float, n) -> np.ndarray:
    """log of the basis prefactor sqrt(Gamma(n+1)/Gamma(n+2k)) at lowest
    weight k (spec.tilde_k for the companion family)."""
    n = np.asarray(n, dtype=float)
    return 0.5 * (gammaln(n + 1.0) - gammaln(n + 2.0 * k))


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


def laguerre_rows_logscale(nmax: int, alpha: float, x, log_scale) -> np.ndarray:
    """All of exp(log_scale) * L_n^(alpha)(x) for n = 0..nmax-1.

    The scale enters through its logarithm and the recurrence is
    renormalized per node, so rows stay finite even when exp(log_scale)
    underflows while the product does not (large-node quadrature weights
    against high-degree polynomials).
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


def weighted_rows(spec: BasisSpec, rule):
    """sqrt(weight)-scaled rows of p_n = L_n^(a), a = 2k-1, and its first two
    derivatives -L_{n-1}^(a+1), L_{n-2}^(a+2) on the quadrature nodes.  The
    half log-weight rides through the recurrences in log space, so the rows
    stay finite when the weight alone underflows."""
    M = spec.M
    x = rule.nodes
    lw2 = 0.5 * rule.log_weights
    a = 2.0 * spec.k - 1.0
    c = np.exp(log_norm(spec.k, np.arange(M)))
    B = c[:, None] * laguerre_rows_logscale(M, a, x, lw2)
    B1 = np.zeros_like(B)
    if M > 1:
        B1[1:] = -c[1:, None] * laguerre_rows_logscale(M - 1, a + 1.0, x, lw2)
    B2 = np.zeros_like(B)
    if M > 2:
        B2[2:] = c[2:, None] * laguerre_rows_logscale(M - 2, a + 2.0, x, lw2)
    return B, B1, B2


def quadrature_generators(spec: BasisSpec):
    """(H, D, C) for the plain triple at spec, Hermitian-averaged.  The
    inverse-coordinate potential (k^2 - k)/E cancels exactly against the
    k(k-1) term of the expanded kinetic part, leaving polynomial integrands."""
    k, beta = spec.k, spec.beta
    rule = gauss_laguerre(int(np.ceil(2 * spec.M + 2 * k + 4)), 2 * k - 1.0)
    x = rule.nodes
    B, B1, B2 = weighted_rows(spec, rule)

    S = B @ B.T
    H = (B * x) @ B.T / (2.0 * beta)
    # D = -i (E d/dE + 1/2):  E dZ_n/dE -> (k-1/2) p_n + x p_n' - (x/2) p_n
    Q = (k - 0.5) * B + x * B1 - 0.5 * x * B
    K = B @ Q.T + 0.5 * S
    # C Z_n -> 2 beta x [k p_n - 2k p_n' - x (p_n/4 - p_n' + p_n'')]
    T = k * B - 2.0 * k * B1 - x * (0.25 * B - B1 + B2)
    C = 2.0 * beta * (B @ T.T)
    D = -1j * K
    return tuple(0.5 * (A + A.conj().T) for A in (H + 0j, D, C + 0j))
