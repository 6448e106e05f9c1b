"""The positive-frequency transform by an explicit outer product: an oracle
for FourierProfile that shares none of its arithmetic (no Horner sum, no
support slicing, the trapezoid rule over the whole x grid).  Each phase E x
is carried as an exact double-double product, so the oracle's own error
stays at round-off even where E x runs into the thousands."""

import numpy as np


def _split(a):
    """a = hi + lo with hi holding the upper 26 mantissa bits (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """a * b = p + e exactly, elementwise (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def fourier_positive_part(x, psi, E, chunk: int = 128) -> np.ndarray:
    """psi_plus_tilde(E) = i sqrt(E/pi) int psi(x) e^{iEx} dx (trapezoid in x).

    The global factor i fixes the phase freedom of the inversion so that
    profiles of real bumps satisfy the modular invariance exp(-pi D) psi =
    J psi; without it they come out with the opposite sign of J psi.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    E = np.asarray(E, dtype=float)
    w = np.ones_like(x)
    w[0] = w[-1] = 0.5
    wpsi = (x[1] - x[0]) * w * psi
    flat = E.ravel()
    res = np.empty(flat.shape, dtype=complex)
    for i in range(0, flat.size, chunk):
        p, e = _two_product(flat[i : i + chunk, None], x[None, :])
        # e^{i(p + e)} = e^{ip} (1 + ie) to far below round-off: |e| < 1e-12
        res[i : i + chunk] = (np.exp(1j * p) * (1.0 + 1j * e)) @ wpsi
    return 1j * np.sqrt(np.abs(E) / np.pi) * res.reshape(E.shape)
