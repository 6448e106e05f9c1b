"""Laguerre recurrences and quadrature against the scipy oracles."""

from dataclasses import replace

import numpy as np
import pytest
from quadrature_oracle import laguerre_eval, laguerre_rows_logscale, log_norm
from scipy.integrate import simpson
from scipy.special import eval_genlaguerre, gamma, gammaln, roots_genlaguerre

from modloc.laguerre import (
    BasisSpec,
    basis_matrix,
    gauss_laguerre,
    laguerre_log_abs,
)
from modloc.localization import _basis_energy_cap


def test_laguerre_eval_against_scipy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 30.0, 50)
    for n in (0, 1, 2, 7, 15):
        for alpha in (0.0, 0.5, 1.0, 2.5):
            ours = laguerre_eval(n, alpha, x)
            ref = eval_genlaguerre(n, alpha, x)
            assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)


def test_laguerre_log_abs_consistency():
    x = np.linspace(0.1, 50.0, 40)
    for n in (0, 3, 12):
        sign, logmag = laguerre_log_abs(n, 1.0, x)
        direct = laguerre_eval(n, 1.0, x)
        assert np.allclose(sign * np.exp(logmag), direct,
                           rtol=1e-10, atol=1e-12)


def test_quadrature_against_scipy_roots():
    for order, alpha in ((20, 0.0), (30, 0.5), (40, 1.0)):
        rule = gauss_laguerre(order, alpha)
        nodes, weights = roots_genlaguerre(order, alpha)
        assert np.allclose(rule.nodes, nodes, rtol=1e-12, atol=1e-12)
        assert np.allclose(rule.weights, weights, rtol=1e-9, atol=1e-280)


def test_quadrature_polynomial_exactness():
    order, alpha = 12, 1.5
    rule = gauss_laguerre(order, alpha)
    # exact for degree <= 2*order - 1: int x^j x^alpha e^-x = Gamma(alpha+j+1)
    for j in (0, 1, 5, 2 * order - 1):
        val = rule.weights @ rule.nodes ** j
        ref = gamma(alpha + j + 1.0)
        assert abs(val - ref) < 1e-10 * ref


def test_quadrature_large_order_finite():
    rule = gauss_laguerre(600, 1.0)
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(np.diff(rule.nodes) > 0)
    # total mass int x e^-x dx = 1
    assert abs(rule.weights @ np.ones(600) - 1.0) < 1e-9


def test_quadrature_validation():
    with pytest.raises(ValueError):
        gauss_laguerre(0)
    with pytest.raises(ValueError):
        gauss_laguerre(5, alpha=-1.5)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(k=0.4)
    with pytest.raises(ValueError):
        BasisSpec(k=1.0, beta=-1.0)
    with pytest.raises(ValueError):
        BasisSpec(k=float("inf"))
    with pytest.raises(ValueError):
        BasisSpec(k=1.0, beta=float("nan"))
    # sizes are integers and no field is a bool
    for bad in ({"M": 3.5}, {"M": True}, {"beta": float("inf")},
                {"k": True}, {"M": "8"}):
        with pytest.raises(ValueError):
            BasisSpec(**{"k": 1.0, **bad})
    spec = BasisSpec(k=1.0)
    assert spec.tilde_k == 0.75


def family_rows(spec, E, which, weights=None):
    """basis_matrix rows of the plain family, or of the squared-argument
    family through the map project_bumps applies, Ztilde_n(E) = sqrt(2E)
    Z_n^{(k~, beta)}(E^2), the weights taking the factor sqrt(2E)."""
    if which == "Z":
        return basis_matrix(spec, E, weights=weights)
    root = np.sqrt(2.0 * E)
    spec, E = replace(spec, k=spec.tilde_k), E * E
    if weights is None:
        return root * basis_matrix(spec, E)
    return basis_matrix(spec, E, weights=root[:, None] * weights)


@pytest.mark.parametrize("which", ["Z", "Ztilde"])
def test_basis_orthonormality(which):
    spec = BasisSpec(k=1.0, beta=1.0, M=12)
    E = np.linspace(1e-4, 60.0, 50001) if which == "Z" else np.linspace(
        1e-4, 9.0, 50001)
    B = family_rows(spec, E, which)
    G = simpson(B[:, None, :] * B[None, :, :], x=E, axis=2)
    assert np.max(np.abs(G - np.eye(12))) < 1e-6


def test_basis_matrix_matches_closed_form():
    # against the closed form with scipy's Laguerre polynomials, away from
    # k = beta = 1; row n is the same at every truncation past n
    spec = BasisSpec(k=1.5, beta=0.7, M=8)
    E = np.linspace(0.05, 10.0, 31)
    for which in ("Z", "Ztilde"):
        if which == "Z":
            x, k, pre = 2.0 * spec.beta * E, spec.k, 1.0
        else:
            x, k, pre = 2.0 * spec.beta * E * E, spec.tilde_k, np.sqrt(2.0)
        B = family_rows(spec, E, which)
        for n in (0, 3, 7):
            ref = (pre * np.sqrt(gamma(n + 1.0) / gamma(n + 2.0 * k))
                   * E ** -0.5 * x ** k * np.exp(-0.5 * x)
                   * eval_genlaguerre(n, 2.0 * k - 1.0, x))
            assert np.allclose(B[n], ref, rtol=1e-10, atol=1e-12)
            row = family_rows(replace(spec, M=n + 1), E, which)[n]
            assert np.allclose(row, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k,beta", [(1.0, 1.0), (1.5, 0.7)])
@pytest.mark.parametrize("M", [384, 1024])
@pytest.mark.parametrize("which", ["Z", "Ztilde"])
def test_basis_matrix_no_underflow_on_energy_cap(M, which, k, beta):
    # past x = 2 beta E ~ 1490 the factor e^{-x/2} underflows while its
    # product with the Laguerre row does not; the upper half of the energy
    # cap holds such nodes, against the log-scaled recurrence
    spec = BasisSpec(k=k, beta=beta, M=M)
    cap = _basis_energy_cap(spec, which)
    E = np.linspace(0.5 * cap, cap, 2000)
    if which == "Z":
        x, k = 2.0 * beta * E, spec.k
        extra = 0.0
    else:
        x, k = 2.0 * beta * E * E, spec.tilde_k
        extra = 0.5 * np.log(2.0)
    log_scale = extra + k * np.log(x) - 0.5 * np.log(E) - 0.5 * x
    ref = np.exp(log_norm(k, np.arange(M)))[:, None] * laguerre_rows_logscale(
        M, 2.0 * k - 1.0, x, log_scale)
    B = family_rows(spec, E, which)
    assert np.max(np.abs(B - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(B[-1] - ref[-1])) <= 1e-10 * np.max(np.abs(ref[-1]))
    assert family_rows(spec, E[-3:], which)[-1] == pytest.approx(
        ref[-1, -3:], rel=1e-10)


@pytest.mark.parametrize("k,beta", [(1.0, 1.0), (1.5, 0.7)])
@pytest.mark.parametrize("M", [1, 2, 384, 1024])
@pytest.mark.parametrize("which", ["Z", "Ztilde"])
def test_basis_matrix_weights_match_product(M, which, k, beta):
    # the projection inside the recurrence against the stored matrix; at
    # M = 1024 the mesh is the upper half of the energy cap, where nodes
    # pass x ~ 1490 and the renormalization refreshes the folded weights
    spec = BasisSpec(k=k, beta=beta, M=M)
    cap = _basis_energy_cap(spec, which)
    E = np.linspace(0.5 * cap if M == 1024 else 1e-3, cap, 3000)
    W = np.random.default_rng(M).standard_normal((E.size, 3))
    ref = family_rows(spec, E, which) @ W
    out = family_rows(spec, E, which, weights=W)
    assert out.shape == (M, 3)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("which", ["Z", "Ztilde"])
def test_blocked_sweep_matches_logscale_oracle_at_large_M(which):
    # the row blocks and their power-of-two renormalization at M = 4096,
    # from the origin to the energy cap, against the log-scaled recurrence
    spec = BasisSpec(k=1.0, beta=1.0, M=4096)
    cap = _basis_energy_cap(spec, which)
    E = np.geomspace(1e-3 * cap, cap, 400)
    if which == "Z":
        x, k, extra = 2.0 * E, spec.k, 0.0
    else:
        x, k, extra = 2.0 * E * E, spec.tilde_k, 0.5 * np.log(2.0)
    log_scale = extra + k * np.log(x) - 0.5 * np.log(E) - 0.5 * x
    rows = laguerre_rows_logscale(spec.M, 2.0 * k - 1.0, x, log_scale)
    ref = np.exp(log_norm(k, np.arange(spec.M)))[:, None] * rows
    B = family_rows(spec, E, which)
    assert np.max(np.abs(B - ref)) <= 1e-10 * np.max(np.abs(ref))


def _per_row_sweep(spec, E, weights=None):
    """The plain family by the orthonormal recurrence one row at a time,
    each row renormalized per node past 1e250 (the kernel before the row
    blocks), as a reference."""
    x = 2.0 * spec.beta * E
    a = 2.0 * spec.k - 1.0
    logfac = (-0.5 * gammaln(2.0 * spec.k) + spec.k * np.log(x)
              - 0.5 * np.log(E) - 0.5 * x)
    rows = [np.ones_like(x), (a + 1.0 - x) / np.sqrt(a + 1.0)]
    logs = [logfac.copy(), logfac.copy()]
    prev, cur = rows
    for n in range(1, spec.M - 1):
        prev, cur = cur, ((2 * n + a + 1.0 - x) * cur
                          - np.sqrt(n * (n + a)) * prev) / np.sqrt(
                              (n + 1) * (n + a + 1.0))
        big = np.abs(cur) > 1e250
        s = np.where(big, np.abs(cur), 1.0)
        prev, cur = prev / s, cur / s
        logfac = logfac + np.log(s)
        rows.append(cur)
        logs.append(logfac)
    B = np.array(rows[:spec.M]) * np.exp(np.array(logs[:spec.M]))
    return B if weights is None else B @ weights


def test_blocked_sweep_matches_per_row_kernel_to_huge_nodes():
    # nodes up to x = 1e12 shorten the blocks to 11 rows; every row stays
    # finite and matches the per-row kernel, with and without weights
    spec = BasisSpec(k=1.0, beta=0.5, M=64)
    E = np.geomspace(1e-3, 1e12, 300)
    W = np.random.default_rng(1).standard_normal((E.size, 2))
    for weights in (None, W):
        ref = _per_row_sweep(spec, E, weights)
        out = basis_matrix(spec, E, weights=weights)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_basis_matrix_weights_shape_checked():
    spec = BasisSpec(k=1.0, M=4)
    E = np.linspace(0.1, 5.0, 11)
    with pytest.raises(ValueError):
        basis_matrix(spec, E, weights=np.ones(11))
    with pytest.raises(ValueError):
        basis_matrix(spec, E, weights=np.ones((10, 2)))


def test_basis_matrix_validation():
    spec = BasisSpec(k=1.0, M=4)
    with pytest.raises(ValueError):
        basis_matrix(spec, np.array([-1.0]))
