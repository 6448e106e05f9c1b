"""Laguerre recurrences and quadrature against the scipy oracles."""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import eval_genlaguerre, gamma, roots_genlaguerre

from modloc.laguerre import (
    BasisSpec,
    basis_eval,
    basis_matrix,
    gauss_laguerre,
    laguerre_eval,
    laguerre_log_abs,
    laguerre_rows_logscale,
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
        val = rule.integrate(rule.nodes ** j)
        ref = gamma(alpha + j + 1.0)
        assert abs(val - ref) < 1e-10 * ref


def test_quadrature_large_order_finite():
    rule = gauss_laguerre(600, 1.0)
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(np.diff(rule.nodes) > 0)
    # total mass int x e^-x dx = 1
    assert abs(rule.integrate(np.ones(600)) - 1.0) < 1e-9


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
    spec = BasisSpec(k=1.0)
    assert spec.tilde_k == 0.75
    assert spec.full_group
    assert not BasisSpec(k=0.6).full_group


@pytest.mark.parametrize("which", ["Z", "Ztilde"])
def test_basis_orthonormality(which):
    spec = BasisSpec(k=1.0, beta=1.0, M=12)
    E = np.linspace(1e-4, 60.0, 50001) if which == "Z" else np.linspace(
        1e-4, 9.0, 50001)
    B = basis_matrix(spec, E, which=which)
    G = simpson(B[:, None, :] * B[None, :, :], x=E, axis=2)
    assert np.max(np.abs(G - np.eye(12))) < 1e-6


def test_basis_matrix_matches_basis_eval():
    # against the closed form with scipy's Laguerre polynomials, away from
    # k = beta = 1
    spec = BasisSpec(k=1.5, beta=0.7, M=8)
    E = np.linspace(0.05, 10.0, 31)
    for which in ("Z", "Ztilde"):
        if which == "Z":
            x, k, pre = 2.0 * spec.beta * E, spec.k, 1.0
        else:
            x, k, pre = 2.0 * spec.beta * E * E, spec.tilde_k, np.sqrt(2.0)
        B = basis_matrix(spec, E, which=which)
        for n in (0, 3, 7):
            ref = (pre * np.sqrt(gamma(n + 1.0) / gamma(n + 2.0 * k))
                   * E ** -0.5 * x ** k * np.exp(-0.5 * x)
                   * eval_genlaguerre(n, 2.0 * k - 1.0, x))
            assert np.allclose(B[n], ref, rtol=1e-10, atol=1e-12)
            assert np.allclose(basis_eval(spec, n, E, which=which), ref,
                               rtol=1e-10, atol=1e-12)


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
        x, k, log_norm = 2.0 * beta * E, spec.k, spec.log_norm
        extra = 0.0
    else:
        x, k = 2.0 * beta * E * E, spec.tilde_k
        log_norm = spec.tilde_log_norm
        extra = 0.5 * np.log(2.0)
    log_scale = extra + k * np.log(x) - 0.5 * np.log(E) - 0.5 * x
    ref = np.exp(log_norm(np.arange(M)))[:, None] * laguerre_rows_logscale(
        M, 2.0 * k - 1.0, x, log_scale)
    B = basis_matrix(spec, E, which=which)
    assert np.max(np.abs(B - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(B[-1] - ref[-1])) <= 1e-10 * np.max(np.abs(ref[-1]))
    assert basis_eval(spec, M - 1, E[-3:], which=which) == pytest.approx(
        ref[-1, -3:], rel=1e-10)


def test_basis_eval_validation():
    spec = BasisSpec(k=1.0, M=4)
    with pytest.raises(ValueError):
        basis_eval(spec, 4, np.array([1.0]))
    with pytest.raises(ValueError):
        basis_eval(spec, 0, np.array([-1.0]))
    with pytest.raises(ValueError):
        basis_eval(spec, 0, np.array([1.0]), which="bogus")
