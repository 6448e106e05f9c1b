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
)


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
    spec = BasisSpec(k=1.5, beta=0.7, M=8)
    E = np.linspace(0.05, 10.0, 31)
    for which in ("Z", "Ztilde"):
        B = basis_matrix(spec, E, which=which)
        for n in (0, 3, 7):
            assert np.allclose(B[n], basis_eval(spec, n, E, which=which),
                               rtol=1e-10, atol=1e-12)


def test_basis_eval_validation():
    spec = BasisSpec(k=1.0, M=4)
    with pytest.raises(ValueError):
        basis_eval(spec, 4, np.array([1.0]))
    with pytest.raises(ValueError):
        basis_eval(spec, 0, np.array([-1.0]))
    with pytest.raises(ValueError):
        basis_eval(spec, 0, np.array([1.0]), which="bogus")
