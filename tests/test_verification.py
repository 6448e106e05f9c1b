"""Suite mechanics: tolerance profiles, determinism, error handling, and
non-vacuity of the checks (mutated inputs must fail)."""

import dataclasses

import numpy as np
import pytest

from modloc.laguerre import BasisSpec
from modloc.spectral import build_generators, build_tilde_generators
from modloc.verification import (
    REGISTERED_CHECKS,
    CheckReport,
    ToleranceProfile,
    build_interval_fixture,
    check_D_positive,
    check_HC_chain,
    check_T_bounds,
    check_commutators,
    check_lowest_weights,
    f_alpha_profile,
    run_suite,
)


@pytest.fixture(scope="module")
def fx_small():
    # small ensemble keeps these mechanics tests fast; the default basis
    # size is kept because backend <T> agreement needs it
    return build_interval_fixture(1.0, 2.0, n_bumps=4)


def test_tolerance_profiles_cover_all_checks():
    for name in ("default", "strict", "coarse"):
        prof = ToleranceProfile.preset(name)
        for check in REGISTERED_CHECKS:
            assert prof.tol(check) is not None
    with pytest.raises(ValueError):
        ToleranceProfile.preset("bogus")
    with pytest.raises(ValueError):
        ToleranceProfile("partial", {"weyl": 1e-3})


def test_strict_tightens():
    d = ToleranceProfile.preset("default")
    s = ToleranceProfile.preset("strict")
    assert s.tol("weyl") < d.tol("weyl")
    assert s.tol("hc_chain") == d.tol("hc_chain")


def test_report_serialization(fx_small):
    rep = check_D_positive(fx_small)
    doc = rep.to_dict()
    assert doc["name"] == "d_positive"
    assert isinstance(doc["passed"], bool)
    # everything must be json-clean
    import json

    json.dumps(doc)


def test_d_positive_has_negative_control(fx_small):
    rep = check_D_positive(fx_small)
    assert rep.passed
    assert rep.values["control_min"] < 0.0


def test_hc_chain_strict_slack(fx_small):
    rep = check_HC_chain(fx_small)
    assert rep.passed
    assert rep.values["min_slack"] > 0.0


def test_t_bounds_backend_agreement(fx_small):
    rep = check_T_bounds(fx_small)
    assert rep.passed
    assert rep.values["worst_agreement"] < 1e-3
    assert rep.residual <= rep.tolerance


def test_t_bounds_agree_with_heavy_tilde_tail():
    # this seed's third bump keeps 2e-3 of its squared-argument norm in the
    # last 32 of 384 rows; against T truncated at M the backends disagreed
    # by 1.0e-3, above agreement_tol
    fx = build_interval_fixture(1.0, 2.0, n_bumps=3, seed=3344171363)
    rep = check_T_bounds(fx)
    assert rep.passed
    assert rep.values["worst_agreement"] < 5e-4


def test_mutated_C_breaks_chain_and_weights(fx_small):
    g2 = dataclasses.replace(fx_small.g, C=2.0 * fx_small.g.C)
    fx2 = dataclasses.replace(fx_small, g=g2)
    assert check_HC_chain(fx2).passed is False
    assert check_commutators(g2).passed is False


def test_nan_expectation_fails_t_bounds(fx_small):
    # max(0.0, nan) == 0.0: a NaN <T> must not read as zero excursion
    st = dict(fx_small.states[0])
    st["Ztilde"] = dataclasses.replace(st["Ztilde"],
                                       data=np.full_like(st["Ztilde"].data,
                                                         np.nan))
    fx2 = dataclasses.replace(fx_small, states=[st, *fx_small.states[1:]])
    rep = check_T_bounds(fx2)
    assert rep.passed is False
    assert np.isnan(rep.residual)


def test_nan_generator_fails_hc_chain(fx_small):
    C = fx_small.g.C.copy()
    C[0, 0] = np.nan
    fx2 = dataclasses.replace(fx_small,
                              g=dataclasses.replace(fx_small.g, C=C))
    rep = check_HC_chain(fx2)
    assert rep.passed is False
    assert np.isnan(rep.values["min_slack"])


def test_swapped_interval_bounds_break_chain(fx_small):
    fx2 = dataclasses.replace(fx_small, a=fx_small.b, b=fx_small.a)
    assert check_HC_chain(fx2).passed is False
    assert check_T_bounds(fx2).passed is False


def test_flow_checks_solve_each_generator_once(monkeypatch):
    # check_weyl needs D, D~, H, C and 2 C~; check_positive_inclusions
    # needs D, H and C; every flow is built from those eigensystems
    import modloc.verification as ver

    calls = []
    solve = ver.tridiagonal_eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ver, "tridiagonal_eigh", counted)
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=64))
    ver.check_weyl(g, build_tilde_generators(g))
    assert len(calls) == 5
    ver.check_positive_inclusions(g)
    assert len(calls) == 8


def test_suite_reads_one_expectation_table_per_fixture(monkeypatch):
    # d_positive, hc_chain, t_bounds and covariance share each fixture's
    # tables: the grid <T> is computed once per state
    from modloc.gridop import GridRep

    seen = []
    expect_T = GridRep.expect_T

    def counted(self, state):
        seen.append(id(state.samples))
        return expect_T(self, state)

    monkeypatch.setattr(GridRep, "expect_T", counted)
    res = run_suite({"intervals": [[1.0, 2.0]], "n_bumps": 3},
                    scope=["d_positive", "hc_chain", "t_bounds",
                           "covariance"])
    assert len(res.reports) == 4
    assert all(r.error is None for r in res.reports)
    assert len(seen) == 3
    assert len(set(seen)) == 3


def test_lowest_weights_detects_wrong_target():
    rep = check_lowest_weights(ks=(1.0,), M=64)
    assert rep.passed
    rep_bad = check_lowest_weights(ks=(1.0,), M=64, tol=1e-15)
    assert rep_bad.passed is False


def test_f_alpha_emits_curves(fx_small):
    rep = f_alpha_profile(fx_small, n_states=2)
    assert rep.passed
    curves = rep.values["curves"]
    assert len(curves) == 2
    assert len(curves[0]["alphas"]) == 21
    assert abs(curves[0]["F0"] - 1.0) < 1e-12


def test_run_suite_empty_scope():
    res = run_suite(scope=[])
    assert res.reports == []
    assert res.aggregate_pass


def test_run_suite_scope_filter():
    res = run_suite(scope=["lowest_weights"],
                    config={"M": 64})
    assert [r.name for r in res.reports] == ["lowest_weights"]
    assert res.aggregate_pass


def test_run_suite_deterministic():
    cfg = {"M": 64, "grid_n": 1024}
    r1 = run_suite(cfg, scope=["lowest_weights", "commutators"])
    r2 = run_suite(cfg, scope=["lowest_weights", "commutators"])
    d1 = [r.to_dict() for r in r1.reports]
    d2 = [r.to_dict() for r in r2.reports]
    assert d1 == d2


def test_run_suite_error_capture():
    # inverted interval: the fixture constructor raises; the suite must
    # record the failure and keep going
    res = run_suite({"intervals": [[2.0, 1.0]], "M": 64, "grid_n": 1024},
                    scope=["d_positive", "lowest_weights"])
    by_name = {r.name: r for r in res.reports}
    bad = by_name["d_positive[2.0,1.0]"]
    assert bad.passed is False
    assert bad.error
    assert by_name["lowest_weights"].passed
    assert res.aggregate_pass is False


def test_inconclusive_does_not_fail_aggregate():
    rep = CheckReport(name="x", passed=None, residual=None, tolerance=None)
    import dataclasses as dc

    from modloc.verification import SuiteResult

    sr = SuiteResult(reports=[rep], aggregate_pass=all(
        r.passed is not False for r in [rep]), config={}, elapsed=0.0)
    assert sr.aggregate_pass
