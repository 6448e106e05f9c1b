"""Suite mechanics: tolerance profiles, determinism, error handling, and
non-vacuity of the checks (mutated inputs must fail)."""

import dataclasses

import numpy as np
import pytest

from modloc.errors import ConfigError
from modloc.laguerre import BasisSpec
from modloc.spectral import (
    Tridiagonal,
    build_T,
    build_generators,
    build_tilde_generators,
    unitary_flow,
)
from modloc.verification import (
    REGISTERED_CHECKS,
    CheckReport,
    ToleranceProfile,
    build_interval_fixture,
    check_D_positive,
    check_HC_chain,
    check_S_invariance_convergence,
    check_T_bounds,
    check_commutators,
    check_covariance_transport,
    check_lowest_weights,
    check_positive_inclusions,
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
    diag = fx_small.g.C.diag.copy()
    diag[0] = np.nan
    C = Tridiagonal(diag, fx_small.g.C.upper)
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
    solve = Tridiagonal.eigh

    def counted(self, *args, **kwargs):
        calls.append(self.diag.size)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Tridiagonal, "eigh", counted)
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


@pytest.mark.parametrize("beta", [0.3, 1.0, 7.5])
def test_fixture_T_is_shifted_unit_T(beta):
    # the shared unit solve shifted by (1/2) log(4 beta) is the leading
    # block of (1/2) log(2 C~) at 2M, solved densely at this beta
    from scipy.linalg import eigh

    fx = build_interval_fixture(1.0, 2.0, M=64, n_bumps=0, beta=beta)
    gt2 = build_tilde_generators(build_generators(
        dataclasses.replace(fx.spec, M=128)))
    lam, V = eigh(2.0 * np.asarray(gt2.C))
    ref = ((0.5 * np.log(lam) * V) @ V.conj().T)[:64, :64]
    assert np.max(np.abs(fx.T.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fixtures_share_one_unit_T(monkeypatch):
    # fixtures with the same (k, M) make one eigensolve of the unit bands
    # at 2M; beta only shifts the eigenvalues of T
    import modloc.spectral as sp

    calls = []
    solve = Tridiagonal.eigh

    def counted(self, *args, **kwargs):
        calls.append(self.diag.size)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Tridiagonal, "eigh", counted)
    sp._unit_ladder_eig.cache_clear()
    fx1 = build_interval_fixture(1.0, 2.0, M=64, n_bumps=0)
    fx2 = build_interval_fixture(4.0, 8.0, M=64, n_bumps=0)
    assert calls == [128]
    unit = sp._unit_ladder_eig(0.75, 128)[1]
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        fx1.T.vecs[0, 0] = 0.0
    assert np.shares_memory(fx1.T.vecs, unit)
    assert np.shares_memory(fx2.T.vecs, unit)
    shift = 0.5 * np.log(fx2.spec.beta / fx1.spec.beta)
    assert np.allclose(fx2.T.evals - fx1.T.evals, shift, rtol=0, atol=1e-13)
    sp._unit_ladder_eig.cache_clear()


def test_unit_T_builds_no_generators(monkeypatch):
    import modloc.spectral as sp

    gt = build_tilde_generators(build_generators(BasisSpec(k=1.0, M=64)))

    def refuse(*args, **kwargs):
        raise AssertionError("T must not build generator matrices")

    monkeypatch.setattr(sp, "build_generators", refuse)
    monkeypatch.setattr(sp, "build_tilde_generators", refuse)
    sp._unit_ladder_eig.cache_clear()
    T = sp.build_T(gt, log_M=128)
    assert T.vecs.shape == (64, 128) and np.all(np.isfinite(T.evals))


def test_table_T_matches_dense_T(fx_small):
    dense = build_T(fx_small.gt, log_M=2 * fx_small.spec.M).matrix
    for st, es in zip(fx_small.states, fx_small.spectral_table):
        ct = st["Ztilde"].data
        ref = np.vdot(ct, dense @ ct).real / np.vdot(ct, ct).real
        assert abs(es["T"] - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_f_alpha_is_compressed_power_at_2M(fx_small):
    # F(alpha) reads the compression of (2 C~)^alpha taken at 2M, like T
    from scipy.linalg import fractional_matrix_power

    M = fx_small.spec.M
    gt2 = build_tilde_generators(build_generators(
        dataclasses.replace(fx_small.spec, M=2 * M)))
    two_C = 2.0 * np.asarray(gt2.C)
    rep = f_alpha_profile(fx_small, n_states=2)
    for st, curve in zip(fx_small.states, rep.values["curves"]):
        ct = st["Ztilde"].data
        nt = np.vdot(ct, ct).real
        for i in (0, 5, 15, 20):
            al = curve["alphas"][i]
            P = fractional_matrix_power(two_C, al)[:M, :M]
            ref = fx_small.a ** (-2.0 * al) * np.vdot(ct, P @ ct).real / nt
            assert abs(curve["F"][i] - ref) <= 1e-9 * ref


def test_fixture_checks_compose_no_dense_T(fx_small):
    # a copy with its own T and expectation tables
    fx = dataclasses.replace(
        fx_small, T=build_T(fx_small.gt, log_M=2 * fx_small.spec.M))
    for check in (check_D_positive, check_HC_chain, check_T_bounds,
                  f_alpha_profile, check_covariance_transport):
        assert check(fx).passed
    assert "matrix" not in vars(fx.T)


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


def test_run_suite_records_resolved_config():
    from modloc.artifacts import RunConfig

    res = run_suite({"n_bumps": 1}, scope=[])
    assert res.config == {**RunConfig(n_bumps=1).suite_config(),
                          "profile": "default", "scope": []}


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


def test_j_check_detects_complex_hamiltonian():
    # a complex off-diagonal pair keeps H Hermitian tridiagonal, but then
    # J U_h J = exp(-i a conj(H)) is no longer the adjoint exp(-i a H)
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=64))
    upper = g.H.upper.astype(complex)
    upper[3] *= 1j
    H = Tridiagonal(g.H.diag, upper)
    rep = check_positive_inclusions(dataclasses.replace(g, H=H))
    assert rep.values["J"]["JUhJ=Uh*"] > rep.params["j_tol"]
    assert rep.passed is False
    assert check_positive_inclusions(g).values["J"]["JUhJ=Uh*"] < 1e-14


def test_s_invariance_guard_gives_inconclusive():
    rep = check_S_invariance_convergence(guard=1.0)
    assert rep.passed is None
    assert rep.residual is None
    assert rep.error.startswith("OverflowAbort")


def test_covariance_flows_states_like_conjugated_T(fx_small):
    # <ct, F T F^* ct> from the flowed states equals the conjugated operator
    rep = check_covariance_transport(fx_small)
    F = unitary_flow(2.0 * fx_small.gt.D, -np.log(4.0))
    Tg = F @ fx_small.T.matrix @ F.conj().T
    for st, ps in zip(fx_small.states, rep.values["per_state"]):
        ct = st["Ztilde"].data
        ref = np.vdot(ct, Tg @ ct).real / np.vdot(ct, ct).real
        assert abs(ps["transported"] - ref) <= 1e-12 * abs(ref)


def test_suite_fixtures_use_configured_bump(monkeypatch):
    import modloc.verification as ver

    built = []
    build = ver.build_interval_fixture

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ver, "build_interval_fixture", recorded)
    res = run_suite({"intervals": [[1.0, 2.0]], "n_bumps": 1,
                     "bump": "polynomial-window"}, scope=["d_positive"])
    assert res.reports[0].error is None
    assert [st["Z"].provenance["family"] for fx in built
            for st in fx.states] == ["polynomial-window"]


def test_run_suite_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="nbumps"):
        run_suite({"nbumps": 3}, scope=[])
