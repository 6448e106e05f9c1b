"""Suite mechanics: tolerance profiles, determinism, error handling, and
non-vacuity of the checks (mutated inputs must fail)."""

import dataclasses

import numpy as np
import pytest

from modloc.errors import ConfigError
from modloc.gridop import GridSpec, build_grid_ops
from modloc.laguerre import BasisSpec
from modloc.localization import FourierProfile, projection_size
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
    fixture_beta,
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


def test_hc_chain_gates_residual_below_tol(fx_small):
    # put the tightest lower slack (C - a^2 H and C~ - a^2 |psi|^2 / 2, both
    # backends) at +5e-11 by moving a: a strict pass under the default
    # tol 0, and a pass under coarse, whose 1e-10 bounds the residual
    # -5e-11 from above and is no demand on the slack
    tabs = [fx_small.table(name) for name in ("spectral", "grid")]
    rows = [(e["C"], e["H"]) for tab in tabs for e in tab]
    rows += [(e["Ctilde"], 0.5 * e["tilde_norm_sq"])
             for tab in tabs for e in tab]
    num, den = min(rows, key=lambda r: r[0] / r[1])
    fx2 = dataclasses.replace(fx_small,
                              a=float(np.sqrt((num - 5e-11) / den)))
    for profile in ("default", "coarse"):
        tol = ToleranceProfile.preset(profile).tol("hc_chain")
        rep = check_HC_chain(fx2, tol=tol)
        assert abs(rep.values["min_slack"] - 5e-11) < 1e-12
        assert rep.residual == -rep.values["min_slack"] < tol
        assert rep.passed is True
    # like every other residual, a violation within tol passes: slack
    # -5e-11 fails at tol 0 and passes under coarse, -2e-10 fails both
    for excess, verdicts in ((5e-11, (False, True)), (2e-10, (False, False))):
        fx3 = dataclasses.replace(fx_small,
                                  a=float(np.sqrt((num + excess) / den)))
        assert tuple(check_HC_chain(
            fx3, tol=ToleranceProfile.preset(p).tol("hc_chain")).passed
            for p in ("default", "coarse")) == verdicts


def test_t_bounds_backend_agreement(fx_small):
    rep = check_T_bounds(fx_small)
    assert rep.passed
    assert rep.values["worst_agreement"] < 1e-3
    assert rep.residual <= rep.tolerance


def test_t_bounds_reports_projection_nodes(fx_small):
    # the sizes of both basis projections on [1, 2], beside the grid <T>'s
    # quadrature nodes and out of the deterministic values: the circle's
    # FFT length for Z at k = 1, the energy panel nodes otherwise (2,200
    # for Z at k = 1.5)
    rep = check_T_bounds(fx_small)
    assert rep.params["projection_nodes"] == {"Z": 8192, "Ztilde": 1840}
    assert "projection_nodes" not in rep.values
    prof = FourierProfile([st["bump"] for st in fx_small.states])
    k15 = dataclasses.replace(fx_small.spec, k=1.5)
    assert projection_size(prof, k15, "Z") == 2200


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


def test_commutators_default_to_their_backend_tolerance():
    # the grid residuals sit near 1e-3 at N = 4096: under the suite's
    # commutators_grid tolerance, far above the spectral one
    rep = check_commutators(build_grid_ops(GridSpec(4096, 40.0), 1.0))
    assert rep.tolerance == 1e-3
    assert 1e-6 < rep.residual < 1e-3 and rep.passed is True
    g = build_generators(BasisSpec(k=1.0, M=64))
    for triple in (g, build_tilde_generators(g)):
        rep = check_commutators(triple)
        assert rep.tolerance == 1e-6 and rep.passed is True


def test_grid_commutator_report_records_its_smooth_modes():
    # the count of smooth modes and the range of their Rayleigh quotients
    # (the rotation eigenvalues k + n, lifted at the top by the outer wall)
    # go into params; values holds only the three residuals
    rep = check_commutators(build_grid_ops(GridSpec(4096, 40.0), 1.0))
    assert rep.params["smooth_modes"] == 48
    lo, hi = rep.params["smooth_mode_range"]
    assert abs(lo - 1.0000119) < 1e-7 and abs(hi - 78.598098) < 1e-5
    assert set(rep.values) == {"HD", "CD", "HC"}
    tilde = check_commutators(build_grid_ops(GridSpec(4096, 10.0), 1.0),
                              triple="tilde")
    assert tilde.params["smooth_modes"] == 16
    assert abs(tilde.params["smooth_mode_range"][0] - 0.75) < 1e-6


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_grid_sample_fails_t_bounds(fx_small, bad):
    # one bad sample of one grid state reaches <T> through the sine
    # transform (k = 1): the check fails, it never passes (an inf meets
    # inf - inf on the way, which numpy flags as invalid and these tests
    # make an error)
    assert fx_small.rep.T.sine_evals is not None
    st = dict(fx_small.states[1])
    data = st["grid"].data.copy()
    data[100] = bad
    st["grid"] = dataclasses.replace(st["grid"], data=data)
    fx2 = dataclasses.replace(fx_small,
                              states=[fx_small.states[0], st,
                                      *fx_small.states[2:]])
    with np.errstate(invalid="ignore"):
        rep = check_T_bounds(fx2)
    assert rep.passed is False
    assert not np.isfinite(fx2.table("grid")[1]["T"])
    assert "bound" in rep.values["failed_gates"]


def test_t_bounds_and_covariance_report_signed_margin(fx_small):
    # both checks seeded their evidence with 0.0 and so reported residual
    # 0.0 on every interval; the residual is the signed worst excursion,
    # negative by the margin when every state is inside the bounds
    rep = check_T_bounds(fx_small)
    la, lb = rep.params["bounds"]
    vals = [ps[b] for ps in rep.values["per_state"]
            for b in ("spectral", "grid")]
    assert rep.residual == max(max(la - v, v - lb) for v in vals)
    assert rep.residual < 0 and rep.passed
    assert rep.values["failed_gates"] == []
    cov = check_covariance_transport(fx_small)
    lo, hi = cov.params["image_bounds"]
    vals = [ps["transported"] for ps in cov.values["per_state"]]
    assert cov.residual == max(max(lo - v, v - hi) for v in vals)
    assert cov.residual < 0 and cov.passed


def test_t_bounds_names_failed_gates(fx_small):
    swapped = dataclasses.replace(fx_small, a=fx_small.b, b=fx_small.a)
    assert check_T_bounds(swapped).values["failed_gates"] == ["bound"]
    rep = check_T_bounds(fx_small, agreement_tol=0.0)
    assert rep.passed is False and rep.residual < 0
    assert rep.values["failed_gates"] == ["agreement"]
    rep = check_T_bounds(swapped, agreement_tol=0.0)
    assert rep.values["failed_gates"] == ["bound", "agreement"]


def test_t_bounds_reports_grid_quadrature(fx_small):
    # the node count and the spectral range [1/2 log(2 lambda_min), 1/2
    # log(2 lambda_max)] of the grid T, lambda over C~; at k = 1 the sine
    # transform takes <T>, so no quadrature node runs
    from scipy.linalg import eigh_tridiagonal

    rep = check_T_bounds(fx_small)
    C = fx_small.rep.Ctilde
    ends = [eigh_tridiagonal(C.diag, C.upper, eigvals_only=True, select="i",
                             select_range=(i, i))[0]
            for i in (0, C.diag.size - 1)]
    assert np.allclose(rep.params["grid_T_range"], 0.5 * np.log(2.0 *
                       np.array(ends)), rtol=0, atol=1e-9)
    assert rep.params["grid_T_nodes"] == fx_small.rep.T.nodes.size == 0


def test_grid_T_range_lower_end_in_closed_form(fx_small):
    # at k = 1 the least eigenvalue of the grid's 2K = tridiag(-1, 2, -1)
    # is 4 sin^2(pi / (2 (N + 1))), so the least value of T = 1/2 log(2K)
    # - log h is log(2 sin(pi / (2 (N + 1)))) - log h; bisection reads that
    # eigenvalue only to eps |2K|, 8e-11 relative in the range end
    N, h = fx_small.grid.N, fx_small.grid.spacing
    ref = np.log(2.0 * np.sin(np.pi / (2 * N + 2))) - np.log(h)
    lo = check_T_bounds(fx_small).params["grid_T_range"][0]
    assert abs(lo - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("k", [1.0, 1.5])
def test_grid_table_makes_no_dense_eigensystem(monkeypatch, k):
    # <T> on the grid comes from a sine transform (k = 1) or from band
    # solves: no full eigensolve, and no N x N array (the dense
    # eigenvectors alone are 134 MB at N = 4096); k = 1.5 is a (N, k) no
    # earlier fixture uses, so no earlier solve held anywhere can stand in
    # for one made here
    import tracemalloc

    import modloc.spectral as sp

    fx = build_interval_fixture(1.0, 2.0, k=k, n_bumps=3)
    assert fx.grid.N == 4096
    selects = []
    solve = sp.eigh_tridiagonal

    def counted(*args, **kwargs):
        selects.append(kwargs.get("select", "a"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sp, "eigh_tridiagonal", counted)
    tracemalloc.start()
    try:
        assert len(fx.table("grid")) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "a" not in selects
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("k", [1.0, 1.5])
def test_grid_T_solves_only_off_the_sine_path(monkeypatch, k):
    # at k = 1 the unit band 2K = tridiag(-1, 2, -1) is constant and the
    # sine transform takes the grid <T>: no band solve; at any other k the
    # quadrature solves once per node and three times for the lower tail,
    # and t_bounds reports the nodes that ran
    import modloc.spectral as sp

    fx = build_interval_fixture(1.0, 2.0, k=k, n_bumps=3)
    solves = 0
    solve = sp.dptsv

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(sp, "dptsv", counted)
    assert len(fx.table("grid")) == 3
    nodes = fx.rep.T.nodes.size
    assert (nodes > 0) == (k != 1.0)
    assert solves == (nodes + 3 if nodes else 0)
    assert check_T_bounds(fx).params["grid_T_nodes"] == nodes


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
    # check_weyl needs D, 2 D~ and one solve that H and C share, and takes
    # T = (1/2) log(2 C~) from build_T's one eigenvalue-only unit ladder;
    # check_positive_inclusions needs D and the shared H, C solve; every
    # flow is built from those eigensystems
    import modloc.spectral as sp
    import modloc.verification as ver

    calls = []
    solve = Tridiagonal.eigensystem

    def counted(self):
        calls.append(self.diag.size)
        return solve(self)

    monkeypatch.setattr(Tridiagonal, "eigensystem", counted)
    sp._unit_ladder_eig.cache_clear()
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=64))
    ver.check_weyl(g, build_tilde_generators(g))
    assert len(calls) == 3
    assert sp._unit_ladder_eig.cache_info().misses == 1
    ver.check_positive_inclusions(g)
    assert len(calls) == 5


def test_flow_checks_reach_flows_through_hermitian_operator(monkeypatch,
                                                           fx_small):
    # every function of a generator in the four flow checks is a
    # HermitianOperator flow block or apply, and the module itself holds
    # no eigenvectors, norms or dense identities
    import inspect
    import re

    import modloc.verification as ver
    from modloc.spectral import HermitianOperator

    calls = []

    def count(name):
        method = getattr(HermitianOperator, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(HermitianOperator, name, counted)

    count("flow")
    count("apply")
    g = build_generators(BasisSpec(k=1.0, beta=1.0, M=64))
    # 2 times x 2 dilations x 2 blocks + 3 pairs x 2 amplitudes x 2
    # blocks: Th and Tc share the dilation D, which flows once per time,
    # and each coordinate flows once per amplitude, for every time
    ver.check_weyl(g, build_tilde_generators(g))
    assert calls == ["flow"] * 20
    # the dilation rows, then per flow the full unitary and the block
    calls.clear()
    ver.check_positive_inclusions(g)
    assert calls == ["flow"] * 5
    calls.clear()
    check_covariance_transport(fx_small)
    assert calls == ["apply"]
    # the windowed modular flow and the window, per rung
    calls.clear()
    check_S_invariance_convergence(ladder=(64, 128))
    assert calls == ["apply"] * 4
    source = inspect.getsource(ver)
    assert not re.search(r"\.eigh\(|\.vecs\b|np\.linalg|np\.eye\(", source)


def test_spectral_commutators_read_the_generator_set(monkeypatch):
    from modloc.spectral import GeneratorSet

    seen = []
    residuals = GeneratorSet.commutator_residuals

    def counted(self):
        seen.append(self.variant)
        return residuals(self)

    monkeypatch.setattr(GeneratorSet, "commutator_residuals", counted)
    g = build_generators(BasisSpec(k=1.0, M=64))
    reports = [check_commutators(x) for x in (g, build_tilde_generators(g))]
    assert seen == ["plain", "tilde"]
    assert all(r.passed for r in reports)


def test_suite_reads_one_expectation_table_per_fixture(monkeypatch):
    # d_positive, hc_chain, t_bounds and covariance share each fixture's
    # tables: each column is one block call over all states (<H>, <C>,
    # <D>, <C~> per backend on the bands, <T> against each backend's T),
    # covariance adds one block of flowed states and d_positive one block
    # of 100 control vectors
    from modloc.spectral import HermitianOperator, TridiagonalLog

    seen = {Tridiagonal: [], HermitianOperator: [], TridiagonalLog: []}

    def count(cls):
        expect = cls.expect

        def counted(self, v):
            seen[cls].append(np.shape(v))
            return expect(self, v)

        monkeypatch.setattr(cls, "expect", counted)

    count(Tridiagonal)
    count(HermitianOperator)
    count(TridiagonalLog)
    res = run_suite({"intervals": [[1.0, 2.0]], "n_bumps": 3},
                    scope=["d_positive", "hc_chain", "t_bounds",
                           "covariance"])
    assert len(res.reports) == 4
    assert all(r.error is None for r in res.reports)
    assert sorted(seen[Tridiagonal]) == [(384, 3)] * 4 + [(384, 100)] + [
        (4096, 3)] * 4
    assert sorted(seen[HermitianOperator]) == [(384, 3), (384, 3)]
    assert seen[TridiagonalLog] == [(4096, 3)]


def test_fixture_projects_all_bumps_in_one_pass(monkeypatch):
    # one circle FFT (Z at k = 1) and one Laguerre sweep (Ztilde, and Z at
    # k = 1.5) per family for all five bumps, and each table
    # reads <T> in its backend once: one projection onto the spectral T
    # eigenvectors, one grid quadrature
    import modloc.localization as loc
    from modloc.spectral import HermitianOperator, TridiagonalLog

    sweeps = []
    sweep = loc.basis_matrix

    def counted_sweep(spec, E, weights=None):
        sweeps.append((spec.k, np.shape(weights)))
        return sweep(spec, E, weights=weights)

    projections = []
    weights = HermitianOperator.weights

    def counted_weights(self, v):
        projections.append(np.shape(v))
        return weights(self, v)

    quadratures = []
    grid_expect = TridiagonalLog.expect

    def counted_expect(self, v):
        quadratures.append(np.shape(v))
        return grid_expect(self, v)

    circles = []
    circle = loc._circle_coefficients

    def counted_circle(profile, spec):
        circles.append(profile.h.size)
        return circle(profile, spec)

    monkeypatch.setattr(loc, "basis_matrix", counted_sweep)
    monkeypatch.setattr(loc, "_circle_coefficients", counted_circle)
    monkeypatch.setattr(HermitianOperator, "weights", counted_weights)
    monkeypatch.setattr(TridiagonalLog, "expect", counted_expect)
    fx = build_interval_fixture(1.0, 2.0, n_bumps=5)
    assert circles == [5]
    assert [(k, s[1]) for k, s in sweeps] == [(0.75, 10)]
    prof = FourierProfile([st["bump"] for st in fx.states])
    loc.project_bumps(prof, dataclasses.replace(fx.spec, k=1.5), "Z")
    assert circles == [5]
    assert [(k, s[1]) for k, s in sweeps] == [(0.75, 10), (1.5, 10)]
    assert len(fx.table("spectral")) == 5 and projections == [(384, 5)]
    assert len(fx.table("grid")) == 5 and quadratures == [(4096, 5)]
    assert projections == [(384, 5)]


@pytest.mark.parametrize("a,b,n_bumps", [(1.0, 2.0, 4), (0.5, 1.0, 4),
                                         (4.0, 8.0, 4), (0.5, 0.75, 1)])
def test_fixture_states_match_single_bump_projection(a, b, n_bumps):
    # the shared mesh of a fixture gives each bump the state its own mesh
    # gives; the projection residual is already a fraction of the norm, a
    # difference of two nearly equal norms, so it is compared absolutely
    from modloc.localization import positive_frequency

    fx = build_interval_fixture(a, b, n_bumps=n_bumps)
    for st in fx.states:
        for key, target in (("Z", fx.spec), ("Ztilde", fx.spec),
                            ("grid", fx.grid)):
            ref = positive_frequency(st["bump"], target, family=key,
                                     max_residual=1.0)
            sv = st[key]
            assert (np.linalg.norm(sv.data - ref.data)
                    <= 1e-11 * np.linalg.norm(ref.data)), key
            assert abs(sv.norm_sq - ref.norm_sq) <= 1e-11 * ref.norm_sq
            assert abs(sv.projection_residual
                       - ref.projection_residual) <= 1e-11


def test_fixture_checks_fail_without_states():
    # an empty ensemble is no evidence, so it is refused where it enters:
    # by the fixture builder and by run_suite's config
    with pytest.raises(ValueError, match="n_bumps"):
        build_interval_fixture(1.0, 2.0, M=64, n_bumps=0)
    with pytest.raises(ConfigError, match="n_bumps"):
        run_suite({"n_bumps": 0, "intervals": [[1.0, 2.0]], "fixture_M": 64},
                  scope=["d_positive", "t_bounds", "f_alpha"])


def _fixture_T(beta: float, M: int = 64):
    """T built the way build_interval_fixture builds it: log(2 C~) at 2M."""
    spec = BasisSpec(k=1.0, beta=beta, M=M)
    return spec, build_T(build_tilde_generators(build_generators(spec)),
                         log_M=2 * M)


@pytest.mark.parametrize("beta", [0.3, 1.0, 7.5])
def test_fixture_T_is_shifted_unit_T(beta):
    # the shared unit solve shifted by (1/2) log(4 beta) is the leading
    # block of (1/2) log(2 C~) at 2M, solved densely at this beta
    from scipy.linalg import eigh

    spec, T = _fixture_T(beta)
    gt2 = build_tilde_generators(build_generators(
        dataclasses.replace(spec, M=128)))
    lam, V = eigh(2.0 * np.asarray(gt2.C))
    ref = ((0.5 * np.log(lam) * V) @ V.conj().T)[:64, :64]
    assert np.max(np.abs(T.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fixtures_share_one_unit_T(monkeypatch):
    # fixtures with the same (k, M) make one eigenvalue-only solve of the
    # unit bands at 2M and no eigenvector solve; beta only shifts the
    # eigenvalues of T
    import modloc.spectral as sp

    calls = []
    solve = sp.eigh_tridiagonal

    def counted(d, e, eigvals_only=False, **kwargs):
        calls.append((d.size, eigvals_only))
        return solve(d, e, eigvals_only=eigvals_only, **kwargs)

    monkeypatch.setattr(sp, "eigh_tridiagonal", counted)
    sp._unit_ladder_eig.cache_clear()
    spec1, T1 = _fixture_T(fixture_beta(1.0, 2.0))
    spec2, T2 = _fixture_T(fixture_beta(4.0, 8.0))
    assert calls == [(128, True)]
    unit = sp._unit_ladder_eig(0.75, 128)[1]
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        T1.vecs[0, 0] = 0.0
    assert np.shares_memory(T1.vecs, unit)
    assert np.shares_memory(T2.vecs, unit)
    shift = 0.5 * np.log(spec2.beta / spec1.beta)
    assert np.allclose(T2.evals - T1.evals, shift, rtol=0, atol=1e-13)
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
    for st, es in zip(fx_small.states, fx_small.table("spectral")):
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
    curves = rep.values["curves"]
    for i in (0, 5, 15, 20):
        # every curve shares the alpha mesh: one power per alpha
        al = curves[0]["alphas"][i]
        P = fractional_matrix_power(two_C, al)[:M, :M]
        for st, curve in zip(fx_small.states, curves):
            assert curve["alphas"][i] == al
            ct = st["Ztilde"].data
            nt = np.vdot(ct, ct).real
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


def test_f_alpha_reports_the_states_it_evaluated():
    # params["n_states"] was the argument (5) next to three curves
    rep, = run_suite({"intervals": [[1.0, 2.0]], "n_bumps": 3},
                     scope=["f_alpha"]).reports
    assert rep.passed
    assert rep.params["n_states"] == len(rep.values["curves"]) == 3


def test_fixture_checks_read_every_backend(fx_small, monkeypatch):
    # one more backend, a copy of the grid one, reaches every per-state
    # entry of the fixture checks and changes nothing else; shifted out of
    # the bounds, it decides t_bounds' excursion
    from modloc import verification

    checks = (check_D_positive, check_HC_chain, check_T_bounds)
    before = [check(fx_small).to_dict() for check in checks]
    monkeypatch.setitem(verification.BACKENDS, "copy",
                        verification.BACKENDS["grid"])
    # a replace copy builds its own tables
    d, hc, tb = (check(dataclasses.replace(fx_small)).to_dict()
                 for check in checks)
    for doc in (d, tb):
        for ps in doc["values"]["per_state"]:
            assert ps.pop("copy") == ps["grid"]
    copies = [ps for ps in hc["values"]["per_state"]
              if ps["backend"] == "copy"]
    hc["values"]["per_state"] = [ps for ps in hc["values"]["per_state"]
                                 if ps["backend"] != "copy"]
    grid = [ps for ps in hc["values"]["per_state"] if ps["backend"] == "grid"]
    assert copies == [{**ps, "backend": "copy"} for ps in grid]
    assert [d, hc, tb] == before

    monkeypatch.setitem(verification.BACKENDS, "copy", lambda fx: [
        {**e, "T": e["T"] + 1.0} for e in fx.table("grid")])
    rep = check_T_bounds(dataclasses.replace(fx_small))
    lb = rep.params["bounds"][1]
    assert rep.values["failed_gates"] == ["bound"]
    assert rep.residual == max(ps["copy"] for ps in
                               rep.values["per_state"]) - lb > 0.0


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


def test_lowest_weights_at_one_row():
    # at M = 1 each rotation is a 1 x 1 band, whose one eigenvalue is read
    # directly (LAPACK's bisection wrapper refuses an empty off-diagonal),
    # so the check fails on its residual instead of erroring
    rep, = run_suite({"M": 1}, scope=["lowest_weights"]).reports
    assert rep.passed is False and rep.error is None
    assert rep.residual == 0.3125


def test_run_suite_deterministic():
    cfg = {"M": 64, "grid_n": 1024}
    r1 = run_suite(cfg, scope=["lowest_weights", "commutators"])
    r2 = run_suite(cfg, scope=["lowest_weights", "commutators"])
    d1 = [r.to_dict() for r in r1.reports]
    d2 = [r.to_dict() for r in r2.reports]
    assert d1 == d2


def test_run_suite_error_capture(monkeypatch):
    # a check raises; the suite must record the failure and keep going
    import modloc.verification as ver

    def broken(fx, tol):
        raise RuntimeError("broken check")

    monkeypatch.setattr(ver, "build_interval_fixture", lambda *a, **k: None)
    monkeypatch.setattr(ver, "check_D_positive", broken)
    res = run_suite({"intervals": [[1.0, 2.0]], "M": 64, "grid_n": 1024},
                    scope=["d_positive", "lowest_weights"])
    by_name = {r.name: r for r in res.reports}
    bad = by_name["d_positive[1.0,2.0]"]
    assert bad.passed is False
    assert bad.error == "RuntimeError: broken check"
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


def test_positive_inclusions_with_empty_interior_block_fails():
    # at M = 3 the interior block M // 4 holds no rows: no evidence
    rep = check_positive_inclusions(
        build_generators(BasisSpec(k=1.0, beta=1.0, M=3)))
    assert rep.params["block"] == 0
    assert rep.passed is False and np.isnan(rep.residual)
    assert rep.error is None


def test_s_invariance_guard_gives_inconclusive():
    rep = check_S_invariance_convergence(guard=1.0)
    assert rep.passed is None
    assert rep.residual is None
    assert rep.error.startswith("OverflowAbort")


def test_s_invariance_guard_reads_the_window():
    # at M = 64 e^{3 pi} times the largest amplitude inside the window is
    # 3.7e3, over all D-eigenvalues 5.0e3: a guard between them trips only
    # on components the check discards
    rep = check_S_invariance_convergence(guard=4.5e3)
    assert rep.error is None and rep.passed is True


def test_operator_checks_make_no_svd(monkeypatch):
    # every 2-norm of the operator checks is a band or a Gram eigenvalue
    import sys

    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("SVD called")

    impl = (sys.modules.get("numpy.linalg._linalg")
            or sys.modules["numpy.linalg.linalg"])
    for module, name in ((impl, "svd"), (np.linalg, "svd"),
                         (scipy.linalg, "svd"), (scipy.linalg, "svdvals")):
        monkeypatch.setattr(module, name, refuse)
    res = run_suite({"M": 64, "weyl_M": 64, "grid_n": 1024},
                    scope=["commutators", "weyl", "positive_inclusions",
                           "s_invariance"])
    # at these sizes the grid and Weyl residuals miss their gates: the
    # claim is only that every check ran to a finite residual
    assert len(res.reports) == 7
    assert all(r.error is None and np.isfinite(r.residual)
               for r in res.reports), [(r.name, r.error) for r in res.reports]


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


@pytest.mark.parametrize("config", [
    {"k": 0.3}, {"n_bumps": 0}, {"seed": -1}, {"intervals": [[2.0, 1.0]]},
    {"grid_n": 8}, {"grid_n": 32}, {"fixture_M": "x"}], ids=str)
def test_run_suite_rejects_bad_values_before_building(config, monkeypatch):
    # each value is validated where it enters, not by the checks using it
    import modloc.verification as ver

    def refuse(*args, **kwargs):
        raise AssertionError("built an operator before validating")

    for name in ("build_generators", "build_grid_ops",
                 "build_interval_fixture"):
        monkeypatch.setattr(ver, name, refuse)
    with pytest.raises(ConfigError):
        run_suite(config)
