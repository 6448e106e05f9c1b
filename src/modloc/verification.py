"""The theorem-checking suite: each operator identity or inequality the
construction promises becomes a named, parameterized check emitting a
CheckReport.

Spectral identities are exact up to round-off and carry tight tolerances;
flow identities are tested on fixed interior observation blocks, where the
truncation boundary is exponentially (banded generators) or algebraically
(logarithmic coordinates) far away; convergence studies report trends and
a coarse final-rung tolerance, never a tight one, because the underlying
operators are unbounded and the truncated surrogates only converge
pointwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .artifacts import RunConfig
from .errors import ConfigError, OverflowAbort
from .gridop import GridRep, GridSpec, build_grid_ops
from .laguerre import BasisSpec
from .localization import BumpSpec, FourierProfile, make_bump, positive_frequency
from .spectral import (
    GeneratorSet,
    HermitianOperator,
    build_T,
    build_generators,
    build_tilde_generators,
    interior_residual,
    j_conjugate_matrix,
    log_spectrum,
    matrix_function,
    spectral_compose,
)

__all__ = [
    "CheckReport",
    "ToleranceProfile",
    "IntervalFixture",
    "build_interval_fixture",
    "check_commutators",
    "check_lowest_weights",
    "check_D_positive",
    "check_HC_chain",
    "check_T_bounds",
    "check_weyl",
    "check_positive_inclusions",
    "f_alpha_profile",
    "check_S_invariance_convergence",
    "check_covariance_transport",
    "check_grid_convergence",
    "run_suite",
    "SuiteResult",
    "spectral_expectations",
    "grid_expectations",
]

# default bump budget and fixture truncation matching the acceptance scale
N_BUMPS = RunConfig.n_bumps
BUMP_SAMPLES = 8192
FIXTURE_M = RunConfig.fixture_M
WEYL_BLOCK = 16
S_INV_WINDOW = 3.0
S_INV_LADDER = (64, 128, 256, 512)


@dataclass
class CheckReport:
    """Outcome of one named check.

    residual is the scalar the tolerance gates; values holds the raw
    measured numbers; passed is None for inconclusive convergence studies
    (overflow guard tripped), which count as neither pass nor fail.
    """

    name: str
    passed: bool | None
    residual: float | None
    tolerance: float | None
    params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    backend: str = "spectral"
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "params": _plain(self.params),
            "values": _plain(self.values),
            "backend": self.backend,
            "error": self.error,
        }


def _worst(values, pick=max) -> float:
    """pick (max or min) of the evidence, NaN unless every value is finite.

    Python's max and min silently drop NaN (max(0.0, nan) == 0.0), and an
    infinite slack satisfies any gate; a NaN fails every comparison a gate
    makes, so a check reduced here passes only on finite evidence.
    """
    vals = [float(v) for v in values]
    if not vals or not np.all(np.isfinite(vals)):
        return float("nan")
    return pick(vals)


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain python for JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


REGISTERED_CHECKS = (
    "commutators_plain",
    "commutators_tilde",
    "commutators_grid",
    "lowest_weights",
    "d_positive",
    "hc_chain",
    "t_bounds",
    "weyl",
    "positive_inclusions",
    "f_alpha",
    "s_invariance",
    "covariance",
    "grid_convergence",
)

_DEFAULT_TOLS = {
    "commutators_plain": 1e-6,
    "commutators_tilde": 1e-6,
    "commutators_grid": 1e-3,
    "lowest_weights": 1e-6,
    "d_positive": 1e-8,
    "hc_chain": 0.0,
    "t_bounds": 1e-6,
    "weyl": 1e-3,
    "positive_inclusions": 1e-3,
    "f_alpha": 1e-8,
    "s_invariance": 1e-2,
    "covariance": 1e-3,
    "grid_convergence": 0.2,
}


@dataclass(frozen=True)
class ToleranceProfile:
    """Per-check tolerances; every registered check has an entry."""

    name: str
    entries: dict

    def __post_init__(self):
        missing = [c for c in REGISTERED_CHECKS if c not in self.entries]
        if missing:
            raise ValueError(f"profile {self.name!r} missing entries: {missing}")

    def tol(self, check: str) -> float:
        return self.entries[check]

    @classmethod
    def preset(cls, name: str) -> "ToleranceProfile":
        if name == "default":
            return cls("default", dict(_DEFAULT_TOLS))
        if name == "strict":
            # tighten everything except the hard-zero slack entries and
            # the trend-only convergence gates
            ent = {}
            for k, v in _DEFAULT_TOLS.items():
                if k in ("hc_chain", "grid_convergence", "s_invariance"):
                    ent[k] = v
                else:
                    ent[k] = v / 100.0
            return cls("strict", ent)
        if name == "coarse":
            ent = {k: (v * 100.0 if v > 0 else 1e-10) for k, v in _DEFAULT_TOLS.items()}
            ent["grid_convergence"] = 0.5
            return cls("coarse", ent)
        raise ValueError(f"unknown tolerance profile {name!r}")


# ---------------------------------------------------------------------------
# fixtures

@dataclass
class IntervalFixture:
    """Everything needed to run the localization chain on one interval.

    The representation scale beta is matched to the interval, beta =
    ((a+b)/3)^2, so the truncated bases resolve the states' energy content
    equally well on every interval; the grid range scales the same way.

    spectral_table and grid_table hold each state's expectation table in
    one backend, computed on first use and read by every check of the
    fixture; dataclasses.replace gives a copy that computes its own.
    """

    a: float
    b: float
    spec: BasisSpec
    g: GeneratorSet
    gt: GeneratorSet
    T: HermitianOperator
    grid: GridSpec
    rep: GridRep
    states: list  # dicts: sub-interval, spectral/tilde/grid StateVectors
    seed: int

    @cached_property
    def spectral_table(self) -> list:
        return [spectral_expectations(self, st) for st in self.states]

    @cached_property
    def grid_table(self) -> list:
        return [grid_expectations(self, st) for st in self.states]


def fixture_beta(a: float, b: float) -> float:
    return ((a + b) / 3.0) ** 2


def fixture_emax(b: float) -> float:
    return max(40.0, 160.0 / b)


def build_interval_fixture(a: float, b: float, k: float = 1.0,
                           M: int = FIXTURE_M, grid_n: int = 4096,
                           n_bumps: int = N_BUMPS, seed: int = 0,
                           beta: float | None = None,
                           emax: float | None = None,
                           family: str = "mollifier") -> IntervalFixture:
    """Build operators and n_bumps localized states for the interval [a, b].

    The first bump fills [a, b]; the rest sit on random sub-intervals with
    width at least 0.6 (b - a), so every state is local in [a, b] while the
    ensemble varies.  One Fourier profile per bump feeds all backends.
    """
    if beta is None:
        beta = fixture_beta(a, b)
    if emax is None:
        emax = fixture_emax(b)
    spec = BasisSpec(k=k, beta=beta, M=M)
    g = build_generators(spec)
    gt = build_tilde_generators(g)
    # squared-argument states keep about 1e-3 of their norm in the last
    # rows, where log(2 C~) truncated at M is wrong; at 2M it is not
    T = build_T(gt, log_M=2 * M)
    grid = GridSpec(N=grid_n, E_max=emax)
    rep = build_grid_ops(grid, k)
    rng = np.random.default_rng(seed)
    states = []
    w = b - a
    for i in range(n_bumps):
        if i == 0:
            ai, bi = a, b
        else:
            ai = a + 0.2 * w * rng.random()
            bi = b - 0.2 * w * rng.random()
        bs = BumpSpec(ai, bi, family=family, samples=BUMP_SAMPLES,
                      extent_factor=4.0 * b / bi)
        x, psi = make_bump(bs)
        prof = FourierProfile(x, psi)
        prov = {"interval": [a, b], "support": [ai, bi], "seed": seed,
                "index": i, "family": family}
        sv = positive_frequency(x, psi, spec, family="Z", profile=prof,
                                provenance=prov)
        # the squared-argument family converges slowly at the origin
        # (coefficient tail ~ u^{1/4}); its norm residual is near 1e-2 at
        # the default M and falls only slowly with M
        svt = positive_frequency(x, psi, spec, family="Ztilde",
                                 max_residual=3e-2, profile=prof,
                                 provenance=prov)
        svg = positive_frequency(x, psi, grid, max_residual=1e-3,
                                 profile=prof, provenance=prov)
        states.append({"support": (ai, bi), "Z": sv, "Ztilde": svt,
                       "grid": svg, "bump": bs})
    return IntervalFixture(a=a, b=b, spec=spec, g=g, gt=gt, T=T, grid=grid,
                           rep=rep, states=states, seed=seed)


# ---------------------------------------------------------------------------
# operator identity checks

def check_commutators(g, interior_fraction: float = 0.8,
                      tol: float = 1e-6, triple: str = "plain") -> CheckReport:
    """Interior-projected relative residuals of [H,D]=iH, [C,D]=-iC, [H,C]=2iD.

    g is a GeneratorSet (spectral backend) or a GridRep (finite differences).
    On the grid the residuals are measured on windowed smooth rotation
    modes (see GridRep.commutator_residuals); triple selects the plain or
    the squared-coordinate generator triple there.
    """
    if isinstance(g, GridRep):
        res = g.commutator_residuals(triple=triple)
        worst = _worst(res.values())
        return CheckReport(
            name=f"commutators_grid_{triple}", passed=bool(worst < tol),
            residual=worst, tolerance=tol, backend="grid",
            params={"N": g.grid.N, "E_max": g.grid.E_max, "k": g.k,
                    "triple": triple},
            values={k2: float(v) for k2, v in res.items()})
    H, D, C = (np.asarray(X) for X in (g.H, g.D, g.C))
    res = {
        "HD": interior_residual(H @ D - D @ H, 1j * H, interior_fraction),
        "CD": interior_residual(C @ D - D @ C, -1j * C, interior_fraction),
        "HC": interior_residual(H @ C - C @ H, 2j * D, interior_fraction),
    }
    worst = _worst(res.values())
    return CheckReport(
        name=f"commutators_{g.variant}", passed=bool(worst < tol),
        residual=worst, tolerance=tol,
        params={"k": g.spec.k, "beta": g.spec.beta, "M": g.spec.M,
                "variant": g.variant, "interior_fraction": interior_fraction},
        values={k2: float(v) for k2, v in res.items()})


def check_lowest_weights(ks=(1.0, 1.5, 2.0), beta: float = 1.0, M: int = 256,
                         tol: float = 1e-6) -> CheckReport:
    """min eig (H+C)/2 = k and min eig (H~+C~)/2 = k/2 + 1/4 for each k."""
    values = {}
    errors = []
    for k in ks:
        spec = BasisSpec(k=k, beta=beta, M=M)
        g = build_generators(spec)
        gt = build_tilde_generators(g)
        lo, lo_t = (float(x.rotation().eigh(eigvals_only=True, select="i",
                                            select_range=(0, 0))[0])
                    for x in (g, gt))
        target_t = 0.5 * k + 0.25
        values[f"k={k}"] = {"plain": lo, "tilde": lo_t,
                            "expected": [k, target_t]}
        errors += [abs(lo - k), abs(lo_t - target_t)]
    worst = _worst(errors)
    return CheckReport(
        name="lowest_weights", passed=bool(worst < tol), residual=worst,
        tolerance=tol, params={"ks": list(ks), "beta": beta, "M": M},
        values=values)


# ---------------------------------------------------------------------------
# localization chain checks

def spectral_expectations(fx: IntervalFixture, st: dict) -> dict:
    """<H>, <C>, <D> on the plain coefficients, <C~> and the normalized <T>
    on the squared-argument ones, with both norms."""
    c = st["Z"].data
    ct = st["Ztilde"].data
    nt = float(np.vdot(ct, ct).real)
    return {
        "norm_sq": float(np.vdot(c, c).real),
        "tilde_norm_sq": nt,
        "H": fx.g.H.expect(c),
        "C": fx.g.C.expect(c),
        "D": fx.g.D.expect(c),
        "Ctilde": fx.gt.C.expect(ct),
        "T": float(fx.T.expect(ct)) / nt,
    }


def grid_expectations(fx: IntervalFixture, st: dict) -> dict:
    """The same table as spectral_expectations, in the grid backend."""
    gs = st["grid"].as_grid_state()
    ng = gs.norm_sq()
    return {
        "norm_sq": ng,
        "tilde_norm_sq": ng,
        "H": fx.rep.expect_H(gs),
        "C": fx.rep.expect_C(gs),
        "D": fx.rep.expect_D(gs),
        "Ctilde": fx.rep.expect_Ctilde(gs),
        "T": fx.rep.expect_T(gs) / ng,
    }


def check_D_positive(fx: IntervalFixture, tol: float = 1e-8,
                     control_seed: int = 7,
                     n_control: int = 100) -> CheckReport:
    """<D> >= -tol on every local state, in both backends.

    The non-vacuity control draws random coefficient vectors (not local
    states) and requires at least one with strictly negative <D>; the
    report fails if the control finds none, which would mean the check
    cannot distinguish anything.
    """
    per_state = []
    expectations = []
    for st, es, eg in zip(fx.states, fx.spectral_table, fx.grid_table):
        per_state.append({"support": list(st["support"]),
                          "spectral": es["D"], "grid": eg["D"]})
        expectations += [es["D"], eg["D"]]
    worst = _worst(expectations, min)
    rng = np.random.default_rng(control_seed)
    M = fx.spec.M
    controls = []
    for _ in range(n_control):
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        controls.append(fx.g.D.expect(v))
    control_min = _worst(controls, min)
    passed = bool(worst >= -tol and control_min < 0.0)
    return CheckReport(
        name="d_positive", passed=passed, residual=float(-worst),
        tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": len(fx.states),
                "control_seed": control_seed, "n_control": n_control},
        values={"min_expectation": float(worst),
                "control_min": float(control_min),
                "per_state": per_state})


def check_HC_chain(fx: IntervalFixture, tol: float = 0.0) -> CheckReport:
    """a^2 <H> <= <C> <= b^2 <H> and a^2/2 |psi|^2 < <C~> < b^2/2 |psi|^2.

    tol = 0 demands strict slack, which the propositions promise for
    states local in the open interval.
    """
    a2, b2 = fx.a ** 2, fx.b ** 2
    per_state = []
    for st, es, eg in zip(fx.states, fx.spectral_table, fx.grid_table):
        for tag, e in (("spectral", es), ("grid", eg)):
            nt = e["tilde_norm_sq"]
            slacks = (e["C"] - a2 * e["H"], b2 * e["H"] - e["C"],
                      e["Ctilde"] - 0.5 * a2 * nt,
                      0.5 * b2 * nt - e["Ctilde"])
            per_state.append({"support": list(st["support"]), "backend": tag,
                              "H": e["H"], "C": e["C"], "Ctilde": e["Ctilde"],
                              "slacks": [float(s) for s in slacks]})
    min_slack = _worst((s for p in per_state for s in p["slacks"]), min)
    return CheckReport(
        name="hc_chain", passed=bool(min_slack > tol),
        residual=float(-min_slack), tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": len(fx.states)},
        values={"min_slack": float(min_slack), "per_state": per_state})


def check_T_bounds(fx: IntervalFixture, tol: float = 1e-6,
                   agreement_tol: float = 1e-3) -> CheckReport:
    """log a - tol <= <T>/|psi|^2 <= log b + tol in both backends, and the
    two backends agree on <T>/|psi|^2 to agreement_tol (relative).  The
    residual is the worst bound excursion, the number tol gates."""
    la, lb = np.log(fx.a), np.log(fx.b)
    excursions = [0.0]
    agreements = [0.0]
    per_state = []
    for st, es, eg in zip(fx.states, fx.spectral_table, fx.grid_table):
        for val in (es["T"], eg["T"]):
            excursions += [la - val, val - lb]
        agree = abs(es["T"] - eg["T"]) / max(abs(eg["T"]), 1.0)
        agreements.append(agree)
        per_state.append({"support": list(st["support"]),
                          "spectral": es["T"], "grid": eg["T"],
                          "agreement": float(agree)})
    worst_out = _worst(excursions)
    worst_agree = _worst(agreements)
    passed = bool(worst_out <= tol and worst_agree <= agreement_tol)
    return CheckReport(
        name="t_bounds", passed=passed,
        residual=float(worst_out), tolerance=tol,
        params={"interval": [fx.a, fx.b], "bounds": [float(la), float(lb)],
                "agreement_tol": agreement_tol, "n_states": len(fx.states)},
        values={"worst_excursion": float(worst_out),
                "worst_agreement": float(worst_agree),
                "per_state": per_state})


# ---------------------------------------------------------------------------
# flow and Weyl checks

def check_weyl(g: GeneratorSet, gt: GeneratorSet,
               ts=(0.1, 0.3), azs=(0.2, 0.5), block: int = WEYL_BLOCK,
               tol: float = 1e-3) -> CheckReport:
    """Weyl relations V(t) W(a) = e^{i s a t} W(a) V(t) on a fixed interior
    observation block.

    V(t) = exp(-i t D) is the modular dilation flow; W(a) exponentiates the
    coordinate (T_h, T_c, or T).  The phase sign s is -1 for T_h and +1 for
    T_c and T (the flow shifts log H down and log C, T up).  The residual
    is measured on a small fixed block: the log coordinates are full
    matrices, so their truncation error decays only algebraically from the
    boundary, and the observation window must stay well inside.
    """
    # one eigensystem per generator; T = (1/2) log(2 C~) shares that of 2 C~
    # and the plain dilation generator in the tilde basis is 2 D~
    eD = g.D.eigh()
    evDt, vDt = gt.D.eigh()
    pairs = [("Th", matrix_function(g.H, log_spectrum), eD, -1),
             ("Tc", matrix_function(g.C, log_spectrum), eD, +1),
             ("T", matrix_function(2.0 * gt.C,
                                   lambda e: 0.5 * log_spectrum(e)),
              (2.0 * evDt, vDt), +1)]
    b = slice(0, block)
    values = {}
    for name, X, (de, dv), s in pairs:
        xe, xv = X.evals, X.vecs
        sub = {}
        for t in ts:
            ph_v = np.exp(-1j * t * de)
            V_rows = spectral_compose(dv, ph_v, rows=b)
            V_cols = spectral_compose(dv, ph_v, cols=b)
            for a in azs:
                ph_w = np.exp(1j * a * xe)
                lhs = V_rows @ spectral_compose(xv, ph_w, cols=b)
                rhs = np.exp(1j * s * a * t) * (
                    spectral_compose(xv, ph_w, rows=b) @ V_cols)
                r = float(np.linalg.norm(lhs - rhs, 2)
                          / np.linalg.norm(rhs, 2))
                sub[f"t={t},a={a}"] = r
        values[name] = {"sign": s, "residuals": sub}
    worst = _worst(r for v in values.values() for r in v["residuals"].values())
    return CheckReport(
        name="weyl", passed=bool(worst < tol), residual=worst, tolerance=tol,
        params={"k": g.spec.k, "beta": g.spec.beta, "M": g.spec.M,
                "block": block, "ts": list(ts), "as": list(azs)},
        values=values)


def check_positive_inclusions(g: GeneratorSet, t: float = 0.05,
                              a: float = 0.3, block: int | None = None,
                              tol: float = 1e-3,
                              j_tol: float = 1e-10) -> CheckReport:
    """Modular conjugation of the translation and special-conformal flows.

    Delta^{it} = exp(-2 pi i t D) must scale U_h(a) = exp(i a H) to
    U_h(e^{-2 pi t} a) and U_c(a) to U_c(e^{+2 pi t} a); H, D, C are banded
    in this basis, so the flows are interior-exact to round-off and the
    identities hold on the interior block at far below tol.  The
    J-relations (J X J = X for H, C; = -X for D; J U_h(a) J = U_h(a)^*,
    the adjoint) are exact at the matrix level because the generators are
    real (times i for D) and J is componentwise conjugation.
    """
    M = g.M
    if block is None:
        block = M // 4
    b = slice(0, block)
    evD, vD = g.D.eigh()
    D_rows = spectral_compose(vD, np.exp(-2j * np.pi * t * evD), rows=b)
    values = {}
    flows = {}
    for name, X, scale in (("Uh", g.H, np.exp(-2.0 * np.pi * t)),
                           ("Uc", g.C, np.exp(2.0 * np.pi * t))):
        evX, vX = X.eigh()
        U = flows[name] = spectral_compose(vX, np.exp(1j * a * evX))
        lhs = D_rows @ U @ D_rows.conj().T
        rhs = spectral_compose(vX, np.exp(1j * scale * a * evX), rows=b,
                               cols=b)
        r = float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(rhs, 2))
        values[name] = r
    worst = _worst(values.values())
    Uh = flows["Uh"]
    H, D, C = (np.asarray(X) for X in (g.H, g.D, g.C))
    j_res = {
        "JUhJ=Uh*": float(np.max(np.abs(j_conjugate_matrix(Uh)
                                        - Uh.conj().T))),
        "JHJ=H": float(np.max(np.abs(j_conjugate_matrix(H) - H))),
        "JDJ=-D": float(np.max(np.abs(j_conjugate_matrix(D) + D))),
        "JCJ=C": float(np.max(np.abs(j_conjugate_matrix(C) - C))),
    }
    j_worst = _worst(j_res.values())
    values["J"] = j_res
    passed = bool(worst < tol and j_worst < j_tol)
    return CheckReport(
        name="positive_inclusions", passed=passed,
        residual=_worst((worst, j_worst)), tolerance=tol,
        params={"k": g.spec.k, "M": M, "t": t, "a": a, "block": block,
                "j_tol": j_tol},
        values=values)


# ---------------------------------------------------------------------------
# profile and convergence checks

def f_alpha_profile(fx: IntervalFixture, n_states: int = 5,
                    n_alpha: int = 21, tol: float = 1e-8) -> CheckReport:
    """F(alpha) = a^{-2 alpha} <(2 C~)^alpha> / |psi|^2 on [-1, 1].

    With (2 C~)^alpha = exp(2 alpha T), F = a^{-2 alpha} sum_j e^{2 alpha
    t_j} w_j / |psi|^2 over the fixture T's eigensystem.  Checks F(0) = 1
    (definition, with the represented norm), F(-1) <= 1, and discrete
    convexity: F is a positive combination of exponentials in alpha, so
    all second differences must be >= -tol.  Curve data for each state is
    returned in values.
    """
    alphas = np.linspace(-1.0, 1.0, n_alpha)
    powers = np.exp(2.0 * np.outer(alphas, fx.T.evals))
    curves = []
    errors = [0.0]
    for st in fx.states[:n_states]:
        ct = st["Ztilde"].data
        nt = float(np.vdot(ct, ct).real)
        F = fx.a ** (-2.0 * alphas) * (powers @ fx.T.weights(ct)) / nt
        i0 = n_alpha // 2
        d2 = np.diff(F, 2)
        errors += [abs(F[i0] - 1.0), F[0] - 1.0, -d2.min()]
        curves.append({"support": list(st["support"]),
                       "alphas": alphas.tolist(), "F": F.tolist(),
                       "F0": float(F[i0]), "Fm1": float(F[0]),
                       "min_second_difference": float(d2.min())})
    worst = _worst(errors)
    return CheckReport(
        name="f_alpha", passed=bool(worst <= tol), residual=float(worst),
        tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": n_states,
                "n_alpha": n_alpha},
        values={"curves": curves})


def check_S_invariance_convergence(a: float = 1.0, b: float = 2.0,
                                   k: float = 1.0, beta: float = 1.0,
                                   ladder=S_INV_LADDER,
                                   window: float = S_INV_WINDOW,
                                   tol: float = 1e-2,
                                   guard: float = 1e12) -> CheckReport:
    """r(M) = |exp(-pi D) P_W psi - J P_W psi| / |P_W psi| over a truncation
    ladder, on the symmetric window P_W of D-eigenvalues with |lambda| <=
    window.

    The window is forced by double precision: exp(-pi D) amplifies the
    negative-lambda components by e^{pi lambda}, and outside |lambda| ~ 4
    the amplified coefficient noise swamps the true KMS-decaying
    components.  J maps the window to itself (J D J = -D exactly), so the
    windowed statement is a genuine restriction of S psi = psi.  The check
    is the trend: r non-increasing along the ladder, with only the coarse
    tolerance on the final rung.  If the amplification inside the window
    would still exceed the guard, the report is marked inconclusive
    (passed = None), not failed.
    """
    bs = BumpSpec(a, b, samples=BUMP_SAMPLES)
    x, psi = make_bump(bs)
    prof = FourierProfile(x, psi)
    params = {"interval": [a, b], "k": k, "beta": beta,
              "ladder": list(ladder), "window": window}
    rs = []
    try:
        for M in ladder:
            sp = BasisSpec(k=k, beta=beta, M=M)
            gm = build_generators(sp)
            sv = positive_frequency(x, psi, sp, family="Z",
                                    max_residual=1e-2, profile=prof)
            v = sv.data
            evals, vecs = gm.D.eigh()
            amps = vecs.conj().T @ v
            sel = np.abs(evals) <= window
            if np.exp(np.pi * window) * np.max(np.abs(amps)) > guard:
                raise OverflowAbort(
                    f"window {window} amplifies components beyond {guard:.0e}")
            aw = np.where(sel, amps, 0.0)
            fac = np.where(sel, np.exp(-np.pi * np.where(sel, evals, 0.0)),
                           0.0)
            w = vecs @ (fac * aw)
            pw = vecs @ aw
            rs.append(float(np.linalg.norm(w - np.conj(pw))
                            / np.linalg.norm(pw)))
    except OverflowAbort as exc:
        return CheckReport(
            name="s_invariance", passed=None, residual=None, tolerance=tol,
            params=params, values={"r": rs}, error=f"OverflowAbort: {exc}")
    non_increasing = all(rs[i + 1] <= rs[i] * 1.05 for i in range(len(rs) - 1))
    passed = bool(non_increasing and rs[-1] <= tol)
    return CheckReport(
        name="s_invariance", passed=passed, residual=float(rs[-1]),
        tolerance=tol, params=params,
        values={"r": rs, "non_increasing": non_increasing})


def check_covariance_transport(fx: IntervalFixture, scale: float = 2.0,
                               tol: float = 1e-3) -> CheckReport:
    """Dilation covariance of T: conjugating by the pushed dilation flow
    shifts every <T> into the image interval's bounds.

    Lambda(scale) sends x to scale^2 x, so [a, b] goes to [scale^2 a,
    scale^2 b] and T transports to T + log(scale^2).  The conjugation uses
    the plain dilation generator in the tilde basis (2 D~) with flow
    parameter -log(scale^2); each transported expectation must land in
    [log(scale^2 a), log(scale^2 b)] within tol and sit near the base
    value plus log(scale^2).  The states are flowed, not T: <F T F^* ct>
    = <W, T W> with W = F^* ct, flowed through the eigensystem of 2 D~.
    """
    shift = np.log(scale * scale)
    lo = np.log(scale * scale * fx.a)
    hi = np.log(scale * scale * fx.b)
    evals, vecs = (2.0 * fx.gt.D).eigh()
    cts = np.stack([st["Ztilde"].data for st in fx.states], 1)
    W = vecs @ (np.exp(1j * shift * evals)[:, None] * (vecs.conj().T @ cts))
    transported = fx.T.expect(W)
    excursions = [0.0]
    shifts = [0.0]
    per_state = []
    for st, es, tw in zip(fx.states, fx.spectral_table, transported):
        base = es["T"]
        val = float(tw) / es["tilde_norm_sq"]
        excursions += [lo - val, val - hi]
        shifts.append(abs(val - base - shift))
        per_state.append({"support": list(st["support"]), "base": base,
                          "transported": val})
    worst = _worst(excursions)
    worst_shift = _worst(shifts)
    passed = bool(worst <= tol)
    return CheckReport(
        name="covariance", passed=passed, residual=float(worst),
        tolerance=tol,
        params={"interval": [fx.a, fx.b], "scale": scale,
                "image_bounds": [float(lo), float(hi)],
                "n_states": len(fx.states)},
        values={"worst_excursion": float(worst),
                "worst_shift_deviation": float(worst_shift),
                "per_state": per_state})


def check_grid_convergence(k: float = 1.0, E_max: float = 40.0,
                           Ns=(512, 1024, 2048, 4096),
                           tol: float = 0.2) -> CheckReport:
    """Order of convergence of the grid rotation ground eigenvalue to k.

    The scheme is second-order central differences, so the error in the
    lowest eigenvalue of (H + C)/2 must fall like h^2: every successive
    halving of h must show an observed order within tol of 2.
    """
    errs = []
    for N in Ns:
        rep = build_grid_ops(GridSpec(N=N, E_max=E_max), k)
        lo = (0.5 * (rep.H + rep.C)).eigh(eigvals_only=True, select="i",
                                          select_range=(0, 0))[0]
        errs.append(abs(float(lo) - k))
    orders = [float(np.log2(errs[i] / errs[i + 1]))
              for i in range(len(errs) - 1)]
    worst = _worst(abs(o - 2.0) for o in orders)
    return CheckReport(
        name="grid_convergence", passed=bool(worst <= tol),
        residual=float(worst), tolerance=tol, backend="grid",
        params={"k": k, "E_max": E_max, "Ns": list(Ns)},
        values={"errors": errs, "orders": orders})


# ---------------------------------------------------------------------------
# suite

@dataclass
class SuiteResult:
    reports: list
    aggregate_pass: bool
    config: dict
    elapsed: float | None

    def to_dict(self) -> dict:
        return {
            "config": _plain(self.config),
            "aggregate_pass": self.aggregate_pass,
            "reports": [r.to_dict() for r in self.reports],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SuiteResult":
        """The result to_dict wrote; the wall time is not stored, so
        elapsed is None."""
        keys = {f.name for f in fields(CheckReport)}
        reports = [CheckReport(**{k: v for k, v in d.items() if k in keys})
                   for d in doc["reports"]]
        return cls(reports=reports, aggregate_pass=doc["aggregate_pass"],
                   config=doc.get("config", {}), elapsed=None)


def _suite_checks(config: dict, profile: ToleranceProfile):
    """Yield (name, thunk) pairs in deterministic order for a config with
    every key of RunConfig.suite_config."""
    k, beta, M = config["k"], config["beta"], config["M"]
    grid_n, grid_emax = config["grid_n"], config["grid_emax"]
    intervals = [tuple(iv) for iv in config["intervals"]]
    cache: dict = {}

    def reps(m=M):
        if m not in cache:
            g = build_generators(BasisSpec(k=k, beta=beta, M=m))
            cache[m] = g, build_tilde_generators(g)
        return cache[m]

    def fixture(iv):
        if iv not in cache:
            cache[iv] = build_interval_fixture(
                *iv, k=k, M=config["fixture_M"], grid_n=grid_n,
                n_bumps=config["n_bumps"], seed=config["seed"],
                family=config["bump"])
        return cache[iv]

    yield ("commutators_plain",
           lambda: check_commutators(reps()[0],
                                     tol=profile.tol("commutators_plain")))
    yield ("commutators_tilde",
           lambda: check_commutators(reps()[1],
                                     tol=profile.tol("commutators_tilde")))
    yield ("commutators_grid_plain",
           lambda: check_commutators(
               build_grid_ops(GridSpec(N=grid_n, E_max=grid_emax), k),
               tol=profile.tol("commutators_grid"), triple="plain"))
    # the tilde triple needs a denser grid per unit energy: C~ carries the
    # full 1/h^2 stencil while its smooth modes live at low energy
    yield ("commutators_grid_tilde",
           lambda: check_commutators(
               build_grid_ops(GridSpec(N=grid_n,
                                       E_max=config["grid_emax_tilde"]), k),
               tol=profile.tol("commutators_grid"), triple="tilde"))
    yield ("lowest_weights",
           lambda: check_lowest_weights(beta=beta, M=M,
                                        tol=profile.tol("lowest_weights")))
    for iv in intervals:
        yield (f"d_positive[{iv[0]},{iv[1]}]",
               lambda iv=iv: check_D_positive(fixture(iv),
                                              tol=profile.tol("d_positive")))
        yield (f"hc_chain[{iv[0]},{iv[1]}]",
               lambda iv=iv: check_HC_chain(fixture(iv),
                                            tol=profile.tol("hc_chain")))
        yield (f"t_bounds[{iv[0]},{iv[1]}]",
               lambda iv=iv: check_T_bounds(fixture(iv),
                                            tol=profile.tol("t_bounds")))
    yield ("weyl", lambda: check_weyl(*reps(config["weyl_M"]),
                                      tol=profile.tol("weyl")))
    yield ("positive_inclusions",
           lambda: check_positive_inclusions(
               reps()[0], tol=profile.tol("positive_inclusions")))
    yield ("f_alpha",
           lambda: f_alpha_profile(fixture(intervals[0]),
                                   tol=profile.tol("f_alpha")))
    yield ("s_invariance",
           lambda: check_S_invariance_convergence(
               k=k, beta=beta, tol=profile.tol("s_invariance")))
    yield ("covariance",
           lambda: check_covariance_transport(
               fixture(intervals[0]), tol=profile.tol("covariance")))
    yield ("grid_convergence",
           lambda: check_grid_convergence(
               k=k, E_max=grid_emax, tol=profile.tol("grid_convergence")))


def run_suite(config: dict | None = None,
              profile: ToleranceProfile | str = "default",
              scope: list | None = None) -> SuiteResult:
    """Run the named checks in deterministic order.

    config overrides RunConfig's suite defaults (RunConfig.suite_config);
    an unknown key raises ConfigError, while values are left to the checks
    that use them.  scope is a list of name prefixes; None means
    everything, an empty list selects nothing.  Per-check exceptions
    become failed-with-error reports and never abort the suite;
    inconclusive reports (passed = None) do not count against the aggregate.
    The result records the resolved config, the profile name and scope.
    """
    if config is None:
        config = {}
    if isinstance(profile, str):
        profile = ToleranceProfile.preset(profile)
    full = RunConfig().suite_config()
    unknown = sorted(set(config) - set(full))
    if unknown:
        raise ConfigError(f"unknown suite config keys: {unknown}")
    full.update(config)
    start = time.perf_counter()
    reports = []
    for name, thunk in _suite_checks(full, profile):
        if scope is not None and not any(name.startswith(s) for s in scope):
            continue
        try:
            rep = thunk()
            rep.name = name
        except Exception as exc:  # noqa: BLE001 - suite must never abort
            rep = CheckReport(name=name, passed=False, residual=None,
                              tolerance=None,
                              error=f"{type(exc).__name__}: {exc}")
        reports.append(rep)
    aggregate = all(r.passed is not False for r in reports)
    cfg = dict(full)
    cfg["profile"] = profile.name
    cfg["scope"] = scope
    return SuiteResult(reports=reports, aggregate_pass=bool(aggregate),
                       config=cfg, elapsed=time.perf_counter() - start)
