"""The theorem-checking suite: each operator identity or inequality the
construction promises becomes a named, parameterized check emitting a
CheckReport.  A check does no linear algebra itself: it states its
identity through the operator types' methods and gates the numbers.

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

import numpy as np

from .artifacts import RunConfig
from .errors import ConfigError, OverflowAbort
from .gridop import GridRep, GridSpec, build_grid_ops
from .laguerre import BasisSpec
from .localization import (BumpSpec, FourierProfile, positive_frequency,
                           project_bumps)
from .spectral import (
    INTERIOR_FRACTION,
    GeneratorSet,
    HermitianOperator,
    build_T,
    build_generators,
    build_tilde_generators,
    log_spectrum,
    relative_residual,
)

__all__ = [
    "CheckReport",
    "ToleranceProfile",
    "IntervalFixture",
    "BACKENDS",
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
]

# default bump budget and fixture truncation matching the acceptance scale
N_BUMPS = RunConfig.n_bumps
FIXTURE_M = RunConfig.fixture_M
WEYL_BLOCK = 16
S_INV_INTERVAL = (1.0, 2.0)
S_INV_WINDOW = 3.0
S_INV_LADDER = (64, 128, 256, 512)
# the d_positive non-vacuity control: random coefficient vectors and their seed
D_CONTROLS = 100
D_CONTROL_SEED = 7


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
        return _plain({f.name: getattr(self, f.name) for f in fields(self)})


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

REGISTERED_CHECKS = tuple(_DEFAULT_TOLS)


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
            keep = ("hc_chain", "grid_convergence", "s_invariance")
            return cls("strict", {k: v if k in keep else v / 100.0
                                  for k, v in _DEFAULT_TOLS.items()})
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

    The representation scale is beta = ((a+b)/3)^2 and the grid range
    E_max = max(40, 160/b) (fixture_beta, fixture_emax).  Both rules were
    fitted to the default intervals and do not resolve every interval
    equally: beta grows like x^2 where the plain family needs beta ~ x,
    and E_max stops at its floor for b >= 4, so narrow intervals (b/a <=
    1.5) and far scales such as [0.25, 0.5] and [16, 32] miss projection
    gates.  The bump profiles add no cause of their own: each is its
    family's unit-window transform at the bump's centre and scale
    (FourierProfile), the same at every scale.

    table(backend) is the expectation table of one backend of BACKENDS,
    built on first use and kept per instance (a dataclasses.replace copy
    builds its own).
    """

    a: float
    b: float
    spec: BasisSpec
    g: GeneratorSet
    gt: GeneratorSet
    T: HermitianOperator
    grid: GridSpec
    rep: GridRep
    states: list  # >= 1 dicts: sub-interval, spectral/tilde/grid StateVectors
    seed: int
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def block(self, backend: str) -> np.ndarray:
        """The backend's data of every state, one column per state."""
        return np.stack([st[backend].data for st in self.states], axis=1)

    def table(self, backend: str) -> list:
        """One row of expectation values per state in the backend."""
        if backend not in self._tables:
            self._tables[backend] = BACKENDS[backend](self)
        return self._tables[backend]


def _expectation_table(plain, tilde, ops, weight: float) -> list:
    """One row per column of the blocks: "norm_sq", "H", "C", "D" on the
    plain block, "tilde_norm_sq", "Ctilde" and the normalized "T" on the
    tilde block.  ops is (H, C, D, C~, T); each value is weight times a
    block inner product (1 for basis coefficients, the spacing for grid
    samples)."""
    H, C, D, Ct, T = ops
    norm, tnorm = (weight * np.einsum("ij,ij->j", X.conj(), X).real
                   for X in (plain, tilde))
    cols = {"norm_sq": norm, "tilde_norm_sq": tnorm,
            "H": weight * H.expect(plain), "C": weight * C.expect(plain),
            "D": weight * D.expect(plain), "Ctilde": weight * Ct.expect(tilde),
            "T": weight * T.expect(tilde) / tnorm}
    return [dict(zip(cols, map(float, row))) for row in zip(*cols.values())]


def _spectral_backend(fx: IntervalFixture) -> list:
    """The table on the plain and the squared-argument coefficients."""
    g, gt = fx.g, fx.gt
    return _expectation_table(fx.block("Z"), fx.block("Ztilde"),
                              (g.H, g.C, g.D, gt.C, fx.T), 1.0)


def _grid_backend(fx: IntervalFixture) -> list:
    """The same table on the grid samples, which serve both families."""
    rep, X = fx.rep, fx.block("grid")
    return _expectation_table(X, X, (rep.H, rep.C, rep.D, rep.Ctilde, rep.T),
                              rep.grid.spacing)


# every fixture backend, in report order: its name and its table builder
BACKENDS = {"spectral": _spectral_backend, "grid": _grid_backend}


def fixture_beta(a: float, b: float) -> float:
    return ((a + b) / 3.0) ** 2


def fixture_emax(b: float) -> float:
    return max(40.0, 160.0 / b)


def build_interval_fixture(a: float, b: float, k: float = 1.0,
                           M: int = FIXTURE_M, grid_n: int = RunConfig.grid_n,
                           n_bumps: int = N_BUMPS, seed: int = 0,
                           family: str = "mollifier") -> IntervalFixture:
    """Build operators and n_bumps >= 1 localized states for the interval
    [a, b].

    The first bump fills [a, b]; the rest sit on random sub-intervals with
    width at least 0.6 (b - a), so every state is local in [a, b] while the
    ensemble varies.  The bumps share one family, so one profile feeds one
    batched projection per backend.
    """
    if n_bumps < 1:
        raise ValueError(f"a fixture needs n_bumps >= 1, got {n_bumps}")
    spec = BasisSpec(k=k, beta=fixture_beta(a, b), M=M)
    g = build_generators(spec)
    gt = build_tilde_generators(g)
    # squared-argument states keep about 1e-3 of their norm in the last
    # rows, where log(2 C~) truncated at M is wrong; at 2M it is not
    T = build_T(gt, log_M=2 * M)
    grid = GridSpec(N=grid_n, E_max=fixture_emax(b))
    rep = build_grid_ops(grid, k)
    rng = np.random.default_rng(seed)
    w = b - a
    bumps = [BumpSpec(a, b, family=family)] + [
        BumpSpec(a + 0.2 * w * rng.random(), b - 0.2 * w * rng.random(),
                 family=family) for _ in range(n_bumps - 1)]
    prof = FourierProfile(bumps)
    prov = [{"interval": [a, b], "support": [bs.a, bs.b], "seed": seed,
             "index": i, "family": family} for i, bs in enumerate(bumps)]
    svs = project_bumps(prof, spec, "Z", provenance=prov)
    # the squared-argument family converges slowly at the origin
    # (coefficient tail ~ u^{1/4}); its norm residual is near 1e-2 at the
    # default M and falls only slowly with M
    svts = project_bumps(prof, spec, "Ztilde", max_residual=3e-2,
                         provenance=prov)
    svgs = project_bumps(prof, grid, max_residual=1e-3, provenance=prov)
    states = [{"support": (bs.a, bs.b), "Z": sv, "Ztilde": svt, "grid": svg,
               "bump": bs} for bs, sv, svt, svg in zip(bumps, svs, svts, svgs)]
    return IntervalFixture(a=a, b=b, spec=spec, g=g, gt=gt, T=T, grid=grid,
                           rep=rep, states=states, seed=seed)


# ---------------------------------------------------------------------------
# operator identity checks

def check_commutators(g, tol: float | None = None,
                      triple: str = "plain") -> CheckReport:
    """Relative residuals of [H,D]=iH, [C,D]=-iC, [H,C]=2iD: the backend's
    commutator_residuals.

    g is a GeneratorSet (spectral backend, interior-projected) or a GridRep
    (finite differences, on windowed smooth rotation modes); triple selects
    the plain or the squared-coordinate generator triple on the grid.  tol
    defaults to the default profile's entry for the backend and triple.
    """
    if isinstance(g, GridRep):
        backend, key = "grid", "commutators_grid"
        name = f"{key}_{triple}"
        res = g.commutator_residuals(triple=triple)
        params = {"N": g.grid.N, "E_max": g.grid.E_max, "k": g.k,
                  "triple": triple}
    else:
        backend, key = "spectral", f"commutators_{g.variant}"
        name, res = key, g.commutator_residuals()
        params = {"k": g.spec.k, "beta": g.spec.beta, "M": g.spec.M,
                  "variant": g.variant, "interior_fraction": INTERIOR_FRACTION}
    tol = _DEFAULT_TOLS[key] if tol is None else tol
    worst = _worst(res.values())
    return CheckReport(name=name, passed=bool(worst < tol), residual=worst,
                       tolerance=tol, params=params, backend=backend,
                       values={xy: float(v) for xy, v in res.items()})


def check_lowest_weights(ks=(1.0, 1.5, 2.0), beta: float = 1.0,
                         M: int = RunConfig.M,
                         tol: float = _DEFAULT_TOLS["lowest_weights"]
                         ) -> CheckReport:
    """min eig (H+C)/2 = k and min eig (H~+C~)/2 = k/2 + 1/4 for each k."""
    values = {}
    errors = []
    for k in ks:
        spec = BasisSpec(k=k, beta=beta, M=M)
        g = build_generators(spec)
        gt = build_tilde_generators(g)
        lo, lo_t = (x.rotation().eigval(0) for x in (g, gt))
        values[f"k={k}"] = {"plain": lo, "tilde": lo_t,
                            "expected": [k, spec.tilde_k]}
        errors += [abs(lo - k), abs(lo_t - spec.tilde_k)]
    worst = _worst(errors)
    return CheckReport(
        name="lowest_weights", passed=bool(worst < tol), residual=worst,
        tolerance=tol, params={"ks": list(ks), "beta": beta, "M": M},
        values=values)


# ---------------------------------------------------------------------------
# localization chain checks

def _rows(fx: IntervalFixture):
    """Yield each state's support and its rows, {backend: row} over
    BACKENDS."""
    tables = {name: fx.table(name) for name in BACKENDS}
    for i, st in enumerate(fx.states):
        yield list(st["support"]), {name: t[i] for name, t in tables.items()}


def check_D_positive(fx: IntervalFixture,
                     tol: float = _DEFAULT_TOLS["d_positive"]) -> CheckReport:
    """<D> >= -tol on every local state, in every backend.

    The non-vacuity control draws D_CONTROLS random coefficient vectors
    (not local states), evaluated as one block, and requires at least one
    with strictly negative <D>; the report fails if the control finds none,
    which would mean the check cannot distinguish anything.
    """
    per_state = [{"support": support, **{n: e["D"] for n, e in rows.items()}}
                 for support, rows in _rows(fx)]
    worst = _worst((ps[n] for ps in per_state for n in BACKENDS), min)
    # each control draws its real, then its imaginary part
    z = np.random.default_rng(D_CONTROL_SEED).standard_normal(
        (D_CONTROLS, 2, fx.spec.M))
    control_min = _worst(fx.g.D.expect((z[:, 0] + 1j * z[:, 1]).T), min)
    passed = bool(worst >= -tol and control_min < 0.0)
    return CheckReport(
        name="d_positive", passed=passed, residual=float(-worst),
        tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": len(fx.states),
                "control_seed": D_CONTROL_SEED, "n_control": D_CONTROLS},
        values={"min_expectation": float(worst),
                "control_min": float(control_min),
                "per_state": per_state})


def check_HC_chain(fx: IntervalFixture,
                   tol: float = _DEFAULT_TOLS["hc_chain"]) -> CheckReport:
    """a^2 <H> <= <C> <= b^2 <H> and a^2/2 |psi|^2 < <C~> < b^2/2 |psi|^2.

    The residual, minus the least slack, passes below tol: tol = 0 demands
    the strict slack the propositions promise for states local in (a, b).
    """
    a2, b2 = fx.a ** 2, fx.b ** 2
    per_state = []
    for support, rows in _rows(fx):
        for name, e in rows.items():
            nt = e["tilde_norm_sq"]
            slacks = (e["C"] - a2 * e["H"], b2 * e["H"] - e["C"],
                      e["Ctilde"] - 0.5 * a2 * nt,
                      0.5 * b2 * nt - e["Ctilde"])
            per_state.append({"support": support, "backend": name,
                              "H": e["H"], "C": e["C"], "Ctilde": e["Ctilde"],
                              "slacks": [float(s) for s in slacks]})
    min_slack = _worst((s for p in per_state for s in p["slacks"]), min)
    return CheckReport(
        name="hc_chain", passed=bool(-min_slack < tol),
        residual=float(-min_slack), tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": len(fx.states)},
        values={"min_slack": float(min_slack), "per_state": per_state})


def check_T_bounds(fx: IntervalFixture, tol: float = _DEFAULT_TOLS["t_bounds"],
                   agreement_tol: float = 1e-3) -> CheckReport:
    """log a - tol <= <T>/|psi|^2 <= log b + tol in every backend, and the
    spectral and grid backends agree on <T>/|psi|^2 to agreement_tol
    (relative).  The residual is the signed worst bound excursion, the
    number tol gates: negative when every state sits inside the bounds, by
    that margin.  values["failed_gates"] names the gates ("bound",
    "agreement") that failed."""
    la, lb = np.log(fx.a), np.log(fx.b)
    per_state = []
    for support, rows in _rows(fx):
        T = {n: e["T"] for n, e in rows.items()}
        # the one gate that names backends: two truncations against each
        # other, until a truncation-free reference backend replaces it
        agree = abs(T["spectral"] - T["grid"]) / max(abs(T["grid"]), 1.0)
        per_state.append({"support": support, **T, "agreement": float(agree)})
    worst_out = _worst(x for ps in per_state for n in BACKENDS
                       for x in (la - ps[n], ps[n] - lb))
    worst_agree = _worst(ps["agreement"] for ps in per_state)
    failed = [gate for gate, ok in
              (("bound", worst_out <= tol),
               ("agreement", worst_agree <= agreement_tol)) if not ok]
    return CheckReport(
        name="t_bounds", passed=not failed,
        residual=float(worst_out), tolerance=tol,
        params={"interval": [fx.a, fx.b], "bounds": [float(la), float(lb)],
                "agreement_tol": agreement_tol, "n_states": len(fx.states),
                "grid_T_nodes": int(fx.rep.T.nodes.size),
                "grid_T_range": list(fx.rep.T.spectral_range)},
        values={"worst_excursion": float(worst_out),
                "worst_agreement": float(worst_agree),
                "failed_gates": failed, "per_state": per_state})


# ---------------------------------------------------------------------------
# flow and Weyl checks

def check_weyl(g: GeneratorSet, gt: GeneratorSet,
               ts=(0.1, 0.3), azs=(0.2, 0.5),
               tol: float = _DEFAULT_TOLS["weyl"]) -> CheckReport:
    """Weyl relations V(t) W(a) = e^{i s a t} W(a) V(t) on a fixed interior
    observation block of WEYL_BLOCK rows.

    V(t) = exp(-i t D) is the modular dilation flow; W(a) exponentiates the
    coordinate (T_h, T_c, or T).  The phase sign s is -1 for T_h and +1 for
    T_c and T (the flow shifts log H down and log C, T up).  The residual
    is measured on a small fixed block: the log coordinates are full
    matrices, so their truncation error decays only algebraically from the
    boundary, and the observation window must stay well inside.
    """
    # H and C share one eigensystem; T is the one build_T gives, and the
    # plain dilation generator in the tilde basis is 2 D~
    D = g.D.eigensystem()
    H, C = g.hc_eigensystems()
    pairs = [("Th", H.function(log_spectrum), D, -1),
             ("Tc", C.function(log_spectrum), D, +1),
             ("T", build_T(gt), (2.0 * gt.D).eigensystem(), +1)]
    b = slice(0, WEYL_BLOCK)
    values = {}
    for name, W, V, s in pairs:
        sub = {}
        for t in ts:
            # V(-t)[:, b] = V(t)[b]^* and W(a)[:, b] = W(-a)[b]^*: row blocks
            Vm, Vp = V.flow(-t, rows=b), V.flow(t, rows=b)
            for a in azs:
                lhs = Vm @ W.flow(-a, rows=b).conj().T
                rhs = W.flow(a, rows=b) @ Vp.conj().T
                sub[f"t={t},a={a}"] = relative_residual(
                    lhs, np.exp(1j * s * a * t) * rhs)
        values[name] = {"sign": s, "residuals": sub}
    worst = _worst(r for v in values.values() for r in v["residuals"].values())
    return CheckReport(
        name="weyl", passed=bool(worst < tol), residual=worst, tolerance=tol,
        params={"k": g.spec.k, "beta": g.spec.beta, "M": g.spec.M,
                "block": WEYL_BLOCK, "ts": list(ts), "as": list(azs)},
        values=values)


def check_positive_inclusions(g: GeneratorSet, t: float = 0.05, a: float = 0.3,
                              tol: float = _DEFAULT_TOLS["positive_inclusions"],
                              j_tol: float = 1e-10) -> CheckReport:
    """Modular conjugation of the translation and special-conformal flows.

    Delta^{it} = exp(-2 pi i t D) must scale U_h(a) = exp(i a H) to
    U_h(e^{-2 pi t} a) and U_c(a) to U_c(e^{+2 pi t} a); H, D, C are banded
    in this basis, so the flows are interior-exact to round-off and the
    identities hold on the interior block of the first M/4 rows at far
    below tol.  The J-relations (J X J = X for H, C; = -X for D; J U_h(a) J
    = U_h(a)^*, the adjoint) are exact at the matrix level because the
    generators are real (times i for D) and J is componentwise conjugation.
    """
    M = g.M
    block = M // 4
    b = slice(0, block)
    D_rows = g.D.eigensystem().flow(-2.0 * np.pi * t, rows=b)
    values = {}
    flows = {}
    for name, X, scale in zip(("Uh", "Uc"), g.hc_eigensystems(),
                              np.exp([-2.0 * np.pi * t, 2.0 * np.pi * t])):
        U = flows[name] = X.flow(a)
        values[name] = relative_residual(D_rows @ U @ D_rows.conj().T,
                                         X.flow(scale * a, rows=b, cols=b))
    worst = _worst(values.values())
    Uh = flows["Uh"]
    j_res = {"JUhJ=Uh*": float(np.max(np.abs(np.conj(Uh) - Uh.conj().T)))}
    # the lower band is the conjugate of the upper one, so the two bands
    # hold every entry of J X J -/+ X
    for name, X, sign in (("JHJ=H", g.H, 1), ("JDJ=-D", g.D, -1),
                          ("JCJ=C", g.C, 1)):
        j_res[name] = float(max(np.max(np.abs(np.conj(band) - sign * band))
                                for band in (X.diag, X.upper)))
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

def f_alpha_profile(fx: IntervalFixture, n_states: int = 5, n_alpha: int = 21,
                    tol: float = _DEFAULT_TOLS["f_alpha"]) -> CheckReport:
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
    norms = [e["tilde_norm_sq"] for e in fx.table("spectral")[:n_states]]
    weights = fx.T.weights(fx.block("Ztilde")[:, :n_states])
    # one column of F per state
    F = (fx.a ** (-2.0 * alphas))[:, None] * (powers @ weights) / norms
    i0 = n_alpha // 2
    d2 = np.diff(F, 2, axis=0).min(axis=0)
    curves = [{"support": list(st["support"]), "alphas": alphas.tolist(),
               "F": f.tolist(), "F0": float(f[i0]), "Fm1": float(f[0]),
               "min_second_difference": float(m)}
              for st, f, m in zip(fx.states, F.T, d2)]
    worst = _worst(np.concatenate([np.abs(F[i0] - 1.0), F[0] - 1.0, -d2]))
    return CheckReport(
        name="f_alpha", passed=bool(worst <= tol), residual=float(worst),
        tolerance=tol,
        params={"interval": [fx.a, fx.b], "n_states": len(curves),
                "n_alpha": n_alpha},
        values={"curves": curves})


def check_S_invariance_convergence(k: float = 1.0, beta: float = 1.0,
                                   ladder=S_INV_LADDER,
                                   tol: float = _DEFAULT_TOLS["s_invariance"],
                                   guard: float = 1e12) -> CheckReport:
    """r(M) = |exp(-pi D) P_W psi - J P_W psi| / |P_W psi| over a truncation
    ladder, for the bump filling S_INV_INTERVAL, on the symmetric window
    P_W of D-eigenvalues with |lambda| <= S_INV_WINDOW.

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
    def window(e):
        return np.where(np.abs(e) <= S_INV_WINDOW, 1.0, 0.0)

    bump = BumpSpec(*S_INV_INTERVAL)
    params = {"interval": list(S_INV_INTERVAL), "k": k, "beta": beta,
              "ladder": list(ladder), "window": S_INV_WINDOW}
    rs = []
    try:
        for M in ladder:
            sp = BasisSpec(k=k, beta=beta, M=M)
            D = build_generators(sp).D.eigensystem()
            v = positive_frequency(bump, sp, family="Z",
                                   max_residual=1e-2).data
            amp = np.max(D.weights(v)[np.abs(D.evals) <= S_INV_WINDOW])
            if np.exp(np.pi * S_INV_WINDOW) * np.sqrt(amp) > guard:
                raise OverflowAbort(f"window {S_INV_WINDOW} amplifies "
                                    f"components beyond {guard:.0e}")
            pw = D.apply(window, v)
            # exp sees 0 outside the window, where it would overflow
            w = D.apply(lambda e: window(e) * np.exp(-np.pi * (e * window(e))),
                        v)
            rs.append(relative_residual(w, np.conj(pw)))
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
                               tol: float = _DEFAULT_TOLS["covariance"]
                               ) -> CheckReport:
    """Dilation covariance of T: conjugating by the pushed dilation flow
    shifts every <T> into the image interval's bounds.

    Lambda(scale) sends x to scale^2 x, so [a, b] goes to [scale^2 a,
    scale^2 b] and T transports to T + log(scale^2).  The conjugation uses
    the plain dilation generator in the tilde basis (2 D~) with flow
    parameter -log(scale^2); each transported expectation must land in
    [log(scale^2 a), log(scale^2 b)] within tol.  Its distance from the
    base value plus log(scale^2) is reported (worst_shift_deviation) but
    not gated.  The states are flowed, not T: <F T F^* ct> = <W, T W> with
    W = F^* ct, flowed through the eigensystem of 2 D~.  The residual is
    the signed worst excursion from the image bounds, negative by the
    margin when every state lands inside.
    """
    shift = np.log(scale * scale)
    lo = np.log(scale * scale * fx.a)
    hi = np.log(scale * scale * fx.b)
    W = (2.0 * fx.gt.D).eigensystem().apply(lambda e: np.exp(1j * shift * e),
                                            fx.block("Ztilde"))
    transported = fx.T.expect(W)
    excursions = []
    shifts = []
    per_state = []
    for st, es, tw in zip(fx.states, fx.table("spectral"), transported):
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


def check_grid_convergence(k: float = 1.0, E_max: float = RunConfig.grid_emax,
                           Ns=(512, 1024, 2048, 4096),
                           tol: float = _DEFAULT_TOLS["grid_convergence"]
                           ) -> CheckReport:
    """Order of convergence of the grid rotation ground eigenvalue to k.

    The scheme is second-order central differences, so the error in the
    lowest eigenvalue of (H + C)/2 must fall like h^2: every successive
    halving of h must show an observed order within tol of 2.
    """
    errs = []
    for N in Ns:
        rep = build_grid_ops(GridSpec(N=N, E_max=E_max), k)
        errs.append(abs((0.5 * (rep.H + rep.C)).eigval(0) - k))
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


def _suite_checks(cfg: RunConfig, profile: ToleranceProfile):
    """Yield (name, thunk) pairs in deterministic order for a run config."""
    k, beta, M = cfg.k, cfg.beta, cfg.M
    grid_n, grid_emax = cfg.grid_n, cfg.grid_emax
    intervals = [tuple(iv) for iv in cfg.intervals]
    cache: dict = {}

    def reps(m=M):
        if m not in cache:
            g = build_generators(BasisSpec(k=k, beta=beta, M=m))
            cache[m] = g, build_tilde_generators(g)
        return cache[m]

    def fixture(iv):
        if iv not in cache:
            cache[iv] = build_interval_fixture(
                *iv, k=k, M=cfg.fixture_M, grid_n=grid_n,
                n_bumps=cfg.n_bumps, seed=cfg.seed, family=cfg.bump)
        return cache[iv]

    for i, name in enumerate(("commutators_plain", "commutators_tilde")):
        yield (name, lambda i=i, name=name: check_commutators(
            reps()[i], tol=profile.tol(name)))
    # the tilde triple needs a denser grid per unit energy: C~ carries the
    # full 1/h^2 stencil while its smooth modes live at low energy
    for triple, emax in (("plain", grid_emax),
                         ("tilde", cfg.grid_emax_tilde)):
        yield (f"commutators_grid_{triple}",
               lambda triple=triple, emax=emax: check_commutators(
                   build_grid_ops(GridSpec(N=grid_n, E_max=emax), k),
                   tol=profile.tol("commutators_grid"), triple=triple))
    yield ("lowest_weights",
           lambda: check_lowest_weights(beta=beta, M=M,
                                        tol=profile.tol("lowest_weights")))
    for iv in intervals:
        for name, check in (("d_positive", check_D_positive),
                            ("hc_chain", check_HC_chain),
                            ("t_bounds", check_T_bounds)):
            yield (f"{name}[{iv[0]},{iv[1]}]",
                   lambda iv=iv, name=name, check=check: check(
                       fixture(iv), tol=profile.tol(name)))
    yield ("weyl", lambda: check_weyl(*reps(cfg.weyl_M),
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
    an unknown key or a value RunConfig rejects raises ConfigError before
    any check runs.  scope is a list of name prefixes; None means
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
    cfg = RunConfig(**{**full, **config})
    start = time.perf_counter()
    reports = []
    for name, thunk in _suite_checks(cfg, profile):
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
    return SuiteResult(reports=reports, aggregate_pass=bool(aggregate),
                       config={**cfg.suite_config(), "profile": profile.name,
                               "scope": scope},
                       elapsed=time.perf_counter() - start)
