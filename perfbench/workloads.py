"""Seeded inputs and one pass of each benchmark workload.

Inputs are drawn from the workload seed with the standard library only, and
modloc sees nothing but those inputs.  A pass returns one record per
operation with its verdict, so a speed-up that flips a verdict shows next to
the timing.  modloc functions are looked up through their modules at call
time, so the Tracer's patches see every call.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED SIZE`) it
imports modloc, draws the inputs and prints `ready`: the set-up probe.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time

# "full" is the benchmark; "toy" keeps every code path at a size the smoke
# test can afford.  verify_default overrides only n_bumps of the default
# RunConfig: at the default 20 bumps one pass takes about two minutes on two
# cores, too long to repeat; three bumps per interval still share a fixture
SIZES = {
    "full": {
        "verify": {"n_bumps": 3},
        "checks": 20,
        "ladder": (256, 512, 1024),
        "n_intervals": 8,
    },
    "toy": {
        "verify": {"n_bumps": 1, "M": 128, "intervals": [[1.0, 2.0]]},
        "checks": 14,
        "ladder": (32, 64),
        "n_intervals": 1,
    },
}

LADDER_KS = (1.0, 1.5, 2.0)
A_RANGE = (0.5, 4.0)
RATIO_RANGE = (1.5, 2.5)
LADDER_BETA = 1.0
WEIGHT_TOL = 1e-6
BOUND_TOL = 1e-6
AGREEMENT_TOL = 1e-3


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Every input of one run, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]
    if workload == "verify_default":
        from modloc.artifacts import RunConfig

        cfg = RunConfig(seed=rng.getrandbits(32), **sz["verify"])
        return {"config": cfg.suite_config(), "checks": sz["checks"]}
    if workload == "rep_ladder":
        return {"rungs": [(M, rng.choice(LADDER_KS)) for M in sz["ladder"]]}
    if workload == "localize_cold":
        # the corner of the range (lowest a, narrowest b/a) needs the finest
        # energy mesh and sets the peak memory; it is in every pass, so the
        # peak does not hang on one draw.  The others are stratified: slot i
        # takes the i-th slice of log a and of b/a, so every seed covers
        # both ranges and the cost of a pass varies little between seeds
        (a_lo, a_hi), (r_lo, r_hi) = A_RANGE, RATIO_RANGE
        intervals = [(a_lo, a_lo * r_lo)]
        n = sz["n_intervals"] - 1
        for i in range(n):
            a = a_lo * (a_hi / a_lo) ** ((i + rng.random()) / n)
            ratio = r_lo + (r_hi - r_lo) * (i + rng.random()) / n
            intervals.append((a, a * ratio))
        return {"intervals": intervals}
    raise ValueError(f"unknown workload {workload!r}")


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _op(name, ok, residual=None, verdict=None, error=None) -> dict:
    return {"name": name, "ok": bool(ok), "residual": residual,
            "verdict": verdict, "error": error}


def _each(items, name, one) -> list:
    """One op per item, timed; an op that raises is a failed op.  Each op's
    arrays are freed before the next starts, so peak memory is that of the
    largest op alone."""
    ops = []
    for item in items:
        start = time.perf_counter()
        try:
            op = _op(name(item), *one(item))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            op = _op(name(item), False, error=f"{type(exc).__name__}: {exc}")
        op["s"] = time.perf_counter() - start
        ops.append(op)
    return ops


def verify_default(inputs: dict, tmpdir: str) -> list:
    """run_suite with the default tolerance profile, then the JSON report,
    as `modloc verify --out` does.  One op per check; missing checks fail."""
    from modloc import artifacts, verification

    suite = verification.run_suite(inputs["config"], profile="default")
    artifacts.write_report_json(os.path.join(tmpdir, "report.json"), suite)
    ops = [_op(r.name, r.passed is True and _finite(r.residual), r.residual,
               r.passed, r.error) for r in suite.reports]
    ops += [_op("missing", False, error="check not run")
            for _ in range(inputs["checks"] - len(ops))]
    return ops


def rep_ladder(inputs: dict, tmpdir: str) -> list:
    """One rung per truncation size: both triples, T, the lowest weight of
    the rotation generator, and the representation artifact."""
    import numpy as np
    from scipy.linalg import eigh

    from modloc import artifacts, laguerre, spectral

    def rung(item):
        M, k = item
        g = spectral.build_generators(
            laguerre.BasisSpec(k=k, beta=LADDER_BETA, M=M))
        gt = spectral.build_tilde_generators(g)
        T = spectral.build_T(gt)
        lo = float(eigh(g.rotation(), eigvals_only=True,
                        subset_by_index=(0, 0))[0])
        path = os.path.join(tmpdir, f"rep_{M}.bin")
        artifacts.save_representation(path, g)
        os.remove(path)
        finite = bool(all(np.isfinite(m).all()
                          for m in (g.H, g.D, g.C, T.matrix)))
        residual = abs(lo - k)
        return (finite and residual < WEIGHT_TOL, residual,
                {"lowest_weight": lo, "finite": finite})

    return _each(inputs["rungs"], lambda it: f"M={it[0]},k={it[1]}", rung)


def _tables(fx, st) -> dict:
    """<H>, <C>, <D>, <T> of one state in both backends."""
    import numpy as np

    c = st["Z"].data
    ct = st["Ztilde"].data
    nt = float(np.vdot(ct, ct).real)
    spectral = {
        "H": float(np.vdot(c, fx.g.H @ c).real),
        "C": float(np.vdot(c, fx.g.C @ c).real),
        "D": float(np.vdot(c, fx.g.D @ c).real),
        "T": float(np.vdot(ct, fx.T.matrix @ ct).real) / nt,
    }
    gs = st["grid"].as_grid_state()
    grid = {
        "H": fx.rep.expect_H(gs),
        "C": fx.rep.expect_C(gs),
        "D": fx.rep.expect_D(gs),
        "T": fx.rep.expect_T(gs) / gs.norm_sq(),
    }
    return {"spectral": spectral, "grid": grid}


def localize_cold(inputs: dict, tmpdir: str) -> list:
    """One fixture with a single bump per interval, its expectation table in
    both backends, and the state artifacts `modloc localize --out` writes."""
    from modloc import artifacts, verification

    def interval(item):
        a, b = item
        fx = verification.build_interval_fixture(a, b, n_bumps=1)
        st = fx.states[0]
        tab = _tables(fx, st)
        base = os.path.join(tmpdir, "state")
        artifacts.save_state(base + ".bin", st["Z"],
                             config={"interval": [a, b]})
        artifacts.write_state_csv(base + ".csv", st["grid"])
        for ext in (".bin", ".csv"):
            os.remove(base + ext)
        la, lb = math.log(a), math.log(b)
        ts, tg = tab["spectral"]["T"], tab["grid"]["T"]
        excursion = max(la - ts, ts - lb, la - tg, tg - lb)
        agreement = abs(ts - tg) / max(abs(tg), 1.0)
        finite = all(_finite(*t.values()) for t in tab.values())
        return (finite and excursion <= BOUND_TOL
                and agreement <= AGREEMENT_TOL,
                max(excursion, agreement),
                {"excursion": excursion, "agreement": agreement,
                 **{f"{be}.{q}": v for be, t in tab.items()
                    for q, v in t.items()}})

    return _each(inputs["intervals"], lambda it: f"[{it[0]:.4f},{it[1]:.4f}]",
                 interval)


PASSES = {"verify_default": verify_default, "rep_ladder": rep_ladder,
          "localize_cold": localize_cold}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import modloc  # noqa: F401 - the import is what the probe times

    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
