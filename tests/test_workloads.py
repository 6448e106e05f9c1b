"""The benchmark reads modloc through the names its workloads call
(`g.H @ c`, `eigh(g.rotation())`, `fx.T.matrix`, `rep.expect_*`, ...); each
pass runs here at toy size, so a change that breaks one of those names, or
flips one of the verdicts the benchmark checks, fails the test suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    # loaded from source without writing bytecode next to it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["verify_default", "rep_ladder",
                                  "localize_cold"])
def test_toy_pass_ops_all_ok(workloads, name, tmp_path):
    inputs = workloads.make_inputs(name, 1, "toy")
    ops = workloads.PASSES[name](inputs, str(tmp_path))
    assert ops
    assert [op["name"] for op in ops if not op["ok"]] == [], ops


def test_fixture_tables_match_per_state_values(workloads, fx12):
    # the blocked tables against the per-state band expect, dense T and
    # GridRep.expect_* values the benchmark reads; the columns it skips
    # against the per-state band calls
    h = fx12.rep.grid.spacing
    for st, es, eg in zip(fx12.states, fx12.table("spectral"),
                          fx12.table("grid")):
        ref = workloads._tables(fx12, st)
        ct, v = st["Ztilde"].data, st["grid"].data
        ref["spectral"].update(Ctilde=fx12.gt.C.expect(ct),
                               norm_sq=np.vdot(st["Z"].data,
                                               st["Z"].data).real,
                               tilde_norm_sq=np.vdot(ct, ct).real)
        ng = st["grid"].as_grid_state().norm_sq()
        ref["grid"].update(Ctilde=h * fx12.rep.Ctilde.expect(v), norm_sq=ng,
                           tilde_norm_sq=ng)
        for row, want in ((es, ref["spectral"]), (eg, ref["grid"])):
            assert set(row) == set(want)
            for q, val in want.items():
                assert abs(row[q] - val) <= 1e-12 * abs(val), (q, row, want)
