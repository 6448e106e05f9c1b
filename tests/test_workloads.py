"""The benchmark reads modloc through the names its workloads call
(`g.H @ c`, `eigh(g.rotation())`, `fx.T.matrix`, `rep.expect_*`, ...); each
pass runs here at toy size, so a change that breaks one of those names, or
flips one of the verdicts the benchmark checks, fails the test suite."""

import importlib.util
import sys
from pathlib import Path

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
