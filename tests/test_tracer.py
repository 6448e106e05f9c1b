"""The benchmark's span tracer patches modloc functions by name and binds
their arguments by name; a renamed target or argument must fail here, not
only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from modloc import gridop, laguerre, localization

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # loaded from source without writing bytecode next to it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                      SPANS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_patches_and_restores_every_target(spans):
    modules = {m: importlib.import_module("modloc." + m)
               for m, *_ in spans.TARGETS}
    originals = {(m, a): getattr(modules[m], a)
                 for m, a, *_ in spans.TARGETS if "." not in a}
    init = localization.FourierProfile.__dict__["__init__"]
    with spans.Tracer() as tracer:
        bump = localization.BumpSpec(1.0, 2.0)
        localization.make_bump(bump, np.linspace(0.0, 3.0, 31))
        localization.FourierProfile(bump)
        for family in ("Z", "Ztilde"):
            localization.positive_frequency(
                bump, laguerre.BasisSpec(k=1.0, M=16), family=family,
                max_residual=1.0)
        grid = gridop.GridSpec(N=256, E_max=40.0)
        sv = localization.positive_frequency(bump, grid, max_residual=1.0)
        gridop.build_grid_ops(grid, 1.0).expect_T(sv.as_grid_state())
        laguerre.gauss_laguerre(8)
    calls, _ = tracer.self_times()
    for name in ("localization.make_bump", "localization.FourierProfile",
                 "localization.positive_frequency.Z",
                 "localization.positive_frequency.Ztilde",
                 "localization.positive_frequency.grid",
                 "laguerre.basis_matrix", "gridop.build_grid_ops",
                 "gridop.expect_T", "laguerre.gauss_laguerre"):
        assert calls[name] >= 1, name
    assert tracer.counts["laguerre.basis_matrix.elements"] > 0
    assert len(tracer.states) == 1
    assert localization.FourierProfile.__dict__["__init__"] is init
    for (m, a), orig in originals.items():
        assert getattr(modules[m], a) is orig
