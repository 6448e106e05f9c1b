"""Containers, reports, and run configs: round-trips and format guards."""

import csv
import io
import json

import numpy as np
import pytest

from modloc import artifacts
from modloc.artifacts import (
    RunConfig,
    load_representation,
    load_state,
    report_markdown,
    report_rows,
    save_representation,
    save_state,
    write_curves_csv,
    write_report_csv,
    write_report_json,
    write_state_csv,
)
from modloc.errors import ConfigError, DecompositionFailure
from modloc.gridop import GridSpec
from modloc.laguerre import BasisSpec
from modloc.localization import (
    BumpSpec,
    StateVector,
    positive_frequency,
)
from modloc.spectral import build_generators
from modloc.verification import run_suite


@pytest.fixture(scope="module")
def g64():
    return build_generators(BasisSpec(k=1.5, beta=0.5, M=64))


@pytest.fixture(scope="module")
def states():
    bump = BumpSpec(1.0, 2.0)
    sv = positive_frequency(bump, BasisSpec(k=1.0, beta=1.0, M=128),
                            provenance={"interval": [1, 2]})
    svg = positive_frequency(bump, GridSpec(N=1024, E_max=40.0),
                             max_residual=1e-3)
    return sv, svg


def test_representation_roundtrip(tmp_path, g64):
    p = tmp_path / "rep.bin"
    save_representation(p, g64, config={"note": "test"})
    g2 = load_representation(p)
    for name in "HDC":
        for band in ("diag", "upper"):
            assert np.array_equal(getattr(getattr(g2, name), band),
                                  getattr(getattr(g64, name), band))
    assert g2.spec == g64.spec
    assert g2.variant == g64.variant


def test_representation_rebuild_byte_identical(tmp_path):
    spec = BasisSpec(k=1.0, beta=1.0, M=48)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_representation(p1, build_generators(spec), config={"M": 48})
    save_representation(p2, build_generators(spec), config={"M": 48})
    assert p1.read_bytes() == p2.read_bytes()


def test_artifact_format_guards(tmp_path, g64):
    p = tmp_path / "rep.bin"
    save_representation(p, g64)
    blob = p.read_bytes()
    # wrong magic
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob.replace(b"MODLOC-REP", b"MODLOC-XXX", 1))
    with pytest.raises(DecompositionFailure):
        load_representation(bad)
    # truncated payload
    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[:-16])
    with pytest.raises(DecompositionFailure):
        load_representation(cut)
    # no header
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\x00" * 32)
    with pytest.raises(DecompositionFailure):
        load_representation(raw)


def _rewrite_bands(src, dst, edit):
    """Copy a representation artifact with edit applied to its arrays."""
    header, payload = artifacts._read_header(src.read_bytes(),
                                             artifacts.REP_MAGIC)
    arrays = artifacts._unpack_arrays(header, payload)
    edit(arrays)
    dst.write_bytes(artifacts._pack_arrays(header, arrays))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda a: a.pop("C_upper"), id="missing-band"),
    pytest.param(lambda a: a.update(D_upper=a["D_upper"][:-1]),
                 id="upper-too-short"),
    pytest.param(lambda a: a.update(H_upper=np.append(a["H_upper"], 0.0)),
                 id="upper-as-long-as-diagonal"),
    pytest.param(lambda a: a.update(C_diag=a["C_diag"] + 0j),
                 id="complex-diagonal"),
    pytest.param(lambda a: a.update(H_diag=a["H_diag"][:-1],
                                    H_upper=a["H_upper"][:-1]),
                 id="bands-shorter-than-M"),
])
def test_malformed_bands_rejected(tmp_path, g64, edit):
    p = tmp_path / "rep.bin"
    save_representation(p, g64)
    bad = tmp_path / "bad.bin"
    _rewrite_bands(p, bad, edit)
    with pytest.raises(DecompositionFailure):
        load_representation(bad)
    # the unedited copy still loads
    _rewrite_bands(p, bad, lambda a: None)
    assert load_representation(bad).M == 64


def _rewrite_header(src, dst, magic, edit):
    """Copy an artifact with edit applied to its header."""
    header, payload = artifacts._read_header(src.read_bytes(), magic)
    edit(header)
    dst.write_bytes(artifacts._header_bytes(header) + payload)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h.pop("k"), id="missing-k"),
    pytest.param(lambda h: h.pop("arrays"), id="missing-arrays"),
    pytest.param(lambda h: h.update(k="x"), id="k-not-a-number"),
    pytest.param(lambda h: h.update(M=0), id="M-zero"),
    pytest.param(lambda h: h.update(variant="bogus"), id="unknown-variant"),
])
def test_malformed_representation_header_rejected(tmp_path, g64, edit):
    p = tmp_path / "rep.bin"
    save_representation(p, g64)
    bad = tmp_path / "bad.bin"
    _rewrite_header(p, bad, artifacts.REP_MAGIC, edit)
    with pytest.raises(DecompositionFailure):
        load_representation(bad)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h.pop("basis"), id="missing-basis"),
    pytest.param(lambda h: h.pop("norm_sq"), id="missing-norm_sq"),
    pytest.param(lambda h: h["basis"].update(kind="bogus"),
                 id="unknown-basis-kind"),
    pytest.param(lambda h: h["basis"].update(M="x"), id="M-not-a-number"),
    pytest.param(lambda h: h.update(representation="bogus"),
                 id="unknown-representation"),
    pytest.param(lambda h: h.update(representation="e-grid"),
                 id="representation-of-other-kind"),
])
def test_malformed_state_header_rejected(tmp_path, states, edit):
    p = tmp_path / "state.bin"
    save_state(p, states[0])
    bad = tmp_path / "bad.bin"
    _rewrite_header(p, bad, artifacts.STATE_MAGIC, edit)
    with pytest.raises(DecompositionFailure):
        load_state(bad)
    # the unedited copy still loads
    _rewrite_header(p, bad, artifacts.STATE_MAGIC, lambda h: None)
    assert load_state(bad).representation == "z-spectral"


def test_state_roundtrip(tmp_path, states):
    sv, svg = states
    for i, s in enumerate((sv, svg)):
        p = tmp_path / f"state{i}.bin"
        save_state(p, s)
        s2 = load_state(p)
        assert np.array_equal(s2.data, s.data)
        assert s2.representation == s.representation
        assert s2.family == s.family
        assert s2.norm_sq == s.norm_sq
        assert s2.provenance == s.provenance


def test_state_csv(tmp_path, states):
    # a grid state's rows are its nodes and samples; a spectral state has
    # no CSV form
    sv, svg = states
    p = tmp_path / "state.csv"
    write_state_csv(p, svg)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "E,re_psi_plus,im_psi_plus"
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in lines[1:]])
    assert rows.shape == (1024, 3)
    assert np.array_equal(rows[:, 0], svg.basis.nodes)
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], svg.data)
    with pytest.raises(ValueError, match="not a grid state"):
        write_state_csv(tmp_path / "spectral.csv", sv)


def test_state_csv_bytes_match_csv_writer(tmp_path):
    # the one-pass writer against csv.writer on the same rows, special
    # floats included
    grid = GridSpec(N=64, E_max=4.0)
    data = np.random.default_rng(2).standard_normal(64) * (1 + 1j)
    data[:6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, complex(-0.0, -np.inf)]
    sv = StateVector("e-grid", data, grid, 1.0, 0.0, "grid")
    p = tmp_path / "state.csv"
    write_state_csv(p, sv)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["E", "re_psi_plus", "im_psi_plus"])
    w.writerows((float(e), float(v.real), float(v.imag))
                for e, v in zip(grid.nodes, data))
    assert p.read_bytes() == ref.getvalue().encode()


def test_report_exports(tmp_path):
    suite = run_suite({"M": 64, "grid_n": 1024},
                      scope=["lowest_weights", "commutators_plain"])
    pj = tmp_path / "report.json"
    write_report_json(pj, suite)
    doc = json.loads(pj.read_text())
    assert doc["format"] == "MODLOC-REPORT"
    assert doc["aggregate_pass"] is True
    assert {r["name"] for r in doc["reports"]} == {"lowest_weights",
                                                   "commutators_plain"}
    assert doc["config"]["M"] == 64

    pc = tmp_path / "report.csv"
    write_report_csv(pc, suite)
    lines = pc.read_text().strip().splitlines()
    assert len(lines) == 3

    md = report_markdown(suite)
    assert "lowest_weights" in md and "aggregate: pass" in md
    assert len(report_rows(suite)) == 2


def test_curves_csv(tmp_path):
    from modloc.verification import check_grid_convergence

    rep = check_grid_convergence(Ns=(256, 512, 1024))
    p = tmp_path / "curve.csv"
    write_curves_csv(p, rep)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "check,series,x,y"
    assert len(lines) == 4


def test_runconfig_roundtrip():
    cfg = RunConfig(k=1.5, M=128, intervals=[[1.0, 3.0]], scope=["weyl"])
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(k=0.4)
    with pytest.raises(ConfigError):
        RunConfig(intervals=[[2.0, 1.0]])
    with pytest.raises(ConfigError):
        RunConfig(format="xml")
    with pytest.raises(ConfigError):
        RunConfig(grid_emax_tilde=float("nan"))
    for name in ("n_bumps", "fixture_M", "weyl_M"):
        with pytest.raises(ConfigError):
            RunConfig(**{name: 0})
    with pytest.raises(ConfigError):
        RunConfig.from_json('{"bogus_key": 1}')
    with pytest.raises(ConfigError):
        RunConfig.from_json("not json")


def test_runconfig_refuses_fewer_grid_nodes_than_smooth_modes():
    # the plain grid commutator check takes 48 smooth modes, so it needs 49
    # nodes; fewer is a ConfigError, not a failed check
    with pytest.raises(ConfigError, match="grid_n must be at least 49"):
        RunConfig(grid_n=48)
    assert RunConfig(grid_n=49).grid_n == 49


def test_runconfig_content_excludes_output():
    c1 = RunConfig(out="/tmp/a.json")
    c2 = RunConfig(out="/tmp/b.json", format="csv")
    assert c1.content_config() == c2.content_config()
    assert set(c1.suite_config()) == {
        "k", "beta", "M", "grid_n", "grid_emax", "grid_emax_tilde", "weyl_M",
        "fixture_M", "n_bumps", "seed", "intervals", "bump"}
    assert c1.suite_config()["M"] == 256
