"""Command line surface: exit codes, config resolution, output files."""

import json

import pytest

from modloc.cli import main


def test_build_writes_artifact(tmp_path, capsys):
    out = tmp_path / "rep.bin"
    code = main(["build", "--k", "1", "--M", "48", "--beta", "1",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "k=1.0" in captured.out and "M=48" in captured.out
    assert f"wrote {out}" in captured.out
    assert out.exists()
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["M"] == 48 and header["k"] == 1.0


def test_build_rebuild_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(["build", "--M", "48", "--out", str(p1)]) == 0
    assert main(["build", "--M", "48", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_rejects_small_k(capsys):
    code = main(["build", "--k", "0.4"])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--beta", "inf"],
    ["build", "--k", "nan"],
    ["localize", "--bump", "hann"],
    ["localize", "--config", "{n_bumps_0}"],
])
def test_bad_values_give_config_error(argv, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_bumps": 0}))
    argv = [a.format(n_bumps_0=cfg) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unresolvable_bump_family_gives_config_error(capsys):
    # the sin^2 window's transform outruns the fixtures' x sampling, so
    # every fixture check would fail with NyquistViolation
    code = main(["verify", "--bump", "sine-window", "--scope", "d_positive",
                 "--interval", "1", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "E^-3" in err


@pytest.mark.parametrize("argv,env", [
    pytest.param(["build", "--config", "{missing}"], None,
                 id="config-missing"),
    pytest.param(["build"], "{missing}", id="env-config-missing"),
    pytest.param(["build", "--config", "{scalar}"], None,
                 id="config-not-object"),
    pytest.param(["report", "{missing}"], None, id="report-missing"),
    pytest.param(["report", "{garbled}"], None, id="report-not-json"),
    pytest.param(["report", "{bare}"], None, id="report-no-reports"),
    pytest.param(["report", "{empty_entry}"], None, id="report-empty-entry"),
])
def test_unreadable_inputs_give_config_error(argv, env, tmp_path,
                                              monkeypatch, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in
             ("missing", "scalar", "garbled", "bare", "empty_entry")}
    paths["scalar"].write_text("5")
    paths["garbled"].write_text("not json {")
    paths["bare"].write_text(json.dumps({"format": "MODLOC-REPORT"}))
    paths["empty_entry"].write_text(json.dumps(
        {"format": "MODLOC-REPORT", "aggregate_pass": True,
         "reports": [{}]}))
    if env is not None:
        monkeypatch.setenv("MODLOC_CONFIG", env.format(**paths))
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_inverted_interval_rejected_before_compute(capsys):
    code = main(["localize", "--interval", "2", "1"])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_verify_scope_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--scope", "commutators", "lowest_weights",
                 "--M", "64", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = {r["name"] for r in doc["reports"]}
    assert names == {"commutators_plain", "commutators_tilde",
                     "commutators_grid_plain", "commutators_grid_tilde",
                     "lowest_weights"}
    assert doc["aggregate_pass"] is True


def test_verify_report_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["verify", "--scope", "lowest_weights", "--M", "64",
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    # the wall time stays on the console line
    assert "aggregate: pass (" in capsys.readouterr().out


def test_verify_empty_scope_exits_zero(capsys):
    code = main(["verify", "--scope", "no_such_check"])
    assert code == 0
    assert "aggregate: pass" in capsys.readouterr().out


def test_verify_failure_exit_code(tmp_path, capsys):
    # the Weyl phase relation needs a large truncation; at M=64 the
    # observation block is still boundary-corrupted and the check fails
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"weyl_M": 64}))
    code = main(["verify", "--config", str(cfg), "--scope", "weyl"])
    assert code == 1


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"M": 32, "k": 1.5}))
    monkeypatch.setenv("MODLOC_CONFIG", str(cfg))
    out = tmp_path / "rep.bin"
    assert main(["build", "--out", str(out)]) == 0
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["M"] == 32 and header["k"] == 1.5
    # explicit flag wins over the config file
    out2 = tmp_path / "rep2.bin"
    assert main(["build", "--M", "24", "--out", str(out2)]) == 0
    header2 = json.loads(out2.read_bytes().split(b"\n", 1)[0])
    assert header2["M"] == 24 and header2["k"] == 1.5


def test_localize_summary_and_states(tmp_path, capsys):
    outdir = tmp_path / "states"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_bumps": 2}))
    code = main(["localize", "--config", str(cfg), "--interval", "1", "2",
                 "--out", str(outdir)])
    assert code == 0
    captured = capsys.readouterr()
    assert "in_bounds" in captured.out
    assert (outdir / "summary.csv").exists()
    assert (outdir / "state_000.bin").exists()
    assert (outdir / "state_001.csv").exists()
    summary = (outdir / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3
    assert all("True" in line for line in summary[1:])


def test_report_conversion(tmp_path, capsys):
    rp = tmp_path / "report.json"
    assert main(["verify", "--scope", "lowest_weights", "--M", "64",
                 "--out", str(rp)]) == 0
    capsys.readouterr()
    assert main(["report", str(rp)]) == 0
    assert "lowest_weights" in capsys.readouterr().out
    csvp = tmp_path / "report.csv"
    assert main(["report", "--format", "csv", "--out", str(csvp),
                 str(rp)]) == 0
    assert csvp.exists()
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert main(["report", str(bogus)]) == 2
