"""Command line surface: exit codes, config resolution, output files."""

import csv
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from modloc import cli
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


def test_verify_on_fewer_grid_nodes_than_smooth_modes_exits_2(tmp_path,
                                                              capsys):
    out = tmp_path / "r.json"
    argv = ["verify", "--grid-n", "32", "--scope", "commutators_grid",
            "--out", str(out)]
    assert main(argv) == 2
    assert "grid_n must be at least 49" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    pytest.param("intervals", [[1, 2, 3]], id="interval-triple"),
    pytest.param("intervals", [["a", 2]], id="interval-string"),
    pytest.param("intervals", 5, id="intervals-scalar"),
    pytest.param("M", "abc", id="M-string"),
    pytest.param("seed", -1, id="seed-negative"),
    pytest.param("n_bumps", 2.5, id="n_bumps-fraction"),
    pytest.param("scope", "lowest", id="scope-string"),
    pytest.param("tol_profile", "bogus", id="tol_profile-unknown"),
    pytest.param("grid_emax", -1, id="grid_emax-negative"),
    pytest.param("grid_emax_tilde", 0, id="grid_emax_tilde-zero"),
])
def test_malformed_config_values_give_config_error(field, value, tmp_path,
                                                   capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,value", [
    pytest.param(["verify", "--scope", "lowest_weights", "--M", "64"], 5,
                 id="verify-int"),
    pytest.param(["build"], ["a"], id="build-list"),
])
def test_non_string_out_in_config_gives_config_error(argv, value, tmp_path,
                                                     monkeypatch, capsys):
    # no --out flag: it would override the config's field
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": value}))
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# the flags of each subcommand: those of the settings it reads
SUBCOMMAND_FLAGS = {
    "build": {"--config", "--k", "--beta", "--M", "--out"},
    "localize": {"--config", "--k", "--grid-n", "--interval", "--bump",
                 "--seed", "--tol-profile", "--out"},
    "verify": {"--config", "--k", "--beta", "--M", "--grid-n", "--grid-emax",
               "--interval", "--bump", "--scope", "--tol-profile", "--seed",
               "--out", "--format"},
    "report": {"--config", "--format", "--out"},
}


def test_subcommand_help_lists_its_flags(capsys):
    listed = {}
    for command in SUBCOMMAND_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed[command] = set(re.findall(
            r"^\s+(--[\w-]+)", capsys.readouterr().out, re.MULTILINE))
        listed[command].discard("--help")
    assert listed == SUBCOMMAND_FLAGS
    assert sum(map(len, listed.values())) == 29


@pytest.mark.parametrize("argv", [
    ["localize", "--M", "64"],
    ["build", "--seed", "3"],
    ["report", "--k", "1", "{report}"],
    ["report", "--format", "json", "{report}"],
    ["build", "--interval", "5", "9"],
], ids=lambda argv: " ".join(argv[:2]))
def test_flags_a_subcommand_does_not_read_exit_2(argv, tmp_path,
                                                 monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before rejecting the flag")

    for name in ("build_generators", "build_interval_fixture", "run_suite",
                 "read_report_json"):
        monkeypatch.setattr(cli, name, no_compute)
    report = tmp_path / "r.json"
    out = tmp_path / "out"
    argv = [a.format(report=report) for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unresolvable_bump_family_gives_config_error(capsys):
    # the sin^2 window is no bump family: its transform decays only like
    # E^-3, past the end of the transform table every profile is built from
    code = main(["verify", "--bump", "sine-window", "--scope", "d_positive",
                 "--interval", "1", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "unknown bump family" in err


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


@pytest.mark.parametrize("argv,config", [
    pytest.param(["report", "{report}"], {"format": "json"},
                 id="report-format-json"),
    pytest.param(["localize"], {"intervals": [[1.0, 2.0], [4.0, 8.0]]},
                 id="localize-two-intervals"),
])
def test_config_fields_a_subcommand_cannot_honour_exit_2(
        argv, config, tmp_path, monkeypatch, capsys):
    # report writes no JSON and localize builds one interval: a config
    # that asks otherwise exits 2 before anything is read or computed
    def refuse(*args, **kwargs):
        raise AssertionError("computed")

    monkeypatch.setattr(cli, "build_interval_fixture", refuse)
    monkeypatch.setattr(cli, "read_report_json", refuse)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [a.format(report=tmp_path / "r.json") for a in argv]
    assert main([argv[0], "--config", str(cfg), *argv[1:],
                 "--out", str(out)]) == 2
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


def test_verify_writes_curve_files(tmp_path, capsys):
    # only grid_convergence carries a curve: its error at each of 4 sizes
    out = tmp_path / "r.json"
    assert main(["verify", "--scope", "grid_convergence", "lowest_weights",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.grid_convergence.curve.csv", "r.json"]
    with open(tmp_path / "r.grid_convergence.curve.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["x"]) for r in rows] == [512, 1024, 2048, 4096]
    assert all(r["check"] == "grid_convergence" for r in rows)
    capsys.readouterr()


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


def test_polynomial_window_localizes_at_a_far_scale(tmp_path, capsys):
    # its E_cut follows the bump's scale, so no sampling limit stops it at
    # [16, 32]; the sampled profile exited 2 with NyquistViolation there
    outdir = tmp_path / "states"
    code = main(["localize", "--bump", "polynomial-window", "--interval",
                 "16", "32", "--out", str(outdir)])
    assert code == 0, capsys.readouterr().err
    names = sorted(p.name for p in outdir.iterdir())
    assert names == sorted(["summary.csv"] + [
        f"state_{i:03d}.{ext}" for i in range(20) for ext in ("bin", "csv")])


def test_localize_builds_no_grid_table(tmp_path, monkeypatch, capsys):
    # localize reads the spectral table alone: no grid <T> is evaluated
    from modloc.spectral import TridiagonalLog

    calls = []
    monkeypatch.setattr(TridiagonalLog, "expect",
                        lambda self, v: calls.append(np.shape(v)))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_bumps": 2}))
    assert main(["localize", "--config", str(cfg), "--interval", "1",
                 "2"]) == 0
    assert calls == []
    capsys.readouterr()


def test_localize_in_bounds_reads_tol_profile(monkeypatch, capsys):
    # one <T> 5e-5 below log a: outside the default t_bounds tolerance
    # (1e-6), inside the coarse one (1e-4)
    states = [{"support": (1.0, 2.0), "Z": SimpleNamespace(norm_sq=1.0)}] * 2
    table = [{"H": 1.0, "C": 2.0, "D": 0.5, "T": T}
             for T in (0.3, np.log(1.0) - 5e-5)]
    # localize reads the spectral table alone
    fake = SimpleNamespace(states=states,
                           table={"spectral": table}.__getitem__)
    monkeypatch.setattr(cli, "build_interval_fixture", lambda *a, **kw: fake)
    argv = ["localize", "--interval", "1", "2"]
    assert main(argv) == 1
    assert main(argv + ["--tol-profile", "coarse"]) == 0
    assert main(argv + ["--tol-profile", "strict"]) == 1
    capsys.readouterr()


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
