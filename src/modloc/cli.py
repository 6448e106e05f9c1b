"""Command line surface: build representations, generate local states,
run the verification suite, and convert reports.

Configuration starts from defaults, is overridden by the config file named
in MODLOC_CONFIG (or --config), then by explicit flags.  Each subcommand
accepts only the flags of the settings it reads; a config file may set any
field.  The config schema is the JSON produced by RunConfig.to_json; every
output embeds the producing config and a format version.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .artifacts import (
    FORMATS,
    TOL_PROFILES,
    RunConfig,
    read_report_json,
    report_markdown,
    save_representation,
    save_state,
    write_report_csv,
    write_report_json,
    write_state_csv,
    write_suite_curves,
)
from .errors import ConfigError, ModlocError
from .laguerre import BasisSpec
from .localization import BUMP_FAMILIES
from .spectral import build_generators
from .verification import (
    SuiteResult,
    ToleranceProfile,
    build_interval_fixture,
    run_suite,
)

__all__ = ["main"]


# add_argument keywords of every flag; argparse's dest for each is the
# RunConfig field it overrides, except --config and --interval
_FLAGS = {
    "--config": {"help": "config file (overrides MODLOC_CONFIG)"},
    "--k": {"type": float},
    "--beta": {"type": float},
    "--M": {"type": int},
    "--grid-n": {"type": int},
    "--grid-emax": {"type": float},
    "--interval": {"type": float, "nargs": 2, "metavar": ("A", "B")},
    "--bump": {"help": f"bump family ({', '.join(BUMP_FAMILIES)})"},
    "--scope": {"nargs": "+", "help": "check name prefixes"},
    "--tol-profile": {"choices": TOL_PROFILES},
    "--seed": {"type": int},
    "--out": {"help": "output path"},
    "--format": {"choices": FORMATS},
}


def _resolve_config(args) -> RunConfig:
    path = args.config or os.environ.get("MODLOC_CONFIG")
    cfg = RunConfig.from_file(path) if path else RunConfig()
    overrides = {name: val for name, val in vars(args).items()
                 if name in RunConfig.__dataclass_fields__ and val is not None}
    if getattr(args, "interval", None) is not None:
        overrides["intervals"] = [list(args.interval)]
    return replace(cfg, **overrides)


def cmd_build(cfg: RunConfig) -> int:
    """Build the generator triple and persist it as a MODLOC-REP file."""
    g = build_generators(BasisSpec(k=cfg.k, beta=cfg.beta, M=cfg.M))
    print(f"built k={cfg.k} beta={cfg.beta} M={cfg.M}")
    out = cfg.out or "modloc_rep.bin"
    save_representation(out, g, config=cfg.content_config())
    print(f"wrote {out}")
    return 0


def cmd_localize(cfg: RunConfig) -> int:
    """Generate local states on the configured interval and print the
    summary table; state files and CSV land next to --out if given."""
    if len(cfg.intervals) != 1:
        raise ConfigError(f"localize builds one interval, not "
                          f"{len(cfg.intervals)}: pass --interval A B")
    (a, b), = cfg.intervals
    fx = build_interval_fixture(a, b, k=cfg.k, M=cfg.fixture_M,
                                grid_n=cfg.grid_n, n_bumps=cfg.n_bumps,
                                seed=cfg.seed, family=cfg.bump)
    la, lb = np.log(a), np.log(b)
    tol = ToleranceProfile.preset(cfg.tol_profile).tol("t_bounds")
    header = ("a", "b", "norm", "<H>", "<C>", "<D>", "<T>", "log_a", "log_b",
              "in_bounds")
    print(("{:>8} " * len(header)).format(*header))
    rows = []
    for st, e in zip(fx.states, fx.table("spectral")):
        row = {"a": st["support"][0], "b": st["support"][1],
               "norm": float(np.sqrt(st["Z"].norm_sq)), "H": e["H"],
               "C": e["C"], "D": e["D"], "T": e["T"],
               "log_a": float(la), "log_b": float(lb),
               "in_bounds": bool(la - tol <= e["T"] <= lb + tol)}
        rows.append(row)
        print(("{:>8.4f} {:>8.4f} " + "{:>8.4} " * 5 +
               "{:>8.4f} {:>8.4f} {:>8}").format(
                   row["a"], row["b"], row["norm"], row["H"], row["C"],
                   row["D"], row["T"], row["log_a"], row["log_b"],
                   str(row["in_bounds"])))
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "summary.csv", "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
        for i, st in enumerate(fx.states):
            save_state(outdir / f"state_{i:03d}.bin", st["Z"],
                       config=cfg.content_config())
            write_state_csv(outdir / f"state_{i:03d}.csv", st["grid"])
        print(f"wrote {len(fx.states)} states and summary.csv to {outdir}")
    return 0 if all(r["in_bounds"] for r in rows) else 1


def cmd_verify(cfg: RunConfig) -> int:
    """Run the suite; exit code reflects the aggregate verdict."""
    profile = ToleranceProfile.preset(cfg.tol_profile)
    suite = run_suite(cfg.suite_config(), profile=profile, scope=cfg.scope)
    for r in suite.reports:
        tag = {True: "pass", False: "FAIL", None: "inconclusive"}[r.passed]
        res = "" if r.residual is None else f" residual {r.residual:.3e}"
        err = f" [{r.error}]" if r.error else ""
        print(f"{r.name:<28} {tag}{res}{err}")
    print(f"aggregate: {'pass' if suite.aggregate_pass else 'FAIL'} "
          f"({suite.elapsed:.1f} s)")
    if cfg.out:
        base = Path(cfg.out)
        if cfg.format == "csv":
            write_report_csv(base, suite)
        elif cfg.format == "md":
            base.write_text(report_markdown(suite))
        else:
            write_report_json(base, suite)
        write_suite_curves(base, suite)
        print(f"wrote {base}")
    return 0 if suite.aggregate_pass else 1


def cmd_report(cfg: RunConfig, path: str) -> int:
    """Convert a JSON report file to markdown (the default) or CSV."""
    if cfg.format == "json":
        raise ConfigError("report converts to md or csv; the config asks "
                          "for json")
    suite = SuiteResult.from_dict(read_report_json(path))
    if cfg.format != "csv" and not cfg.out:
        print(report_markdown(suite), end="")
        return 0
    out = cfg.out or path + ".csv"
    if cfg.format == "csv":
        write_report_csv(out, suite)
    else:
        Path(out).write_text(report_markdown(suite))
    print(f"wrote {out}")
    return 0


# each subcommand: its function, its help and the flags it reads; report
# adds its own --format (the JSON it converts is the input) and the file
_COMMANDS = {
    "build": (cmd_build, "assemble and persist a generator triple",
              "--config --k --beta --M --out"),
    "localize": (cmd_localize, "generate local states and summarize",
                 "--config --k --grid-n --interval --bump --seed "
                 "--tol-profile --out"),
    "verify": (cmd_verify, "run the verification suite", " ".join(_FLAGS)),
    "report": (cmd_report, "convert a JSON report", "--config --out"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modloc",
        description="modular localization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        if name == "report":
            p.add_argument("--format", choices=("csv", "md"))
            p.add_argument("report_file")
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "report":
            return cmd_report(cfg, args.report_file)
        return _COMMANDS[args.command][0](cfg)
    except ModlocError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
