"""Command line surface: build representations, generate local states,
run the verification suite, and convert reports.

Configuration starts from defaults, is overridden by the config file named
in MODLOC_CONFIG (or --config), then by explicit flags.  The config schema
is the JSON produced by RunConfig.to_json; every output embeds the
producing config and a format version.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .artifacts import (
    RunConfig,
    read_report_json,
    report_markdown,
    save_representation,
    save_state,
    write_curves_csv,
    write_report_csv,
    write_report_json,
    write_state_csv,
)
from .errors import ModlocError
from .laguerre import BasisSpec
from .localization import FIXTURE_FAMILIES
from .spectral import build_generators
from .verification import (
    SuiteResult,
    ToleranceProfile,
    build_interval_fixture,
    run_suite,
)

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="config file (overrides MODLOC_CONFIG)")
    p.add_argument("--k", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--grid-n", type=int, dest="grid_n")
    p.add_argument("--grid-emax", type=float, dest="grid_emax")
    p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--bump",
                   help=f"bump family ({', '.join(FIXTURE_FAMILIES)})")
    p.add_argument("--scope", nargs="+", help="check name prefixes")
    p.add_argument("--tol-profile", dest="tol_profile",
                   choices=("default", "strict", "coarse"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path")
    p.add_argument("--format", choices=("json", "csv", "md"))


def _resolve_config(args) -> RunConfig:
    path = args.config or os.environ.get("MODLOC_CONFIG")
    cfg = RunConfig.from_file(path) if path else RunConfig()
    overrides = {}
    for name in ("k", "beta", "M", "grid_n", "grid_emax", "bump", "scope",
                 "tol_profile", "seed", "out", "format"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if getattr(args, "interval", None) is not None:
        overrides["intervals"] = [list(args.interval)]
    if overrides:
        data = json.loads(cfg.to_json())
        data.update(overrides)
        cfg = RunConfig(**data)
    return cfg


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
    a, b = cfg.intervals[0]
    fx = build_interval_fixture(a, b, k=cfg.k, M=cfg.fixture_M,
                                grid_n=cfg.grid_n, n_bumps=cfg.n_bumps,
                                seed=cfg.seed, family=cfg.bump)
    la, lb = np.log(a), np.log(b)
    header = ("a", "b", "norm", "<H>", "<C>", "<D>", "<T>", "log_a", "log_b",
              "in_bounds")
    print(("{:>8} " * len(header)).format(*header))
    rows = []
    for st, e in zip(fx.states, fx.spectral_table):
        row = {"a": st["support"][0], "b": st["support"][1],
               "norm": float(np.sqrt(st["Z"].norm_sq)), "H": e["H"],
               "C": e["C"], "D": e["D"], "T": e["T"],
               "log_a": float(la), "log_b": float(lb),
               "in_bounds": bool(la - 1e-6 <= e["T"] <= lb + 1e-6)}
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
    n_bad = sum(1 for r in rows if not r["in_bounds"])
    return 0 if n_bad == 0 else 1


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
            with open(base, "w") as f:
                f.write(report_markdown(suite))
        else:
            write_report_json(base, suite)
        for r in suite.reports:
            vals = r.values or {}
            if "curves" in vals or "r" in vals or "errors" in vals:
                write_curves_csv(base.with_name(
                    base.stem + f".{r.name.replace('[', '_').replace(']', '').replace(',', '_')}.curve.csv"), r)
        print(f"wrote {base}")
    return 0 if suite.aggregate_pass else 1


def cmd_report(cfg: RunConfig, path: str) -> int:
    """Convert a JSON report file to the requested format."""
    suite = SuiteResult.from_dict(read_report_json(path))
    if cfg.format == "csv":
        out = cfg.out or (path + ".csv")
        write_report_csv(out, suite)
        print(f"wrote {out}")
    else:
        text = report_markdown(suite)
        if cfg.out:
            with open(cfg.out, "w") as f:
                f.write(text)
            print(f"wrote {cfg.out}")
        else:
            print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modloc",
        description="modular localization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("build", "assemble and persist a generator triple"),
                      ("localize", "generate local states and summarize"),
                      ("verify", "run the verification suite"),
                      ("report", "convert a JSON report")):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "report":
            p.add_argument("report_file")
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "localize":
            return cmd_localize(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_report(cfg, args.report_file)
    except ModlocError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
