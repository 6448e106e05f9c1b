"""Persistence: representation and state containers, reports, run configs.

Containers are a single JSON header line followed by the raw row-major
bytes of each array, in header order.  Everything that determines the
bytes is either in the header or in the producing config, so rebuilding
an artifact from the same config yields a byte-identical file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DecompositionFailure
from .gridop import GridSpec
from .laguerre import BasisSpec
from .localization import (BUMP_FAMILIES, FIXTURE_FAMILIES, BumpSpec,
                           StateVector)
from .spectral import GeneratorSet, Tridiagonal

__all__ = [
    "REP_MAGIC",
    "STATE_MAGIC",
    "RunConfig",
    "save_representation",
    "load_representation",
    "save_state",
    "load_state",
    "state_profile_rows",
    "write_state_csv",
    "report_rows",
    "write_report_csv",
    "write_report_json",
    "read_report_json",
    "report_markdown",
    "write_curves_csv",
    "write_suite_curves",
]

REP_MAGIC = "MODLOC-REP"
STATE_MAGIC = "MODLOC-STATE"
FORMAT_VERSION = 3
TOL_PROFILES = ("default", "strict", "coarse")
FORMATS = ("json", "csv", "md")


def _header_bytes(header: dict) -> bytes:
    # canonical serialization: sorted keys, fixed separators, so identical
    # content gives identical bytes
    return (json.dumps(header, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _read_header(blob: bytes, magic: str) -> tuple[dict, bytes]:
    nl = blob.find(b"\n")
    if nl < 0:
        raise DecompositionFailure("artifact has no header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecompositionFailure(f"unreadable artifact header: {exc}") from exc
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != magic:
        raise DecompositionFailure(f"expected {magic} artifact, got {fmt!r}")
    if header.get("version") != FORMAT_VERSION:
        raise DecompositionFailure(
            f"unsupported {magic} version {header.get('version')!r}")
    return header, blob[nl + 1:]


def _fields(doc: dict, where: str, **kinds) -> list:
    """doc's values at the keys of kinds.  Each must be present and either
    one of a tuple of allowed values or of a type: str, dict, list, or a
    numbers ABC, whose values must also be finite and not bool."""
    values = [doc.get(key) for key in kinds]
    for (key, kind), value in zip(kinds.items(), values):
        ok = (value in kind if isinstance(kind, tuple) else
              _is_number(value, kind) if issubclass(kind, numbers.Number)
              else isinstance(value, kind))
        if not ok:
            raise DecompositionFailure(
                f"artifact {where} needs {key!r} as {kind!r}, got {value!r}")
    return values


def _spec(cls, doc: dict, where: str, **kinds):
    """cls built from doc's fields of the given kinds."""
    try:
        return cls(*_fields(doc, where, **kinds))
    except ValueError as exc:
        raise DecompositionFailure(f"invalid artifact {where}: {exc}") from exc


def _pack_arrays(header: dict, arrays: dict) -> bytes:
    header = dict(header)
    header["arrays"] = [
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in arrays.items()
    ]
    chunks = [_header_bytes(header)]
    for arr in arrays.values():
        chunks.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(chunks)


def _unpack_arrays(header: dict, payload: bytes) -> dict:
    arrays = {}
    offset = 0
    for entry in _fields(header, "header", arrays=list)[0]:
        try:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            shape = tuple(map(int, entry["shape"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DecompositionFailure(f"malformed array {entry!r}") from exc
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise DecompositionFailure(
                f"artifact truncated in array {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise DecompositionFailure("artifact has trailing bytes")
    return arrays


# ---------------------------------------------------------------------------
# representation artifacts

def save_representation(path, g: GeneratorSet, config: dict | None = None):
    """Persist a generator triple: header with build parameters, then the
    diagonal and upper band of H, D and C."""
    header = {
        "format": REP_MAGIC,
        "version": FORMAT_VERSION,
        "k": g.spec.k,
        "beta": g.spec.beta,
        "M": g.spec.M,
        "variant": g.variant,
        "config": config or {},
    }
    Path(path).write_bytes(_pack_arrays(header, {
        f"{name}_{band}": getattr(getattr(g, name), band)
        for name in "HDC" for band in ("diag", "upper")}))


def load_representation(path) -> GeneratorSet:
    """The triple save_representation wrote; raises DecompositionFailure
    for a malformed header field, a missing band, a diagonal that is complex
    or not of length M, or an upper band not one shorter than it."""
    header, payload = _read_header(Path(path).read_bytes(), REP_MAGIC)
    arrays = _unpack_arrays(header, payload)
    spec = _spec(BasisSpec, header, "header", **_BASES["z-spectral"][2])
    (variant,) = _fields(header, "header", variant=("plain", "tilde"))
    try:
        ops = {name: Tridiagonal(arrays.get(name + "_diag"),
                                 arrays.get(name + "_upper"))
               for name in "HDC"}
    except ValueError as exc:
        raise DecompositionFailure(f"malformed generator bands: {exc}") from exc
    if any(X.diag.size != spec.M for X in ops.values()):
        raise DecompositionFailure(f"generator bands not of size M = {spec.M}")
    return GeneratorSet(**ops, spec=spec, variant=variant)


# ---------------------------------------------------------------------------
# state artifacts

# representation: the basis kind of its states, the spec type and its fields
_BASES = {"z-spectral": ("basis", BasisSpec, {
              "k": numbers.Real, "beta": numbers.Real, "M": numbers.Integral}),
          "e-grid": ("grid", GridSpec, {
              "N": numbers.Integral, "E_max": numbers.Real})}


def save_state(path, sv: StateVector, config: dict | None = None):
    """Persist a localized state: representation tag, basis parameters,
    provenance, then the coefficient or sample array."""
    if sv.representation not in _BASES:
        raise ConfigError(f"unknown representation {sv.representation!r}")
    kind, _, kinds = _BASES[sv.representation]
    header = {
        "format": STATE_MAGIC,
        "version": FORMAT_VERSION,
        "representation": sv.representation,
        "family": sv.family,
        "norm_sq": sv.norm_sq,
        "projection_residual": sv.projection_residual,
        "basis": {"kind": kind, **{key: getattr(sv.basis, key)
                                   for key in kinds}},
        "provenance": sv.provenance,
        "config": config or {},
    }
    Path(path).write_bytes(
        _pack_arrays(header, {"data": np.asarray(sv.data, dtype=complex)}))


def load_state(path) -> StateVector:
    """The state save_state wrote; raises DecompositionFailure for a header
    field that is missing, mistyped or out of range."""
    header, payload = _read_header(Path(path).read_bytes(), STATE_MAGIC)
    arrays = _unpack_arrays(header, payload)
    rep, b, norm_sq, residual, family, provenance = _fields(
        header, "header", representation=tuple(_BASES), basis=dict,
        norm_sq=numbers.Real, projection_residual=numbers.Real, family=str,
        provenance=dict)
    kind, cls, kinds = _BASES[rep]
    _fields(b, "basis", kind=(kind,))
    basis = _spec(cls, b, "basis", **kinds)
    (data,) = _fields(arrays, "payload", data=np.ndarray)
    return StateVector(representation=rep, data=data, basis=basis,
                       norm_sq=norm_sq, projection_residual=residual,
                       family=family, provenance=dict(provenance))


def state_profile_rows(sv: StateVector, n_points: int = 512):
    """(E, Re psi_plus_tilde, Im psi_plus_tilde) rows for plotting.

    Grid states report their own nodes; spectral states are reconstructed
    from the basis on a uniform mesh up to the basis resolution cap.
    """
    from .laguerre import basis_matrix

    if sv.representation == "e-grid":
        E = sv.basis.nodes
        vals = sv.data
    else:
        spec = sv.basis
        if sv.family == "Ztilde":
            cap = np.sqrt((2.0 * spec.M + 4.0) / (2.0 * spec.beta))
        else:
            cap = (2.0 * spec.M + 4.0) / (2.0 * spec.beta)
        E = np.linspace(cap / n_points, cap, n_points)
        vals = sv.data @ basis_matrix(spec, E, which=sv.family)
    return list(zip(E.tolist(), vals.real.tolist(), vals.imag.tolist()))


def write_state_csv(path, sv: StateVector, n_points: int = 512):
    """state_profile_rows under the header E,re_psi_plus,im_psi_plus in one
    write: the bytes csv.writer gives, each float by repr and each line
    ended by \\r\\n."""
    rows = state_profile_rows(sv, n_points)
    with open(path, "w", newline="") as f:
        f.write("E,re_psi_plus,im_psi_plus\r\n" + "".join(
            [f"{e!r},{re!r},{im!r}\r\n" for e, re, im in rows]))


# ---------------------------------------------------------------------------
# report exports

_REPORT_FIELDS = ("name", "passed", "residual", "tolerance", "backend",
                 "error")


def report_rows(suite) -> list:
    """Flatten a SuiteResult into one row per check."""
    return [{
        "name": r.name,
        "passed": {True: "pass", False: "fail", None: "inconclusive"}[r.passed],
        "residual": "" if r.residual is None else f"{r.residual:.6e}",
        "tolerance": "" if r.tolerance is None else f"{r.tolerance:.3e}",
        "backend": r.backend,
        "error": r.error or "",
    } for r in suite.reports]


def write_report_csv(path, suite):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_REPORT_FIELDS)
        w.writeheader()
        w.writerows(report_rows(suite))


def write_report_json(path, suite):
    doc = suite.to_dict()
    doc["format"] = "MODLOC-REPORT"
    doc["version"] = FORMAT_VERSION
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _report_entry_ok(d) -> bool:
    """True for a check entry that report_rows can print."""
    return (isinstance(d, dict) and set(_REPORT_FIELDS) <= set(d)
            and d["passed"] in (True, False, None)
            and all(d[f] is None or isinstance(d[f], (int, float))
                    for f in ("residual", "tolerance")))


def read_report_json(path) -> dict:
    """The document write_report_json wrote to path.

    Raises ConfigError when the file cannot be read, is not JSON, is not a
    MODLOC-REPORT, or lacks a field that the exports print.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "MODLOC-REPORT":
        raise ConfigError(f"{path} is not a MODLOC-REPORT file")
    reports = doc.get("reports")
    if (not isinstance(reports, list) or "aggregate_pass" not in doc
            or not all(map(_report_entry_ok, reports))):
        raise ConfigError(
            f"report {path} needs 'aggregate_pass' and a 'reports' list of "
            f"entries with {', '.join(_REPORT_FIELDS)}")
    return doc


def report_markdown(suite) -> str:
    """Human-readable summary table."""
    out = io.StringIO()
    out.write("| check | result | residual | tolerance |\n")
    out.write("|---|---|---|---|\n")
    for row in report_rows(suite):
        out.write(f"| {row['name']} | {row['passed']} | {row['residual']} "
                  f"| {row['tolerance']} |\n")
    out.write(f"\naggregate: {'pass' if suite.aggregate_pass else 'fail'}\n")
    return out.getvalue()


def write_suite_curves(base, suite):
    """write_curves_csv for each report that carries a curve, next to base
    as <stem>.<check>.curve.csv with the brackets and commas of the check
    name made underscores."""
    base = Path(base)
    for r in suite.reports:
        if {"curves", "r", "errors"} & set(r.values or {}):
            name = r.name.replace("[", "_").replace("]", "").replace(",", "_")
            write_curves_csv(base.with_name(f"{base.stem}.{name}.curve.csv"),
                             r)


def write_curves_csv(path, report):
    """Export the curve data a check carries (F(alpha) profiles, r(M)
    ladders, grid error ladders) as long-form CSV."""
    rows = []
    vals = report.values or {}
    for i, curve in enumerate(vals.get("curves", [])):
        for al, F in zip(curve["alphas"], curve["F"]):
            rows.append({"check": report.name, "series": i, "x": al, "y": F})
    if "r" in vals:
        ladder = report.params.get("ladder", range(len(vals["r"])))
        for m, r in zip(ladder, vals["r"]):
            rows.append({"check": report.name, "series": 0, "x": m, "y": r})
    if "errors" in vals:
        for n, e in zip(report.params.get("Ns", range(len(vals["errors"]))),
                        vals["errors"]):
            rows.append({"check": report.name, "series": 0, "x": n, "y": e})
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["check", "series", "x", "y"])
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# run configuration

def _is_number(value, kind) -> bool:
    """A finite instance of the numbers ABC kind that is not a bool."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class RunConfig:
    """Everything a run needs, serializable and round-trippable.

    The schema is the flat JSON object produced by to_json: representation
    parameters (k, beta, M), grid parameters (grid_n, grid_emax,
    grid_emax_tilde), localization inputs (intervals, bump family, seed,
    n_bumps, fixture_M), suite controls (scope, tol_profile), and output
    controls (out, format; a null format is the subcommand's own default).
    """

    k: float = 1.0
    beta: float = BasisSpec.beta
    M: int = BasisSpec.M
    grid_n: int = GridSpec.N
    grid_emax: float = GridSpec.E_max
    grid_emax_tilde: float = 10.0
    intervals: list = field(default_factory=lambda: [[1.0, 2.0], [0.5, 1.0],
                                                     [4.0, 8.0]])
    bump: str = "mollifier"
    n_bumps: int = 20
    fixture_M: int = 384
    weyl_M: int = 512
    scope: list | None = None
    tol_profile: str = "default"
    seed: int = 0
    out: str | None = None
    format: str | None = None

    def __post_init__(self):
        ints = ("M", "grid_n", "n_bumps", "fixture_M", "weyl_M", "seed")
        for name in ("k", "beta", "grid_emax", "grid_emax_tilde") + ints:
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral if name in ints
                              else numbers.Real):
                raise ConfigError(
                    f"{name} must be a finite "
                    f"{'integer' if name in ints else 'real number'}, "
                    f"got {value!r}")
        if not (isinstance(self.intervals, list) and self.intervals and all(
                isinstance(iv, (list, tuple)) and len(iv) == 2
                and all(_is_number(x, numbers.Real) for x in iv)
                for iv in self.intervals)):
            raise ConfigError(f"intervals must be a non-empty list of [a, b] "
                              f"pairs of real numbers, got {self.intervals!r}")
        if self.scope is not None and not (
                isinstance(self.scope, list)
                and all(isinstance(s, str) for s in self.scope)):
            raise ConfigError(f"scope must be null or a list of check-name "
                              f"prefixes, got {self.scope!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_bumps < 1:
            raise ConfigError(f"n_bumps must be >= 1, got {self.n_bumps}")
        if self.bump not in FIXTURE_FAMILIES:
            why = ("its transform decays only like E^-3, so its cutoff lies "
                   "far past the other families'" if self.bump in BUMP_FAMILIES
                   else "unknown family")
            raise ConfigError(f"bump family {self.bump!r} cannot build "
                              f"fixtures ({why}); expected one of "
                              f"{', '.join(FIXTURE_FAMILIES)}")
        if self.tol_profile not in TOL_PROFILES:
            raise ConfigError(
                f"unknown tolerance profile {self.tol_profile!r}")
        if self.format is not None and self.format not in FORMATS:
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be null or a path, got {self.out!r}")
        # the ranges are those of the specs a run builds from these fields
        specs = ([(f"k, beta, {m}", BasisSpec,
                   (self.k, self.beta, getattr(self, m)))
                  for m in ("M", "fixture_M", "weyl_M")]
                 + [(f"grid_n, {e}", GridSpec, (self.grid_n, getattr(self, e)))
                    for e in ("grid_emax", "grid_emax_tilde")]
                 + [("intervals", BumpSpec, iv) for iv in self.intervals])
        for names, cls, args in specs:
            try:
                cls(*args)
            except ValueError as exc:
                raise ConfigError(f"invalid {names}: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)

    def _without(self, *names) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in names}

    def content_config(self) -> dict:
        """The config fields that determine artifact content: everything
        except where and how the output is written."""
        return self._without("out", "format")

    def suite_config(self) -> dict:
        """The keys verification.run_suite reads, with this config's
        values: every field but the suite controls (scope, tol_profile,
        which run_suite takes as arguments) and the output controls."""
        return self._without("scope", "tol_profile", "out", "format")
