"""The demos run and every exported name resolves, so a deleted or renamed
function cannot leave a broken demo or export behind; importing the
package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modloc

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [
    ["spectral_representation.py", "--M", "64"],
    ["group_geometry.py"],
    ["local_states.py", "--bumps", "1"],
    ["convergence_study.py", "--ladder", "64", "128"],
], ids=lambda argv: argv[0])
def test_demo_runs(argv):
    proc = _run([str(ROOT / "demos" / argv[0]), *argv[1:]])
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_interpolation():
    # scipy.interpolate costs every process a few tenths of a second and
    # 20 MB of resident memory, and nothing in the package resamples by
    # spline
    proc = _run(["-c", "import sys, modloc; print(sorted(m for m in "
                 "sys.modules if m.startswith('scipy.interpolate')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_special():
    # the package takes Gamma only on scalars (math.lgamma) and T's
    # eigenvectors from its own Laguerre rows, so importing it needs
    # scipy.linalg alone
    proc = _run(["-c", "import sys, modloc; print(sorted(m for m in "
                 "sys.modules if m.startswith('scipy.special')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(modloc.__path__)))
def test_exports_resolve(name):
    module = importlib.import_module(f"modloc.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
