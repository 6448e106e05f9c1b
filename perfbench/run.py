"""modloc benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/modloc`.  Set-up is timed by
starting fresh interpreters that import modloc and draw the inputs
(perfbench/workloads.py as a script).  With `--trace 0` the run repeats
whole passes of the workload until S seconds are spent and reports the
end-to-end metrics; with `--trace 1` it runs one untraced pass and one
traced pass and reports the per-layer metrics and the tracing overhead.
Every operation is checked; the last line of standard output is the JSON
result.  The full record (environment, every sample, every verdict) and,
when traced, the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import PASSES, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# one BLAS thread: on a shared two-CPU host a two-thread OpenBLAS ran up to
# three times slower whenever another process wanted a CPU, one thread about
# a fifth slower, so one thread keeps runs comparable
BLAS_THREADS = 1

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ops_ok_frac", "ratio"))


def time_setup(workload: str, seed: int, size: str) -> float:
    """Seconds from starting an interpreter until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
           size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {cmd}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def measured_pass(workload, inputs):
    """(seconds, ops) of one pass; temp files live and die inside OUT."""
    tmpdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        start = time.perf_counter()
        try:
            ops = PASSES[workload](inputs, tmpdir)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            ops = [{"name": workload, "ok": False, "residual": None,
                    "verdict": None, "error": f"{type(exc).__name__}: {exc}"}]
        return time.perf_counter() - start, ops
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: every code path at a small size")
    args = parser.parse_args(argv)

    if not (SRC / "modloc" / "__init__.py").is_file():
        print(f"no modloc sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup = [time_setup(args.workload, args.seed, args.size)
             for _ in range(SETUP_PROBES)]

    inputs = make_inputs(args.workload, args.seed, args.size)
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        tag += "-" + args.size

    samples, ops = [], []
    clock = time.perf_counter()
    while True:
        dt, pass_ops = measured_pass(args.workload, inputs)
        samples.append(dt)
        ops += pass_ops
        if args.trace or (time.perf_counter() - clock
                          + statistics.median(samples) > args.seconds):
            break

    if args.trace:
        from spans import PER_LAYER, Tracer, layer_metrics

        with Tracer() as tracer:
            origin = time.perf_counter()
            traced_s, traced_ops = measured_pass(args.workload, inputs)
        ops += traced_ops
        tracer.write_spans(OUT / f"spans-{tag}.json", origin)
        values = layer_metrics(tracer, traced_s, samples[0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "run_s": statistics.median(samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": sum(op["ok"] for op in ops) / len(ops),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    failed = sum(not op["ok"] for op in ops)
    record = {"workload": args.workload, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "inputs": inputs,
              "setup_s_samples": setup, "run_s_samples": samples,
              "metrics": metrics, "ops": ops}
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(record, f, indent=1, default=float)
        f.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(samples)} setup_probes={len(setup)} ops={len(ops)} "
          f"failed={failed} env={json.dumps(env)}")
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['name']}: {op['error'] or op['verdict']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
