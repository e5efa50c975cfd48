"""One closed-loop benchmark client: a fresh interpreter issuing
``ctqrw.cli.run`` jobs one after another.

Started by ``run.py``.  It imports ``ctqrw.cli`` first and prints ``ready``
so the parent can time interpreter start plus import.  Then it runs the
job list in passes until the time budget is spent (the last pass completes),
timing wall and CPU per pass.  With ``--trace 1`` it adds one traced pass
after the untraced ones.  The correctness gate runs last, outside every
timed region, and the result goes to a JSON file.

    python3 client.py --spec jobs.json --out-dir DIR --seconds S --trace 0|1 --result R
"""

import ctqrw.cli

# The parent times interpreter start up to this line, so every other
# import comes after it.
print("ready", flush=True)

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

import gate
from tracing import Tracer


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_job(job: dict, out_dir: str) -> int:
    """One CLI job; returns its exit code."""
    try:
        return ctqrw.cli.run(job["ini_path"], out_dir)
    except Exception:  # the CLI would exit 1 with this traceback
        traceback.print_exc()
        return 1


def run_pass(jobs: list, out_dir: str, tracer=None) -> dict:
    """Run every job once; returns wall and CPU seconds and per-job times."""
    os.makedirs(out_dir, exist_ok=True)
    job_s, codes = {}, {}
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        if tracer is None:
            codes[job["name"]] = run_job(job, out_dir)
        else:
            tracer.job = job["name"]
            codes[job["name"]] = tracer.span(f"cli.job.{job['name']}", run_job, job, out_dir)
        job_s[job["name"]] = time.perf_counter() - start
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "job_s": job_s, "codes": codes}


def csv_digests(jobs: list, out_dir: str) -> dict:
    digests = {}
    for job in jobs:
        path = os.path.join(out_dir, job["csv"])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[job["name"]] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_num_threads = getattr(lib, symbol)
                get_num_threads.argtypes = []
                get_num_threads.restype = ctypes.c_int
                return get_num_threads()
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ctqrw": ctqrw.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.spec) as fh:
        jobs = json.load(fh)

    # closed loop: passes until the budget is spent; the last one completes
    passes, digests = [], []
    while sum(p["wall_s"] for p in passes) < args.seconds:
        out_dir = os.path.join(args.out_dir, f"pass{len(passes)}")
        passes.append(run_pass(jobs, out_dir))
        digests.append(csv_digests(jobs, out_dir))
        if len(passes) > 1:
            shutil.rmtree(out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"passes": passes, "peak_rss_mb": peak_rss_mb, "provenance": provenance()}
    if args.trace:
        tracer = Tracer().install()
        try:
            traced_dir = os.path.join(args.out_dir, "traced")
            traced = run_pass(jobs, traced_dir, tracer)
        finally:
            tracer.restore()
        result["traced"] = traced
        digests.append(csv_digests(jobs, traced_dir))
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)

    # gate: pass 0 against the references, every later run byte for byte
    runs = passes + ([result["traced"]] if args.trace else [])
    first_dir = os.path.join(args.out_dir, "pass0")
    failures = {}
    for job in jobs:
        name = job["name"]
        reasons = gate.check_job(job, first_dir, passes[0]["codes"][name])
        for k, run in enumerate(runs[1:], start=1):
            if run["codes"][name] != 0:
                reasons.append(f"exit code {run['codes'][name]} on run {k}")
            elif digests[k].get(name) != digests[0].get(name):
                reasons.append(f"CSV of run {k} differs from run 0 for the same seed")
        if reasons:
            failures[name] = reasons
    result["failures"] = failures
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
