"""ctqrw benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 benchmarks/run.py --workload mc-ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a ctqrw checkout; ctqrw is imported from ``src/``.
Each run starts one fresh client interpreter (``client.py``) that issues
``ctqrw.cli.run`` jobs one after another, in passes over the workload's job
list (``jobs.py``) until ``--seconds`` are spent; the pass in flight
completes.  Job inputs are generated
from ``--seed``; every job's CSV is checked against an independent
reference (``gate.py``) after the timed passes.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time for
a fresh interpreter to start and import ``ctqrw.cli``, over several
interpreters), ``wall_s`` and ``cpu_s`` (median over passes of one pass over
the job list), ``peak_rss_mb`` of the client.  ``--trace 1`` reports the
per-layer metrics of one extra traced pass (``tracing.py``), the import
breakdown of ``python -X importtime``, and the tracing overhead.

The last line of standard output is the JSON result.  The line before it
records python/numpy/scipy versions, the CPU count and BLAS threads.  Work
files go to ``.bench_work/`` in the checkout; the spans of the latest
traced run of each workload stay there as ``spans-<workload>.csv``.

The benchmark's own tests: ``python3 -m pytest benchmarks/tests -q``.

Jobs listed in ``jobs.KNOWN_DEFECTS`` are checked like every other job and
their failures are printed, but they are counted under
``gate.known_defects`` instead of ``failed``.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import jobs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # interpreters timed for setup_s, the client included
DEADLINE_S = 170  # a run ends within this many seconds, or fails
IMPORT_PROBE = "import ctqrw.cli; print('ready', flush=True)"
IMPORTS = ("ctqrw.cli", "ctqrw.engine", "ctqrw.kernels", "ctqrw.config", "scipy.signal")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: traced self time ``.s``, call counts, work counts
_TRACED = [
    "kernels.sample_waiting.calls", "kernels.sample_waiting.draws", "kernels.sample_waiting.s",
    "kernels.draws_used_frac", "seeding.stream.calls", "seeding.stream.s",
    "engine.run_realization.calls", "engine.run_realization.s", "engine.draw_event_times.s",
    "engine.events", "quantum.apply_kraus.calls", "quantum.apply_kraus.s",
    "quantum.apply_kraus.distinct_frac", "quantum.linear_entropy.calls",
    "quantum.linear_entropy.s", "models.wigner_ctrw.walkers", "models.wigner_ctrw.s",
    "engine.ensemble_average.s",
    "special.mittag_leffler.calls", "special.mittag_leffler.points", "special.mittag_leffler.s",
    "special.mittag_leffler.us_per_point", "kernels.waiting_survival.points",
    "kernels.waiting_survival.s", "kernels.survival_cell_integrals.s",
    "engine.renewal_probabilities.s", "engine.renewal_probabilities.rows",
    "engine.series_solution.s", "laplace.invert.calls", "laplace.invert.points",
    "laplace.invert.s", "kernels.classify_kernel.calls", "kernels.classify_kernel.s",
    "kernels.renewal_mean_count.calls", "solvers.subordination_solve.s",
    "solvers.closed_form_solve.s", "models.qubit_closed_solution.s",
    "solvers.volterra_solve.steps", "solvers.volterra_solve.s",
    "models.intrinsic_decoherence.s", "solvers.cp_defect_over_time.points",
    "solvers.cp_defect_over_time.s", "quantum.choi_of_map.calls", "quantum.choi_of_map.s",
    "cli.write_csv.s", "cli.write_csv.rows", "cli.validate_manifest.s", "config.parse_config.s",
]


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "1"
    if name.endswith("us_per_point"):
        return "us"
    return "s" if name.endswith(".s") or name.endswith("_s") else "count"


def per_layer_metrics() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = list(_TRACED)
    names += [f"cli.job.{job['name']}.s" for w in jobs.WORKLOADS for job in jobs.jobs(w, 0)]
    names += [f"setup.import.{module}_s" for module in IMPORTS]
    names += ["trace.overhead_frac", "gate.failed_frac", "gate.known_defects"]
    return {name: _unit(name) for name in names}


def client_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def left(deadline: float) -> float:
    """Seconds left before `deadline` (a time.monotonic value)."""
    return max(1.0, deadline - time.monotonic())


def run_until_exit(argv: list, env: dict, deadline: float) -> float:
    """Run an interpreter that imports ctqrw.cli to completion; returns the
    seconds from spawning it to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], left(deadline))
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - start
        proc.communicate(timeout=left(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} failed (exit code {proc.returncode})")
    return setup


def import_breakdown(env: dict, deadline: float) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ctqrw.cli"],
                          env=env, capture_output=True, text=True, timeout=left(deadline),
                          stdin=subprocess.DEVNULL, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
        if m and m.group(2) in IMPORTS:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {f"setup.import.{module}_s": found.get(module, 0.0) for module in IMPORTS}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctqrw", "__init__.py")):
        print("benchmark: run from the root of a ctqrw checkout (src/ctqrw not found)",
              file=sys.stderr)
        return 2
    env = client_env(root)
    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, root, env, base, work, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, root: str, env: dict, base: str, work: str, deadline: float) -> int:
    job_list = jobs.jobs(args.workload, args.seed)
    for job in job_list:
        job["ini_path"] = os.path.join(work, job["name"] + ".ini")
        with open(job["ini_path"], "w") as fh:
            fh.write(job["ini"])
    spec = os.path.join(work, "jobs.json")
    with open(spec, "w") as fh:
        json.dump(job_list, fh)

    # byte-compile once so no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True, stdout=subprocess.DEVNULL, timeout=left(deadline))
    setups = [] if args.trace else [run_until_exit(["-c", IMPORT_PROBE], env, deadline)
                                     for _ in range(SETUP_SAMPLES - 1)]
    result_path = os.path.join(work, "result.json")
    argv = ["--spec", spec, "--out-dir", os.path.join(work, "out"),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", result_path]
    if args.trace:
        argv += ["--spans", os.path.join(base, f"spans-{args.workload}.csv")]
    setups.append(run_until_exit([os.path.join(BENCH_DIR, "client.py")] + argv, env, deadline))
    with open(result_path) as fh:
        result = json.load(fh)

    failures = result["failures"]
    known = {name: why for name, why in jobs.KNOWN_DEFECTS.items() if name in failures}
    for name, reasons in failures.items():
        tag = f" (known defect: {known[name]})" if name in known else ""
        print(f"FAIL {args.workload}/{name}{tag}: {'; '.join(reasons)}")
    for name in jobs.KNOWN_DEFECTS:
        if name in {j["name"] for j in job_list} and name not in failures:
            print(f"known defect no longer reproduces: {args.workload}/{name}")
    failed = len(failures) - len(known)

    passes = result["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    if args.trace:
        metrics = {name: 0.0 for name in per_layer_metrics()}
        metrics.update((k, v) for k, v in result["layers"].items() if k in metrics)
        for name in passes[0]["job_s"]:
            metrics[f"cli.job.{name}.s"] = statistics.median(p["job_s"][name] for p in passes)
        metrics.update(import_breakdown(env, deadline))
        metrics["trace.overhead_frac"] = (result["traced"]["wall_s"] - wall) / wall
        metrics["gate.failed_frac"] = len(failures) / len(job_list)
        metrics["gate.known_defects"] = len(known)
        units = per_layer_metrics()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    print(f"{args.workload}: {len(passes)} passes of {len(job_list)} jobs, "
          f"{len(failures)} of them failing their check ({len(known)} known defects)")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    for name in passes[0]["job_s"]:
        job_s = statistics.median(p["job_s"][name] for p in passes)
        print(f"  job {name}: {job_s:.3f} s (median over passes)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(job_list),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
