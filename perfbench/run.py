"""Benchmark of the wnd package: one seeded workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/wnd``.  The workloads,
metrics and layer predictions are described in ``perfbench/README.md``.

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
starts one workload process that warms up, drives a closed loop (one client,
one instance in flight) for ``--seconds`` of timed work, and verifies every
instance outside the timed region.  With ``--trace 1`` the workload process
runs a fixed list of instances, each once untraced and once traced, and
reports per-layer metrics.  The BLAS/OpenMP thread count of every process
started here is set to the number of CPUs this process may use.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every instance passed verification, 1 when one failed (the result is
still printed), and 2 without a result when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 3
# The workload process is killed if it runs longer than this.
WORKER_TIMEOUT_S = 160.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env(threads):
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = str(threads)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, workload, seed):
    """Median wall time of fresh interpreters that import wnd and prepare
    the first instance's inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, workload, str(seed)], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr.decode(errors='replace')}")
    return statistics.median(times), times


def run_worker(env, args, result_path):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT, "--result", result_path]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"workload process exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def source_identity():
    """The git commit when there is one, and a digest of the package source."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    sha = hashlib.sha256()
    package = os.path.join(SRC, "wnd")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return commit, sha.hexdigest()


def report(args, result, threads, failed):
    """Human-readable lines; the JSON result line is printed after them."""
    details = result["details"]
    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas threads {threads} (nproc)")
    print(f"python {env['python']}  numpy {env['numpy']} (OpenBLAS {env['numpy_openblas']})"
          f"  scipy {env['scipy']} (OpenBLAS {env['scipy_openblas']})"
          f"  runtime threads {env['blas_threads_runtime']}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "run_tail_s":
            note = f"  (p{details['tail_percentile']:.4g} of n={details['instances']})"
        print(f"  {name:26s} {metric['value']:.6g} {metric['unit']}{note}")
    if args.trace:
        shares = details["layer_self_share"]
        print("  self-time share: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"  dominant layer: {details['dominant_layer']}")
    else:
        attempted = len(result["instances"])
        print(f"  {'fail_frac':26s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    for record in result["instances"]:
        for problem in record["problems"]:
            print(f"  FAILED instance {record['index']} ({record['kind']}): {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wnd", "__init__.py")):
        print(f"error: no wnd package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    try:
        setup = measure_setup(env, args.workload, args.seed) if not args.trace else None
        result = run_worker(env, args, os.path.join(OUT, f"worker-{tag}.json"))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        result["details"]["setup_probes_s"] = setup[1]
    records = result["instances"]
    failed = sum(1 for r in records if r["problems"])
    commit, source_sha = source_identity()
    result["run"] = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "blas_threads": threads,
                     "thread_variables": list(THREAD_VARIABLES), "nproc": threads,
                     "cpu_count": os.cpu_count(),
                     "commit": commit, "source_sha256": source_sha}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    report(args, result, threads, failed)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
