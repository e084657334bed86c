"""The workload process: warm-up, closed loop, verification, tracing.

Started by ``run.py`` with the BLAS/OpenMP thread count already set in its
environment (it must be set before numpy loads), and with ``src`` on
``PYTHONPATH``.  Writes one JSON document to ``--result``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --out-dir DIR --result PATH
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer

# A worker stops starting instances after this many seconds of wall time, so
# that a run of a much slower program still ends within three minutes.
WALL_CAP_S = 120.0

# Instances in a traced run.  The count is fixed, not timed, so that the
# per-layer counts repeat exactly between two traced runs of one seed; each
# list covers every instance kind of its workload.
TRACE_INSTANCES = {
    "constant-fine": 3,
    "driven-coarse": 4,
    "engine-sweep": 4,
    "open-system": 2,
}


class Runner:
    """Runs and verifies instances of one workload under one seed."""

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.warm_digest = None
        self.warm_problems = []

    def execute(self, spec, tag):
        """Run one instance.  Returns (seconds, bytes, result, error); only
        the call into the package is inside the timed region."""
        sweep = spec["kind"] == "sweep"
        inputs = workloads.prepare(spec) if sweep else None
        out_path = os.path.join(self.out_dir, f"{tag}-{spec['index']}.csv")
        gc.collect()  # collect the previous instance's garbage outside the timer
        start = time.perf_counter()
        try:
            if sweep:
                result = workloads.run_sweep(inputs)
            else:
                code = workloads.run_cli(spec, out_path)
        except Exception as exc:  # a raising instance is a counted failure
            return time.perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if sweep:
            return elapsed, workloads.sweep_bytes(result), (inputs, result), None
        if code != 0:
            return elapsed, None, None, f"wnd exited with code {code}"
        return elapsed, workloads.read_and_remove(out_path), None, None

    def verify(self, spec, data, payload, error):
        if error is not None:
            return [error]
        try:
            if spec["kind"] == "sweep":
                return workloads.verify_sweep(*payload)
            return workloads.verify_cli(spec, data)
        except Exception as exc:  # unreadable output fails verification
            return [f"verification raised {type(exc).__name__}: {exc}"]

    def warm_up(self):
        """Run instance 0 untimed; its bytes must match every later copy's.
        Its problems are reported with the first instance."""
        spec = workloads.draw(self.workload, self.seed, 0)
        _, data, payload, error = self.execute(spec, "warm")
        self.warm_problems = [f"warm-up: {p}" for p in self.verify(spec, data, payload, error)]
        self.warm_digest = workloads.digest(data) if data is not None else None

    def instance(self, index, tag, tracer=None):
        """Run, then verify, instance ``index``; with a tracer, the run (and
        only the run) is traced."""
        spec = workloads.draw(self.workload, self.seed, index)
        if tracer is None:
            seconds, data, payload, error = self.execute(spec, tag)
        else:
            tracer.instance = index
            with tracer.installed():
                tracer.enabled = True
                try:
                    seconds, data, payload, error = self.execute(spec, tag)
                finally:
                    tracer.enabled = False
        problems, self.warm_problems = self.warm_problems, []
        problems += self.verify(spec, data, payload, error)
        sha = workloads.digest(data) if data is not None else None
        if index == 0 and sha != self.warm_digest:
            problems.append("output bytes differ from the warm-up run of the same input")
        return {"index": index, "kind": spec["kind"], "seconds": seconds,
                "sha256": sha, "problems": problems}


def tail(times):
    """(time, percentile) of the tail instance.

    The highest percentile with at least ten instances beyond it, but never
    below the nearest-rank p75.  A run of fewer than 40 instances has no
    percentile at or above p75 with ten instances beyond it; it reports its
    upper quartile, which a single slow instance among four does not set.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.75 * n))
    return ordered[rank - 1], 100.0 * rank / n


def timed_run(runner, seconds, started):
    runner.warm_up()
    records = []
    timed = 0.0
    while timed < seconds and (not records or time.perf_counter() - started < WALL_CAP_S):
        records.append(runner.instance(len(records), "timed"))
        timed += records[-1]["seconds"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [r["seconds"] for r in records]
    passed = sum(1 for r in records if not r["problems"])
    tail_s, tail_pct = tail(times)
    metrics = {
        "run_p50_s": {"value": statistics.median(times), "unit": "s"},
        "run_tail_s": {"value": tail_s, "unit": "s"},
        "runs_per_s": {"value": passed / timed, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    details = {"tail_percentile": tail_pct, "instances": len(records), "timed_s": timed}
    return records, metrics, details


def traced_run(runner, spans_path):
    """Each instance runs untraced and then traced, so that both see the
    same cache state; the patches are in place only for the traced run."""
    n = TRACE_INSTANCES[runner.workload]
    runner.warm_up()
    tracer = Tracer()
    untraced, traced = [], []
    for i in range(n):
        untraced.append(runner.instance(i, "plain"))
        traced.append(runner.instance(i, "traced", tracer))
        if traced[-1]["sha256"] != untraced[-1]["sha256"]:
            traced[-1]["problems"].append("traced output bytes differ from the untraced run")
    wall_plain = sum(r["seconds"] for r in untraced)
    wall_traced = sum(r["seconds"] for r in traced)
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(wall_traced / wall_plain - 1.0)
    shares = tracer.layer_shares(wall_traced)
    details = {"instances": n, "untraced_s": wall_plain, "traced_s": wall_traced,
               "layer_self_share": shares,
               "dominant_layer": max(shares, key=shares.get),
               "spans": len(tracer.spans), "spans_file": spans_path}
    return untraced + traced, metrics, details


def blas_threads():
    """Thread count each loaded OpenBLAS reports at run time."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads_runtime": blas_threads(),
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    runner = Runner(args.workload, args.seed, args.out_dir)
    if args.trace:
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        records, metrics, details = traced_run(runner, spans_path)
    else:
        records, metrics, details = timed_run(runner, args.seconds, started)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "details": details, "instances": records,
                   "environment": environment()}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
