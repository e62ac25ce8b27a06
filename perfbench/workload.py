"""Workload process of the siegel-jacobi benchmark (started by run.py).

It imports the package from ``<checkout>/src``, generates its inputs from the
seed (set-up, timed from the moment the parent spawned the interpreter) and
then either

* ``--setup-only``: reports the set-up time and exits;
* ``--trace 0``: serves passes over the requests with one closed-loop client
  until ``--seconds`` have elapsed, checking every pass's outputs between
  passes, outside the timed calls, and normalising every time to host speed
  (calibrate.py);
* ``--trace 1``: runs a fixed number of passes untraced and then traced, so
  that every count is deterministic, and reports the per-layer metrics.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

# set-up starts here: the package and numpy/scipy import under the clock
import numpy as np
import scipy

import siegel_jacobi
from calibrate import Speed, measure
from tracer import Tracer
from workloads import WORKLOAD_CLASSES, Failure

PIN_NAMES = (
    "SJK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED",
)
SETUP_CALIBRATIONS = 5


def run_pass(workload, index: int, tracer: Tracer | None = None, speed: Speed | None = None):
    """Serve one pass; returns (latencies ns, pass wall ns, outcomes).  With
    ``speed``, each latency is normalised to host speed (see calibrate.py)
    and the calibrations run between requests, outside the timed calls."""
    requests = workload.requests(index)
    outputs, spans = [], []
    start = time.perf_counter_ns()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = index * len(requests) + i
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter_ns()
        try:
            out = req.call()
        except Exception:  # a request that raises is a failed operation
            out = Failure()
        t1 = time.perf_counter_ns()
        spans.append((t0, t1))
        outputs.append(out)
    wall = time.perf_counter_ns() - start
    latencies = [t1 - t0 for t0, t1 in spans]
    if speed is not None:
        speed.sample()
        latencies = [lat * speed.scale(t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
    return latencies, wall, workload.check(requests, outputs)


def _summary(outcomes) -> dict:
    ratios = [r for _, r in outcomes]
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for ok, _ in outcomes if not ok),
        "residual_max": max(ratios) if ratios else 0.0,
    }


def timed_run(workload, seconds: float) -> dict:
    """Closed loop until ``seconds`` have elapsed.

    Every pass issues the same request slots in the same order.  Each
    request's time is normalised to host speed (calibrate.py) and each slot
    is timed by the median of its repeats.  ``verdict_s`` is the time of a
    pass made of each slot's median; the raw wall-clock figures are
    reported next to the normalised ones."""
    speed = Speed(workload.calibration)
    for i in range(workload.warmup_passes):
        run_pass(workload, -1 - i)
    passes, raw, outcomes = [], [], []  # per pass: latencies in slot order
    deadline = time.perf_counter_ns() + seconds * 1e9
    index = 0
    while True:
        lat, wall, out = run_pass(workload, index, speed=speed)
        passes.append(lat)
        raw.append(wall)
        outcomes += out
        index += 1
        # stop before a pass that would end past the deadline
        if time.perf_counter_ns() + wall > deadline:
            break
    slots = np.median(np.asarray(passes, dtype=float), axis=0)
    verdict_ns = float(slots.sum())
    p50, p99 = np.percentile(slots / 1e6, [50, 99])
    result = _summary(outcomes)
    result["metrics"] = {
        "requests_per_s": len(slots) / (verdict_ns / 1e9),
        "latency_p50_ms": float(p50),
        "latency_p99_ms": float(p99),
        "verdict_s": verdict_ns / 1e9,
    }
    note = (f"{len(slots)} request slots x median of {len(passes)} repeats "
            f"= {len(slots) * len(passes)} latencies")
    result["samples"] = {name: note for name in result["metrics"]}
    result["raw"] = {
        "pass_wall_s_median": float(np.median(raw)) / 1e9,
        "calibration_ms_median": float(np.median(speed.ns)) / 1e6,
        "calibrations": len(speed.ns),
    }
    return result


def traced_run(workload, spans_path: str) -> dict:
    for i in range(workload.warmup_passes):
        run_pass(workload, -1 - i)
    passes = range(workload.trace_passes)
    plain_ns, outcomes = 0, []
    for index in passes:
        _, wall, out = run_pass(workload, index)
        plain_ns += wall
        outcomes += out
    tracer = Tracer()
    tracer.install()
    traced_ns = 0
    try:
        for index in passes:
            _, wall, out = run_pass(workload, index, tracer)
            traced_ns += wall
            outcomes += out
    finally:
        tracer.uninstall()
    result = _summary(outcomes)
    metrics = tracer.layer_metrics()
    metrics["check.residual_max"] = result["residual_max"]
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    result["metrics"] = metrics
    result["samples"] = {"passes": len(passes), "spans": len(tracer.spans)}
    tracer.write_spans(spans_path)
    return result


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pins": {k: os.environ.get(k) for k in PIN_NAMES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent when it spawned this process")
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    if not os.path.abspath(siegel_jacobi.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"siegel_jacobi imported from {siegel_jacobi.__file__}, not {src}", file=sys.stderr)
        return 2
    work_root = os.path.join(args.root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        # normalised to host speed by a calibration right after set-up
        setup_s *= measure(workload.calibration, SETUP_CALIBRATIONS)
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            out_dir = os.path.join(args.root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = traced_run(workload, spans)
            result["spans_file"] = os.path.relpath(spans, args.root)
        else:
            result = timed_run(workload, args.seconds)
            result["setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
