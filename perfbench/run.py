"""siegel-jacobi benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_small_n --seed 1 --seconds 35 --trace 0

Workloads: cli_small_n, eval_large_n, fuzz_verify (see workloads.py and
BENCHMARK.json).  With ``--trace 0`` it prints every end-to-end metric, with
its unit and sample count, and the share of failed operations; with
``--trace 1`` it prints the per-layer metrics of a traced run of fixed size.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in one child process with SJK_THREADS and the BLAS/OpenMP
thread counts pinned to 1.  Every time is normalised to host speed by a
calibration loop run next to it (see ``calibrate.py``), and each request is
timed by the median of its repeats (see ``workload.timed_run``); the raw
wall-clock figures are printed on a ``# raw`` line.  ``setup_s`` is the
median over that process and ``SETUP_PROBES`` more fresh interpreters that
only import the package and generate the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
PINS = {
    "SJK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name == "metric.pair_entries":
        return "count.computed"
    if name == "serialize.bytes_out":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_call", "_per_entry", "_max", "_frac")):
        return "ratio"
    return "count"


def spawn(args, *extra: str, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), *extra,
    ]
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="siegel-jacobi benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "siegel_jacobi" / "__init__.py").is_file():
        print(f"no siegel_jacobi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = spawn(args, "--setup-only", timeout=deadline - time.monotonic())
                setups.append(probe["setup_s"])
        result = spawn(args, timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("# env " + json.dumps(result["env"], sort_keys=True))
    metrics = dict(result["metrics"])
    samples = dict(result["samples"])
    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
        print(f"# spans written to {result['spans_file']}")
    else:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        samples["peak_rss_mb"] = 1
        units = END_TO_END_UNITS
        print("# raw " + json.dumps(result["raw"], sort_keys=True))
    for name in units:
        count = samples.get(name)
        note = f" (samples: {count})" if count is not None else ""
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {units[name]}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted; "
          f"worst check residual/tol {result['residual_max']:.3g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
