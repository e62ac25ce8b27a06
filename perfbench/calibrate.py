"""Host-speed calibration of the siegel-jacobi benchmark.

On a shared host the speed of a core swings by up to 1.8x over seconds to
minutes (other tenants' load, frequency changes), and a whole 35 s run can
fall into a slow spell, so raw wall times of one run are not comparable with
those of the next.  The benchmark therefore runs a fixed calibration loop,
which never calls the package, every ``EVERY_S`` seconds next to the
requests, and divides each request's time by the loop's time measured around
it.  Multiplied by the loop's nominal time (its time on a quiet core of a
2-vCPU KVM guest) the result reads as the request's time on that core.  A
change of the program changes its times and not the loop's, so it moves the
normalised figures in full; a change of host speed moves both and cancels.

Host load slows interpreter-bound and numpy-bound code by different factors,
so each workload is calibrated with the loop whose profile matches its own:
``command_line`` for the CLI request stream, ``numeric`` for library calls
and the fuzzer.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import time

import numpy as np

EVERY_S = 0.05       # calibrate at most this often while requests run
WINDOW_S = 0.5       # a request is normalised by the calibrations within this

_RNG = np.random.default_rng(20151202)
_A = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))
_B = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))


def numeric() -> float:
    """Small complex matrix algebra in numpy with Python-level bookkeeping,
    the profile of the package's library calls and oracles."""
    acc = 0.0
    for i in range(75):
        m = _A + (i * 1e-3) * _B
        m = 0.5 * (m + m.T)
        x = np.linalg.solve(np.eye(3) + m @ m.conj(), _B[:, 0])
        acc += abs(np.linalg.det(m)) + float(np.vdot(x, x).real)
        rec = {"i": i, "re": [float(v) for v in x.real], "tag": f"c{i % 7}"}
        acc += len(rec["tag"]) + sum(rec["re"])
    return acc


def command_line() -> float:
    """Argument parsing, a file read and JSON in and out, the profile of a
    command-line request."""
    acc = 0.0
    for i in range(3):
        parser = argparse.ArgumentParser(prog="calibrate")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("eval", "transform", "sample"):
            cmd = sub.add_parser(name)
            cmd.add_argument("kind")
            cmd.add_argument("--n", type=int, required=True)
            cmd.add_argument("--k", type=float, default=4.0)
            cmd.add_argument("--point")
        args = parser.parse_args(["eval", "det", "--n", str(i + 1), "--point", __file__])
        with open(args.point, encoding="utf-8") as fh:
            text = fh.read()
        rec = {"n": args.n, "k": args.k, "lines": text.count("\n"), "v": [[0.5 * j, -j] for j in range(24)]}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            print(json.dumps(rec, indent=2, sort_keys=True))
        acc += len(json.loads(buf.getvalue())["v"])
    return acc


# each loop and its time in ns on a quiet core of a 2-vCPU KVM guest
LOOPS = {"numeric": (numeric, 1.8e6), "command_line": (command_line, 2.2e6)}


def measure(loop: str, repeats: int) -> float:
    """The loop's nominal time over its median time in ``repeats`` runs
    after one warm-up: the factor that turns a time measured now into one
    on the quiet core."""
    fn, nominal = LOOPS[loop]
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return nominal / float(np.median(times))


class Speed:
    """Calibration samples of the loop ``loop`` taken while requests run."""

    def __init__(self, loop: str):
        self._loop, self._nominal = LOOPS[loop]
        self.at: list[float] = []     # mid-point of each calibration, ns
        self.ns: list[int] = []       # its duration
        self._next = 0

    def tick(self) -> None:
        """Calibrate if the last calibration is ``EVERY_S`` old."""
        if time.perf_counter_ns() >= self._next:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self._loop()
        t1 = time.perf_counter_ns()
        self.at.append((t0 + t1) / 2)
        self.ns.append(t1 - t0)
        self._next = t1 + EVERY_S * 1e9

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The loop's nominal time over its median time within WINDOW_S of
        the interval [start_ns, end_ns] (the nearest one if there is none)."""
        lo = bisect.bisect_left(self.at, start_ns - WINDOW_S * 1e9)
        hi = bisect.bisect_right(self.at, end_ns + WINDOW_S * 1e9)
        if lo >= hi:
            mid = (start_ns + end_ns) / 2
            i = min(range(max(lo - 1, 0), min(lo + 1, len(self.at))),
                    key=lambda j: abs(self.at[j] - mid))
            lo, hi = i, i + 1
        return self._nominal / float(np.median(self.ns[lo:hi]))
