#!/usr/bin/env python3
"""Sweep the weight k and report the quadrature norm of the constant
function in the n = 1 weighted Bergman space.  The expected value is 1 for
every integrable weight; the Gauss-Jacobi rule carries the boundary weight
(1 - |w|^2)^{(k-5)/2} exactly, so its own error is at rounding level
(1e-13 or less up to k ~ 2070), and a deviation measures the
normalization constant.

Usage:
    python scripts/parseval_sweep.py [--mu 1.0] [--kmin 4] [--kmax 12] [--steps 9]

Exit status 0 iff every swept norm is returned and is within the rule's
RTOL of 1.
"""

import argparse
import sys

from siegel_jacobi.errors import GeometryError
from siegel_jacobi.kernels import RTOL, parseval_check_n1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--kmin", type=float, default=4.0)
    ap.add_argument("--kmax", type=float, default=12.0)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()

    ok = True
    print(f"{'k':>8}  {'norm':>22}  {'|norm - 1|':>12}")
    for i in range(args.steps):
        k = args.kmin + i * (args.kmax - args.kmin) / max(args.steps - 1, 1)
        try:
            val = parseval_check_n1(k, args.mu)
        except GeometryError as exc:
            print(f"{k:8.3f}  {type(exc).__name__}: {exc}")
            ok = False
            continue
        print(f"{k:8.3f}  {val:22.16f}  {abs(val - 1):12.3e}")
        ok &= abs(val - 1.0) <= RTOL
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
