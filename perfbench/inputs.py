"""Seeded inputs of the siegel-jacobi benchmark.

Everything here is plain numpy/scipy and never calls the package under test:
the program only receives the generated points, group elements and point
JSON files.  The same seed gives byte-identical inputs (see
``canonical_bytes``); each workload draws from its own stream, so adding a
workload does not change the inputs of another.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import expm

K_WEIGHT = 4.0
MU_WEIGHT = 1.0

WORKLOADS = ("cli_small_n", "eval_large_n", "fuzz_verify")

CLI_DIMS = (1, 2, 3)
CLI_VARIANTS = 2          # points per dimension in the CLI request stream
# points (and group elements) per large dimension, d = n(n+3)/2 = 27 and 44;
# the unequal counts put the latency median inside one request kind's band
# rather than on the boundary between two kinds
LARGE_POINTS = {6: 3, 8: 2}
# n = 3 is left out: a verdict there takes ~5 s, too few repeats in one run
# to time each property steadily on a shared host
FUZZ_DIMS = (2,)
FUZZ_TRIALS = 1           # trials per property in one verdict
FUZZ_SEEDS = 32           # master seeds, one per verdict, reused cyclically

SAMPLE_DOMAINS = ("ball", "jacobi_ball", "upper", "jacobi_upper")
GROUP_DOMAINS = ("jacobi_ball", "upper")


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def ball_point(rng: np.random.Generator, n: int) -> dict:
    """(z, W) with W symmetric of spectral norm r/2, r uniform in [0.2, 0.7],
    so 1 - W Wbar has eigenvalues >= 0.87."""
    radius = rng.uniform(0.2, 0.7)
    A = _cgauss(rng, (n, n))
    S = A + A.T
    W = radius * S / (2.0 * np.linalg.norm(S, 2))
    W = 0.5 * (W + W.T)
    return {"n": n, "z": _cgauss(rng, n), "W": W}


def real_jacobi_element(rng: np.random.Generator, n: int) -> dict:
    """Real Jacobi element: exp of a Hamiltonian matrix of Frobenius norm <= 1,
    a translation (lambda, mu) in R^{2n} and a central coordinate."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    X = np.block([[a, 0.5 * (b + b.T)], [0.5 * (c + c.T), -a.T]])
    X /= max(1.0, float(np.linalg.norm(X)))
    g = expm(X)
    return {
        "a": g[:n, :n], "b": g[:n, n:], "c": g[n:, :n], "d": g[n:, n:],
        "lambda_mu": rng.standard_normal(2 * n),
        "k_center": float(rng.standard_normal()),
    }


def upper_image(pt: dict) -> dict:
    """Inverse partial Cayley transform: V = i (1-W)^{-1}(1+W), u = (1-W)^{-1} z."""
    n, W = pt["n"], pt["W"]
    A = np.eye(n) - W
    V = 1j * np.linalg.solve(A, np.eye(n) + W)
    return {"n": n, "V": 0.5 * (V + V.T), "u": np.linalg.solve(A, pt["z"])}


def cross_gram(W: np.ndarray) -> np.ndarray:
    N = np.eye(W.shape[0]) - W @ W.conj()
    return 0.5 * (N + N.conj().T)


def fc_image(pt: dict) -> dict:
    """FC coordinates: eta = (1 - W Wbar)^{-1}(z + W zbar)."""
    W, z = pt["W"], pt["z"]
    eta = np.linalg.solve(cross_gram(W), z + W @ z.conj())
    return {"n": pt["n"], "eta": eta, "W": W}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as numpy arrays and Python scalars."""
    rng = _rng(workload, seed)
    if workload == "cli_small_n":
        cases = []
        for n in CLI_DIMS:
            for v in range(CLI_VARIANTS):
                pt = ball_point(rng, n)
                cases.append({
                    "n": n,
                    "variant": v,
                    "point": pt,
                    "upper": upper_image(pt),
                    "fc": fc_image(pt),
                    "sample_seed": int(rng.integers(2**31)),
                    "sample_radius": float(rng.uniform(0.2, 0.7)),
                    "sample_domain": SAMPLE_DOMAINS[(n + v) % len(SAMPLE_DOMAINS)],
                    "group_domain": GROUP_DOMAINS[v % len(GROUP_DOMAINS)],
                })
        return {"workload": workload, "cases": cases}
    if workload == "eval_large_n":
        cases = []
        for n, count in LARGE_POINTS.items():
            for v in range(count):
                cases.append({
                    "n": n,
                    "variant": v,
                    "point": ball_point(rng, n),
                    "element": real_jacobi_element(rng, n),
                })
        return {"workload": workload, "cases": cases}
    if workload == "fuzz_verify":
        seeds = [int(s) for s in rng.integers(2**31, size=FUZZ_SEEDS)]
        return {"workload": workload, "master_seeds": seeds}
    raise ValueError(f"unknown workload {workload!r}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _jsonable(np.stack([obj.real, obj.imag], axis=-1))
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def canonical_bytes(inputs: dict) -> bytes:
    """Deterministic serialization of the inputs (repr floats, sorted keys)."""
    return json.dumps(_jsonable(inputs), sort_keys=True, separators=(",", ":")).encode()


def write_point_files(inputs: dict, directory: str) -> dict:
    """Write the ball, upper-half-plane and FC point files of every CLI case
    in the package's wire format; returns {(n, variant): {kind: path}}."""
    paths = {}
    for case in inputs["cases"]:
        key = (case["n"], case["variant"])
        paths[key] = {}
        for kind in ("point", "upper", "fc"):
            path = os.path.join(directory, f"n{key[0]}_v{key[1]}_{kind}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(_jsonable(case[kind]), sort_keys=True))
            paths[key][kind] = path
    return paths
