"""The three benchmark workloads.

Each workload builds its requests once (set-up) and then serves passes over
them.  A request is one closed-loop call into the package; ``check`` turns
the outputs of a pass into operation outcomes ``(ok, worst residual/tol)``
using ``checks``.  Calls go through a module attribute looked up at call
time, so the traced run sees them through the rebound names.

* ``cli_small_n``: ``cli.main(argv)`` in-process at n in {1, 2, 3}; the cost
  is per request (argument parsing, JSON, validation), not per matrix entry.
* ``eval_large_n``: direct library calls at n in {6, 8} (d = 27, 44), where
  the ordered-pair loops of ``metric`` and ``laplacian`` grow as m^2.
* ``fuzz_verify``: one pass is one verdict, the work of
  ``fuzz_all(properties="all")`` at n = 2, one property per call; bound by
  the finite-difference oracles and the n = 1 Parseval quadrature.

Which per-layer metric (traced run) should move which end-to-end metric:

  cli.self_s, cli.nonzero_exit        latency_p50_ms, requests_per_s on cli_small_n
  serialize.self_s, .bytes_out        latency_p50_ms on cli_small_n
  domains.validations, .self_s        cli_small_n latency; fuzz_verify verdict_s
  metric.self_s, .aux_calls,          requests_per_s, latency_p99_ms on eval_large_n;
    .aux_per_call, .pair_entries        verdict_s on fuzz_verify (Ricci, lnG)
  oracle.self_s, .fn_evals,           verdict_s on fuzz_verify only
    .evals_per_entry
  kernels.self_s, .parseval_calls,    verdict_s on fuzz_verify; cli_small_n latency
    .parseval_s                         (eval kernel)
  groups.self_s                       cli_small_n (transforms, sampling); fuzz_verify
  laplacian.self_s                    eval_large_n; fuzz_verify (apply_laplacian)
  verify.trials, .failed,             verdict_s
    .tol_ratio_max, .group.<g>_s
  check.residual_max                  worst output-check residual / tolerance
  trace.overhead_frac                 traced / untraced time of the same passes - 1
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
from inputs import (
    CLI_VARIANTS,
    FUZZ_DIMS,
    FUZZ_TRIALS,
    K_WEIGHT,
    LARGE_POINTS,
    MU_WEIGHT,
    make_inputs,
    write_point_files,
)

EVAL_KINDS = ("potential", "metric", "inverse", "det", "curvature", "kernel")
TRANSFORMS = ("cayley", "inv-cayley", "fc", "inv-fc")
LARGE_CALLS = (
    ("metric", "metric_blocks"),
    ("metric", "metric_inverse"),
    ("metric", "metric_det"),
    ("metric", "curvature"),
    ("laplacian", "laplacian_coefficients"),
    ("kernels", "normalized_kernels"),
    ("groups", "act_ball"),
)


@dataclass(frozen=True)
class Request:
    key: tuple                 # identifies the request within a pass
    call: Callable[[], object]


class Failure:
    """Output slot of a request that raised."""


def _call_attr(module, name: str, *args):
    return getattr(module, name)(*args)


def _outcome(found) -> tuple[bool, float]:
    return checks.residuals_ok(found), checks.worst_ratio(found)


class CliSmallN:
    name = "cli_small_n"
    calibration = "command_line"   # host-speed loop, see calibrate.py
    warmup_passes = 1
    trace_passes = 10

    def __init__(self, seed: int, workdir: str):
        from siegel_jacobi import cli

        self.cli = cli
        inputs = make_inputs(self.name, seed)
        paths = write_point_files(inputs, workdir)
        self.cases = {(c["n"], c["variant"]): c for c in inputs["cases"]}
        reqs = []
        for (n, v), case in self.cases.items():
            own = paths[(n, v)]
            params = ["--n", str(n), "--k", repr(K_WEIGHT), "--mu", repr(MU_WEIGHT)]
            for q in EVAL_KINDS:
                argv = ["eval", q, *params, "--point", own["point"]]
                if q == "kernel":
                    argv += ["--point2", paths[(n, (v + 1) % CLI_VARIANTS)]["point"]]
                reqs.append(((n, v, "eval", q), argv))
            sources = {"cayley": "upper", "inv-cayley": "point", "fc": "point", "inv-fc": "fc"}
            for t in TRANSFORMS:
                reqs.append(((n, v, "transform", t),
                             ["transform", t, "--n", str(n), "--point", own[sources[t]]]))
            seed_args = ["--n", str(n), "--seed", str(case["sample_seed"])]
            reqs.append(((n, v, "sample", "point"),
                         ["sample", "point", "--domain", case["sample_domain"], *seed_args,
                          "--radius", repr(case["sample_radius"])]))
            reqs.append(((n, v, "sample", "group"),
                         ["sample", "group", "--domain", case["group_domain"], *seed_args]))
        order = np.random.default_rng(seed % 2**64).permutation(len(reqs))
        self._requests = [Request(reqs[i][0], partial(self._run, reqs[i][1])) for i in order]

    def _run(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def requests(self, index: int) -> list[Request]:
        return self._requests

    def check(self, requests, outputs) -> list[tuple[bool, float]]:
        data = {}
        for req, out in zip(requests, outputs):
            if not isinstance(out, Failure) and out[0] == 0:
                data[req.key] = json.loads(out[1])
        outcomes = []
        for req in requests:
            try:
                outcomes.append(_outcome(self._check(req.key, data)))
            except (KeyError, TypeError, ValueError, IndexError, np.linalg.LinAlgError):
                outcomes.append((False, float("inf")))
        return outcomes

    def _check(self, key, data) -> list:
        n, v, command, kind = key
        out = data[key]
        case = self.cases[(n, v)]
        pt = case["point"]
        k, mu = K_WEIGHT, MU_WEIGHT
        if command == "eval":
            if kind == "potential":
                return checks.check_potential(out["value"], pt, k, mu)
            if kind == "det":
                return checks.check_det(out["value"], out["closed_form"], out["constant_C"], pt, k, mu)
            if kind == "kernel":
                kappa = complex(*out["kappa"])
                return (checks.check_epsilon(out["epsilon"])
                        + checks.check_berezin(kappa, out["berezin"], out["diastasis"]))
            h = checks.decode(data[(n, v, "eval", "metric")]["h"])
            if kind == "metric":
                return checks.check_metric(h, pt, k, mu)
            if kind == "inverse":
                return checks.check_inverse(h, checks.decode(out["h_inv"]))
            if kind == "curvature":
                return checks.check_curvature(
                    out["scalar_curvature"], checks.decode(out["ric"]),
                    checks.decode(out["qk_lu"]), h, n, k)
        if command == "transform":
            if kind == "cayley":
                found = {"z": checks.decode(out["z"]), "W": checks.decode(out["W"])}
                return checks.roundtrip(found, pt, ("z", "W"))
            if kind == "inv-cayley":
                upper = {"n": n, "V": checks.decode(out["V"]), "u": checks.decode(out["u"])}
                return checks.roundtrip(checks.cayley(upper), pt, ("z", "W"))
            if kind == "fc":
                eta, W = checks.decode(out["eta"]), checks.decode(out["W"])
                back = {"z": eta - W @ eta.conj(), "W": W}
                return checks.roundtrip(back, pt, ("z", "W"))
            if kind == "inv-fc":
                found = {"z": checks.decode(out["z"]), "W": checks.decode(out["W"])}
                return checks.roundtrip(found, pt, ("z", "W"))
        if command == "sample" and kind == "point":
            if "V" in out:
                return checks.upper_domain(checks.decode(out["V"]), n)
            return checks.ball_domain(checks.decode(out["W"]), n)
        if command == "sample" and kind == "group":
            if "p" in out:
                return checks.check_complex_element(checks.decode(out["p"]), checks.decode(out["q"]))
            return checks.check_real_element(*(np.asarray(out[b], dtype=float) for b in "abcd"))
        raise ValueError(f"no check for {key}")


class EvalLargeN:
    name = "eval_large_n"
    calibration = "numeric"   # host-speed loop, see calibrate.py
    warmup_passes = 1
    trace_passes = 20

    def __init__(self, seed: int, workdir: str):
        from siegel_jacobi import domains, groups, kernels, laplacian, metric, serialize

        modules = {"metric": metric, "laplacian": laplacian, "kernels": kernels, "groups": groups}
        inputs = make_inputs(self.name, seed)
        self.cases = {(c["n"], c["variant"]): c for c in inputs["cases"]}
        points, elements, params = {}, {}, {}
        for key, case in self.cases.items():
            pt = case["point"]
            points[key] = domains.JacobiBallPoint(z=pt["z"], W=pt["W"])
            elements[key] = groups.theta(serialize.element_from_json(case["element"]))
            params[key[0]] = metric.MetricParams(n=key[0], k=K_WEIGHT, mu=MU_WEIGHT)
        self.elements = elements
        self._requests = []
        for (n, v) in self.cases:
            pt, p = points[(n, v)], params[n]
            args = {
                "metric_blocks": (p, pt),
                "metric_inverse": (p, pt),
                "metric_det": (p, pt),
                "curvature": (p, pt),
                "laplacian_coefficients": ("jacobi_ball", p, pt),
                "normalized_kernels": (p, pt, points[(n, (v + 1) % LARGE_POINTS[n])]),
                "act_ball": (elements[(n, v)], pt),
            }
            for module, fname in LARGE_CALLS:
                self._requests.append(Request(
                    (n, v, fname), partial(_call_attr, modules[module], fname, *args[fname])))

    def requests(self, index: int) -> list[Request]:
        return self._requests

    def check(self, requests, outputs) -> list[tuple[bool, float]]:
        data = {req.key: out for req, out in zip(requests, outputs)
                if not isinstance(out, Failure)}
        outcomes = []
        for req in requests:
            try:
                outcomes.append(_outcome(self._check(req.key, data)))
            except (KeyError, TypeError, ValueError, AttributeError, np.linalg.LinAlgError):
                outcomes.append((False, float("inf")))
        return outcomes

    def _check(self, key, data) -> list:
        n, v, fname = key
        out = data[key]
        pt = self.cases[(n, v)]["point"]
        k, mu = K_WEIGHT, MU_WEIGHT
        if fname == "normalized_kernels":
            return checks.check_berezin(*out)
        if fname == "act_ball":
            h = self.elements[(n, v)]
            return checks.check_action(np.asarray(out.W), np.asarray(out.z), pt,
                                       h.g.p, h.g.q, h.alpha)
        if fname == "metric_blocks":
            return checks.check_metric(out.h, pt, k, mu)
        if fname == "metric_det":
            return checks.check_det(out.value, out.closed_form, out.constant_C, pt, k, mu)
        h = data[(n, v, "metric_blocks")].h
        if fname == "metric_inverse":
            return checks.check_inverse(h, out.h_inv)
        if fname == "curvature":
            return checks.check_curvature(out.scalar_curvature, out.ric, out.qk_lu, h, n, k)
        if fname == "laplacian_coefficients":
            return checks.check_inverse(h, out.matrix)
        raise ValueError(f"no check for {key}")


class FuzzVerify:
    name = "fuzz_verify"
    calibration = "numeric"   # host-speed loop, see calibrate.py
    warmup_passes = 1
    trace_passes = 3

    def __init__(self, seed: int, workdir: str):
        from siegel_jacobi import verify

        self.verify = verify
        self.properties = verify.PROPERTY_GROUPS["all"]
        self.master_seeds = make_inputs(self.name, seed)["master_seeds"]

    def _property(self, n: int, name: str, master_seed: int):
        return self.verify.fuzz_all(n=n, k=K_WEIGHT, mu=MU_WEIGHT, trials=FUZZ_TRIALS,
                                    master_seed=master_seed, properties=[name])

    def requests(self, index: int) -> list[Request]:
        """A pass is one verdict: the work of fuzz_all(properties="all") at
        each n in FUZZ_DIMS, one property per call so that each is timed."""
        s = self.master_seeds[index % len(self.master_seeds)]
        return [Request((n, name), partial(self._property, n, name, s))
                for n in FUZZ_DIMS for name in self.properties]

    def check(self, requests, outputs) -> list[tuple[bool, float]]:
        """One operation per property result; it fails unless it passes."""
        outcomes = []
        for out in outputs:
            if isinstance(out, Failure):
                outcomes.append((False, float("inf")))
                continue
            for r in out.results:
                ratio = r.max_error / r.tol if r.tol > 0 else (0.0 if r.max_error == 0 else float("inf"))
                outcomes.append((bool(r.passed), ratio))
        return outcomes


WORKLOAD_CLASSES = {w.name: w for w in (CliSmallN, EvalLargeN, FuzzVerify)}
