"""Span tracing of the siegel-jacobi layers from outside the package.

``install`` wraps the public functions of each module of ``siegel_jacobi``
(the names in its ``__all__`` that it defines) and rebinds every name that
refers to them, in every module of the package, so that calls between
modules and inside a module both pass through the wrapper.  It also wraps
the validating constructors of the point types (``domains.validations``) and
the fuzzer's per-property runner (per-group times).  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

A span is ``[name id, start ns, end ns, parent span, request id]``; spans stay
in memory and are written out by ``write_spans`` when the run ends.  Counters
are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from types import FunctionType

LAYERS = (
    "cli", "serialize", "domains", "groups", "metric", "kernels", "laplacian",
    "oracle", "verify",
)
PROPERTY_GROUPS = (
    "metric", "inverse", "curvature", "laplacian", "invariance", "cayley",
    "volume", "kernels", "parseval",
)
_VALIDATING = ("SiegelBallPoint", "SiegelUpperPoint", "JacobiBallPoint", "TangentVector")
_ORACLE_DERIVATIVES = ("fd_wirtinger_hessian", "fd_wirtinger_gradient", "fd_jacobian")
# pair matrices (m x m, m = n(n+1)/2) each metric function builds itself
_PAIR_MATRICES = {
    "metric_blocks": 2, "metric_inverse": 1, "ball_metric_pair": 2, "upper_metric_pair": 2,
}


def _dim_of(args) -> int:
    """n of the first argument that carries one (params, point or matrix)."""
    for a in args:
        if hasattr(a, "n"):
            return int(a.n)
        if hasattr(a, "shape") and len(a.shape) == 2:
            return int(a.shape[0])
    raise ValueError("no dimension in arguments")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        stack = self._stack
        span = [name_id, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.request]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn, after=None, before=None):
        """Traced stand-in for fn.  ``before(args)`` may replace the arguments;
        ``after(args, result)`` records counters from a successful call."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            result = self.call(name_id, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # counters recorded at the layer boundaries

    def _count_pairs(self, fname):
        per_call = _PAIR_MATRICES[fname]

        def after(args, result):
            n = _dim_of(args)
            m = n * (n + 1) // 2
            self.counts["metric.pair_entries"] += per_call * m * m

        return after

    def _count_stencil_evals(self, args):
        f = args[0]

        def counted(*a, **k):
            self.counts["oracle.fn_evals"] += 1
            return f(*a, **k)

        return (counted,) + tuple(args[1:])

    def _count_entries(self, args, result):
        parts = result if isinstance(result, tuple) else (result,)
        self.counts["oracle.entries"] += sum(int(p.size) for p in parts)

    def _count_bytes(self, args, result):
        self.counts["serialize.bytes_out"] += len(result.encode())

    def _count_exit(self, args, result):
        self.counts["cli.nonzero_exit"] += int(result != 0)

    def _count_report(self, args, report):
        worst = 0.0
        for r in report.results:
            self.counts["verify.trials"] += r.trials
            self.counts["verify.failed"] += int(not r.passed)
            if r.max_error > 0:
                worst = max(worst, r.max_error / r.tol if r.tol > 0 else float("inf"))
        self.counts["verify.tol_ratio_max"] = max(self.counts["verify.tol_ratio_max"], worst)

    def _hooks(self, layer: str, fname: str) -> dict:
        if layer == "metric" and fname in _PAIR_MATRICES:
            return {"after": self._count_pairs(fname)}
        if layer == "oracle" and fname in _ORACLE_DERIVATIVES:
            return {"before": self._count_stencil_evals, "after": self._count_entries}
        if (layer, fname) == ("serialize", "dumps"):
            return {"after": self._count_bytes}
        if (layer, fname) == ("cli", "main"):
            return {"after": self._count_exit}
        if (layer, fname) == ("verify", "fuzz_all"):
            return {"after": self._count_report}
        return {}

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"siegel_jacobi.{layer}") for layer in LAYERS}
        replaced: dict[FunctionType, FunctionType] = {}
        for layer, mod in modules.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replaced[fn] = self.wrap(f"{layer}.{fname}", fn, **self._hooks(layer, fname))

        run_property = modules["verify"]._run_property

        @functools.wraps(run_property)
        def traced_run_property(prop, *args, **kwargs):
            name_id = self._name_id(f"verify.group.{prop.group}")
            return self.call(name_id, run_property, (prop,) + args, kwargs)

        replaced[run_property] = traced_run_property

        package = [m for name, m in sorted(sys.modules.items())
                   if name == "siegel_jacobi" or name.startswith("siegel_jacobi.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in replaced:
                    self._set(mod, attr, replaced[value])

        for cls_name in _VALIDATING:
            cls = getattr(modules["domains"], cls_name)
            self._set(cls, "__post_init__",
                      self.wrap(f"domains.{cls_name}.__post_init__", cls.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the derived counters."""
        n_spans = len(self.spans)
        child = [0] * n_spans
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls = Counter()
        self_ns = Counter()
        by_name = Counter()
        inclusive = Counter()
        entries_into_metric = 0
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            layer = layer_of[name_id]
            calls[layer] += 1
            self_ns[layer] += end - start - child[i]
            by_name[self.names[name_id]] += 1
            inclusive[self.names[name_id]] += end - start
            if layer == "metric" and (parent < 0 or layer_of[self.spans[parent][0]] != "metric"):
                entries_into_metric += 1

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        c = self.counts
        out["cli.nonzero_exit"] = c["cli.nonzero_exit"]
        out["serialize.bytes_out"] = c["serialize.bytes_out"]
        out["domains.validations"] = sum(by_name[f"domains.{k}.__post_init__"] for k in _VALIDATING)
        aux = by_name["metric.compute_aux"]
        out["metric.aux_calls"] = aux
        out["metric.aux_per_call"] = aux / entries_into_metric if entries_into_metric else 0.0
        out["metric.pair_entries"] = c["metric.pair_entries"]
        out["oracle.fn_evals"] = c["oracle.fn_evals"]
        out["oracle.evals_per_entry"] = (
            c["oracle.fn_evals"] / c["oracle.entries"] if c["oracle.entries"] else 0.0
        )
        out["kernels.parseval_calls"] = by_name["kernels.parseval_check_n1"]
        out["kernels.parseval_s"] = inclusive["kernels.parseval_check_n1"] / 1e9
        out["verify.trials"] = c["verify.trials"]
        out["verify.failed"] = c["verify.failed"]
        out["verify.tol_ratio_max"] = float(c["verify.tol_ratio_max"])
        for g in PROPERTY_GROUPS:
            out[f"verify.group.{g}_s"] = inclusive[f"verify.group.{g}"] / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start ns, end ns, parent, request."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
