"""Command-line surface: evaluate geometric quantities at points, run
transforms, sample points and group elements, and run the verification
fuzzer with JSON reports.

Exit codes: 0 success / all properties pass, 1 verification failure,
2 usage error, 3 domain error or a size beyond memory.  All output is
deterministic JSON (sorted keys, shortest round-trip floats) on stdout
only: a result or an error {"error": {"kind", "detail"}} is one compact
object on one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import serialize
from .domains import JacobiBallPoint, SiegelUpperPoint, sample_point
from .errors import DimensionMismatch, GeometryError
from .groups import (
    inverse_fc_transform,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
)
from .kernels import kernel_eval
from .laplacian import apply_laplacian, builtin_field
from .metric import (
    MetricParams,
    curvature,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
)
from .verify import PROPERTY_GROUPS, fuzz_all

__all__ = ["main", "run"]

_EVAL_KINDS = ("potential", "metric", "inverse", "det", "curvature", "kernel", "laplacian")
_TRANSFORMS = ("cayley", "inv-cayley", "fc", "inv-fc")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit({"error": {"kind": "UsageError", "detail": message}})
        raise SystemExit(2)


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)


@functools.cache
def build_parser() -> _Parser:
    """The `sjk` parser, built on first use and shared by every `run()` in
    the process: building it costs ~1 ms, most of a small request."""
    parser = _Parser(prog="sjk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantity at a point")
    p_eval.add_argument("quantity", choices=_EVAL_KINDS)
    _add_params(p_eval)
    p_eval.add_argument("--point", required=True, help="point JSON file or 'origin'")
    p_eval.add_argument("--point2", default=None, help="second point for two-point kernels")
    p_eval.add_argument("--field", default="lnG", help="test field for 'laplacian'")
    p_eval.add_argument("--fd-step", type=float, default=1e-4)

    p_tr = sub.add_parser("transform", help="apply a coordinate transform")
    p_tr.add_argument("kind", choices=_TRANSFORMS)
    p_tr.add_argument("--point", required=True)
    p_tr.add_argument(
        "--n", type=int, default=None,
        help="size the point must have (default: the file's own; 1 for 'origin')",
    )

    p_sample = sub.add_parser("sample", help="draw a random point or group element")
    p_sample.add_argument("what", choices=("point", "group"))
    p_sample.add_argument(
        "--domain",
        choices=("ball", "jacobi_ball", "upper", "jacobi_upper"),
        default="jacobi_ball",
    )
    p_sample.add_argument("--n", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--radius", type=float, default=0.4)

    p_ver = sub.add_parser("verify", help="run the property fuzzer")
    p_ver.add_argument("group", choices=tuple(sorted(PROPERTY_GROUPS)))
    _add_params(p_ver)
    # the parseval properties need k > 3 (the squared norms diverge below)
    p_ver.set_defaults(k=4.0)
    p_ver.add_argument("--trials", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)

    return parser


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # nested deeper than the decoder's recursion limit
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_point(spec: str, n: int):
    if spec == "origin":
        return JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
    return serialize.point_from_json(_read_json(spec))


def _of_size(pt, n: int | None):
    """pt, or DimensionMismatch (exit 3) when --n is given and pt has
    another size."""
    if n is not None and pt.n != n:
        raise DimensionMismatch(f"point has n={pt.n}, --n is {n}")
    return pt


def _as_jacobi(pt) -> JacobiBallPoint:
    if isinstance(pt, JacobiBallPoint):
        return pt
    if isinstance(pt, SiegelUpperPoint):
        raise GeometryError("expected a ball-model point, got an upper-half-plane one")
    # point_from_json validated W already
    return JacobiBallPoint.from_ball(pt)


def _eval(args) -> dict:
    params = MetricParams(n=args.n, k=args.k, mu=args.mu)
    pt = _of_size(_as_jacobi(_load_point(args.point, args.n)), args.n)
    q = args.quantity
    if q == "potential":
        return {"value": kahler_potential(params, pt)}
    if q == "laplacian":
        f = builtin_field(args.field, "jacobi_ball", params)
        val = apply_laplacian("jacobi_ball", params, f, pt, fd_step=args.fd_step)
        return {"field": args.field, "value": serialize.encode(val)}
    if q == "kernel":
        other = pt if args.point2 is None else _of_size(
            _as_jacobi(_load_point(args.point2, args.n)), args.n
        )
        return serialize.fields_to_json(kernel_eval(params, pt, other))
    # looked up per call, so a rebound module name (a tracer, a test) is used
    result = {
        "metric": metric_blocks,
        "inverse": metric_inverse,
        "det": metric_det,
        "curvature": curvature,
    }[q]
    return serialize.fields_to_json(result(params, pt))


def _transform(args) -> dict:
    kind = args.kind
    if kind == "inv-fc":
        eta, W = serialize.fc_from_json(_read_json(args.point))
        return serialize.point_to_json(_of_size(inverse_fc_transform(eta, W), args.n))
    pt = _of_size(_load_point(args.point, 1 if args.n is None else args.n), args.n)
    if kind == "cayley":
        if not isinstance(pt, SiegelUpperPoint):
            raise GeometryError("cayley expects an upper-half-plane point (V, u)")
        return serialize.point_to_json(partial_cayley(pt))
    if kind == "inv-cayley":
        if isinstance(pt, SiegelUpperPoint):
            raise GeometryError("inv-cayley expects a ball-model point")
        return serialize.point_to_json(inverse_partial_cayley(pt))
    if kind == "fc":
        if not isinstance(pt, JacobiBallPoint):
            raise GeometryError("fc expects a Jacobi-ball point (z, W)")
        return {"n": pt.n, "eta": serialize.encode(pt.eta), "W": serialize.encode(pt.W)}
    raise AssertionError(kind)


def _sample(args) -> dict:
    rng = np.random.default_rng(args.seed)
    if args.what == "point":
        return serialize.point_to_json(
            sample_point(args.domain, args.n, rng, args.radius)
        )
    if args.domain in ("ball", "jacobi_ball"):
        return serialize.element_to_json(random_jacobi_c(args.n, rng))
    return serialize.element_to_json(random_jacobi_r(args.n, rng))


def _verify(args) -> tuple[dict, bool]:
    report = fuzz_all(
        n=args.n,
        k=args.k,
        mu=args.mu,
        trials=args.trials,
        master_seed=args.seed,
        properties=args.group,
    )
    return report.to_json(), report.passed


def _emit(obj: dict) -> None:
    sys.stdout.write(serialize.dumps(obj) + "\n")


def _fail(exc: Exception, code: int) -> int:
    _emit({"error": {"kind": type(exc).__name__, "detail": str(exc)}})
    return code


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a value beyond the float range is reported as an error object;
        # numpy's warning on the way adds nothing
        with np.errstate(all="ignore"):
            if args.command == "eval":
                _emit(_eval(args))
                return 0
            if args.command == "transform":
                _emit(_transform(args))
                return 0
            if args.command == "sample":
                _emit(_sample(args))
                return 0
            if args.command == "verify":
                report, passed = _verify(args)
                _emit(report)
                return 0 if passed else 1
    except GeometryError as exc:
        return _fail(exc, 3)
    except MemoryError as exc:  # numpy's _ArrayMemoryError too, reported as a MemoryError
        return _fail(MemoryError(str(exc)), 3)
    except (ValueError, OSError) as exc:
        return _fail(exc, 2)
    raise AssertionError(args.command)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
