"""Command-line surface: evaluate geometric quantities at points, run
transforms, sample points and group elements, and run the verification
fuzzer with JSON reports.

Exit codes: 0 success / all properties pass, 1 verification failure,
2 usage error, 3 domain error.  All output is deterministic JSON (sorted
keys, shortest round-trip floats); errors are {"error": {"kind", "detail"}}.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import serialize
from .domains import JacobiBallPoint, SiegelUpperPoint, sample_point
from .errors import DimensionMismatch, GeometryError
from .groups import (
    fc_transform,
    inverse_fc_transform,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
)
from .kernels import (
    epsilon_function,
    normalization_constant,
    normalized_kernels,
    two_point_kernel,
    volume_densities,
)
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

__all__ = ["CliConfig", "main", "run"]

_EVAL_KINDS = ("potential", "metric", "inverse", "det", "curvature", "kernel", "laplacian")
_TRANSFORMS = ("cayley", "inv-cayley", "fc", "inv-fc")


@dataclass
class CliConfig:
    """Run configuration distilled from argv."""

    n: int = 1
    k: float = 2.0
    mu: float = 1.0
    seed: int = 0
    tol_overrides: dict = field(default_factory=dict)
    point_path: str | None = None
    point2_path: str | None = None
    output_path: str | None = None
    format: str = "json"

    def params(self) -> MetricParams:
        return MetricParams(n=self.n, k=self.k, mu=self.mu)

    @classmethod
    def from_args(cls, args) -> "CliConfig":
        overrides = {}
        for item in getattr(args, "tol", []) or []:
            name, _, value = item.partition("=")
            if not value:
                raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
            overrides[name] = float(value)
        return cls(
            n=getattr(args, "n", 1),
            k=getattr(args, "k", 2.0),
            mu=getattr(args, "mu", 1.0),
            seed=getattr(args, "seed", 0),
            tol_overrides=overrides,
            point_path=getattr(args, "point", None),
            point2_path=getattr(args, "point2", None),
            output_path=getattr(args, "output", None),
            format=getattr(args, "format", "json"),
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stdout.write(
            serialize.dumps({"error": {"kind": "UsageError", "detail": message}}) + "\n"
        )
        raise SystemExit(2)


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)


def _add_io(p: argparse.ArgumentParser):
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.add_argument("--format", choices=("json", "pretty"), default="json")


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
    _add_io(p_eval)

    p_tr = sub.add_parser("transform", help="apply a coordinate transform")
    p_tr.add_argument("kind", choices=_TRANSFORMS)
    p_tr.add_argument("--point", required=True)
    p_tr.add_argument("--n", type=int, default=1)
    _add_io(p_tr)

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
    _add_io(p_sample)

    p_ver = sub.add_parser("verify", help="run the property fuzzer")
    p_ver.add_argument("group", choices=tuple(sorted(PROPERTY_GROUPS)))
    _add_params(p_ver)
    p_ver.add_argument("--trials", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a property tolerance (repeatable)",
    )
    _add_io(p_ver)

    return parser


def _load_point(spec: str, n: int):
    if spec == "origin":
        return JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
    import json

    with open(spec) as fh:
        return serialize.point_from_json(json.load(fh))


def _as_jacobi(pt, n: int) -> JacobiBallPoint:
    if isinstance(pt, JacobiBallPoint):
        return pt
    if isinstance(pt, SiegelUpperPoint):
        raise GeometryError("expected a ball-model point, got an upper-half-plane one")
    return JacobiBallPoint(z=np.zeros(pt.n), W=pt.W)


def _eval(cfg: CliConfig, args) -> dict:
    params = cfg.params()
    pt = _as_jacobi(_load_point(cfg.point_path, cfg.n), cfg.n)
    if pt.n != cfg.n:
        raise GeometryError(f"point has n={pt.n}, --n is {cfg.n}")
    q = args.quantity
    if q == "potential":
        return {"value": kahler_potential(params, pt)}
    if q == "metric":
        ev = metric_blocks(params, pt)
        return {
            "h1": serialize.encode_matrix(ev.h1),
            "h2": serialize.encode_matrix(ev.h2),
            "h3": serialize.encode_matrix(ev.h3),
            "h4": serialize.encode_matrix(ev.h4),
            "h": serialize.encode_matrix(ev.h),
        }
    if q == "inverse":
        inv = metric_inverse(params, pt)
        return {
            "h1": serialize.encode_matrix(inv.h1),
            "h2": serialize.encode_matrix(inv.h2),
            "h3": serialize.encode_matrix(inv.h3),
            "h4": serialize.encode_matrix(inv.h4),
            "h_inv": serialize.encode_matrix(inv.h_inv),
        }
    if q == "det":
        res = metric_det(params, pt)
        return {
            "value": res.value,
            "closed_form": res.closed_form,
            "constant_C": res.constant_C,
        }
    if q == "curvature":
        data = curvature(params, pt)
        return {
            "scalar_curvature": data.scalar_curvature,
            "ric": serialize.encode_matrix(data.ric),
            "qk_lu": serialize.encode_matrix(data.qk_lu),
        }
    if q == "kernel":
        other = pt if cfg.point2_path is None else _as_jacobi(
            _load_point(cfg.point2_path, cfg.n), cfg.n
        )
        if other.n != cfg.n:
            raise DimensionMismatch(f"--point2 has n={other.n}, --n is {cfg.n}")
        F, kv = two_point_kernel(params, pt, other)
        kappa, berezin, diastasis = normalized_kernels(params, pt, other)
        vol = volume_densities(pt)
        out = {
            "F": serialize.encode_complex(F),
            "K": serialize.encode_complex(kv),
            "kappa": serialize.encode_complex(kappa),
            "berezin": berezin,
            "diastasis": diastasis,
            "epsilon": epsilon_function(params, pt),
            "Q_ball": vol.Q_ball,
            "Q_jacobi": vol.Q_jacobi,
        }
        try:
            out["Lambda_n"] = normalization_constant(params)
        except GeometryError:
            out["Lambda_n"] = None
        return out
    if q == "laplacian":
        f = builtin_field(args.field, "jacobi_ball", params)
        val = apply_laplacian("jacobi_ball", params, f, pt, fd_step=args.fd_step)
        return {"field": args.field, "value": serialize.encode_complex(val)}
    raise AssertionError(q)


def _transform(cfg: CliConfig, args) -> dict:
    kind = args.kind
    if kind == "inv-fc":
        import json

        with open(cfg.point_path) as fh:
            eta, W = serialize.fc_from_json(json.load(fh))
        return serialize.point_to_json(inverse_fc_transform(eta, W))
    pt = _load_point(cfg.point_path, cfg.n)
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
        eta, W = fc_transform(pt)
        return {
            "n": pt.n,
            "eta": serialize.encode_vector(eta),
            "W": serialize.encode_matrix(W),
        }
    raise AssertionError(kind)


def _sample(cfg: CliConfig, args) -> dict:
    rng = np.random.default_rng(cfg.seed)
    if args.what == "point":
        return serialize.point_to_json(
            sample_point(args.domain, args.n, rng, args.radius)
        )
    if args.domain in ("ball", "jacobi_ball"):
        return serialize.element_to_json(random_jacobi_c(args.n, rng))
    return serialize.element_to_json(random_jacobi_r(args.n, rng))


def _verify(cfg: CliConfig, args) -> tuple[dict, bool]:
    report = fuzz_all(
        n=cfg.n,
        k=cfg.k,
        mu=cfg.mu,
        trials=args.trials,
        master_seed=cfg.seed,
        tolerances=cfg.tol_overrides,
        properties=args.group,
    )
    return report.to_json(), report.passed


def _emit(obj: dict, cfg: CliConfig) -> None:
    text = serialize.dumps(obj, pretty=(cfg.format == "pretty"))
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _fail(exc: Exception, cfg: CliConfig, code: int) -> int:
    obj = {"error": {"kind": type(exc).__name__, "detail": str(exc)}}
    try:
        _emit(obj, cfg)
    except OSError:  # the --output file itself cannot be written
        _emit(obj, replace(cfg, output_path=None))
    return code


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = CliConfig()
    try:
        cfg = CliConfig.from_args(args)
        if args.command == "eval":
            _emit(_eval(cfg, args), cfg)
            return 0
        if args.command == "transform":
            _emit(_transform(cfg, args), cfg)
            return 0
        if args.command == "sample":
            _emit(_sample(cfg, args), cfg)
            return 0
        if args.command == "verify":
            report, passed = _verify(cfg, args)
            _emit(report, cfg)
            return 0 if passed else 1
    except GeometryError as exc:
        return _fail(exc, cfg, 3)
    except (ValueError, OSError) as exc:
        return _fail(exc, cfg, 2)
    raise AssertionError(args.command)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
