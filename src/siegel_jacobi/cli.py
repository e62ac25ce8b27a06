"""Command-line surface: evaluate geometric quantities at points, run
transforms, sample points and group elements, and run the verification
fuzzer with JSON reports.

Exit codes: 0 success / all properties pass / -h or --help, 1 verification
failure, 2 usage error, 3 domain error or a size beyond memory.  All output
is deterministic JSON (sorted keys, shortest round-trip floats) on stdout
only: a result, an error {"error": {"kind", "detail"}} or the usage
{"usage": ...} is one compact object on one line.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


_REQUIRED = object()  # the default of an option that must be given
_PARAMS = {"--n": (int, 1), "--k": (float, 2.0), "--mu": (float, 1.0)}

# command -> (its positional, the positional's choices, {option: (type or
# choices, default)}), each in the order of its usage line
_COMMANDS = {
    "eval": ("quantity", _EVAL_KINDS, {
        **_PARAMS,
        "--point": (str, _REQUIRED),  # a point JSON file or 'origin'
        "--point2": (str, None),      # the second point of the two-point kernels
        "--field": (str, "lnG"),      # the test field of 'laplacian'
        "--fd-step": (float, 1e-4),
    }),
    "transform": ("kind", _TRANSFORMS, {
        "--point": (str, _REQUIRED),
        "--n": (int, None),  # the size the point must have (default: the file's own)
    }),
    "sample": ("what", ("point", "group"), {
        "--domain": (("ball", "jacobi_ball", "upper", "jacobi_upper"), "jacobi_ball"),
        "--n": (int, 1),
        "--seed": (int, 0),
        "--radius": (float, 0.4),
    }),
    # the parseval properties need k > 3 (the squared norms diverge below)
    "verify": ("group", tuple(sorted(PROPERTY_GROUPS)), {
        **_PARAMS, "--k": (float, 4.0), "--trials": (int, 20), "--seed": (int, 0),
    }),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(ValueError):
    """An argv that `sjk` refuses (exit 2)."""


class _Help(Exception):
    """-h or --help was given; the argument is the usage to print (exit 0)."""


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _braced(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _usage(command: str | None = None) -> str:
    """The usage line of one command, or of all four, read off _COMMANDS."""
    if command is None:
        return "\n".join(map(_usage, _COMMANDS))
    _, choices, options = _COMMANDS[command]
    words = ["sjk", command, _braced(choices)]
    for option, (kind, default) in options.items():
        word = f"{option} {_braced(kind) if isinstance(kind, tuple) else kind.__name__.upper()}"
        if default is _REQUIRED:
            words.append(word)
        else:
            words.append(f"[{word}]" if default is None else f"[{word}={default}]")
    return " ".join(words)


def _choice(name: str, value: str, choices) -> str:
    if value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _value(option: str, value: str, kind):
    """value as option's type, or one of its choices."""
    if isinstance(kind, tuple):
        return _choice(option, value, kind)
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {option}: invalid {kind.__name__} value: {value!r}") from None


def _option(token: str, options):
    """None when token is a value or a positional; else (option, explicit
    value or None), with option None for an unknown one.  Exact names and
    `--opt=value` first, then a unique prefix of a long option; a token that
    looks like a negative number or holds a space is a value."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return head, value
    if token[1] == "-":
        matches = [(o, value if eq else None) for o in options if o.startswith(head)]
    else:  # -h is the only short option; -hXYZ gives it the value XYZ
        matches = [("-h", token[2:])] if token[:2] == "-h" else []
    if len(matches) > 1:
        raise UsageError(
            f"ambiguous option: {token} could match {', '.join(o for o, _ in matches)}"
        )
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _help(option: str, value: str | None, usage: str):
    """Raise _Help, or UsageError when -h/--help was given a value (-hh is
    -h twice)."""
    while value is not None:
        if option != "-h" or not value.startswith("h"):
            raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
        value = value[1:] or None
    raise _Help(usage)


def _parse(argv) -> tuple[str, SimpleNamespace]:
    """(command, its values) for argv, UsageError for an argv that `sjk`
    refuses, or _Help for -h/--help.

    An option takes the next argument or `--opt=value`; the last one given
    wins; a long option may be cut to a unique prefix; the positional may
    stand anywhere after the command; `--` ends the options.  An option
    before the command is unknown, and a `--` before it is read as the
    command (an invalid one)."""
    command, extras = None, []
    for i, token in enumerate(argv):
        if token == "--" and i + 1 == len(argv):
            break
        kind = None if token == "--" else _option(token, _HELP)
        if kind is None:
            command, rest = _choice("command", token, _COMMANDS), argv[i + 1:]
            break
        if kind[0] is None:
            extras.append(token)
        else:
            _help(*kind, _usage())
    if command is None:
        raise UsageError("the following arguments are required: command")

    positional, choices, spec = _COMMANDS[command]
    dash = rest.index("--") if "--" in rest else len(rest)
    # every option is classified, and an ambiguous one refused, before any is read
    kinds = [_option(token, (*_HELP, *spec)) for token in rest[:dash]]
    values, at = {}, None  # at: the index of the positional's argument
    i = 0
    while i < len(rest):
        token, kind = rest[i], kinds[i] if i < dash else None
        if i == dash:
            # `--` goes with the positional beside it, and is unrecognized elsewhere
            if at is not None and at != i - 1:
                extras.append(token)
        elif kind is None:
            if at is None:
                values[positional], at = _choice(positional, token, choices), i
            else:
                extras.append(token)
        elif kind[0] is None:
            extras.append(token)
        elif kind[0] in _HELP:
            _help(*kind, _usage(command))
        else:
            option, value = kind
            if value is None:
                if i + 1 == dash or kinds[i + 1] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                i += 1
                value = rest[i]
            values[_dest(option)] = _value(option, value, spec[option][0])
        i += 1

    missing = [positional] if at is None else []
    missing += [o for o, (_, d) in spec.items() if d is _REQUIRED and _dest(o) not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    for option, (_, default) in spec.items():
        values.setdefault(_dest(option), default)
    return command, SimpleNamespace(**values)


def _read_json(path: str):
    # bytes: JSON is UTF-8 (a BOM allowed) whatever the locale
    with open(path, "rb") as fh:
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
    if q == "metric":
        return {"h": serialize.encode(metric_blocks(params, pt).h)}
    result = {"inverse": metric_inverse, "det": metric_det, "curvature": curvature}[q]
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


def run(argv) -> int:
    try:
        command, args = _parse(argv)
        # a value beyond the float range is reported as an error object;
        # numpy's warning on the way adds nothing
        with np.errstate(all="ignore"):
            if command == "verify":
                report, passed = _verify(args)
                _emit(report)
                return 0 if passed else 1
            _emit({"eval": _eval, "transform": _transform, "sample": _sample}[command](args))
            return 0
    except _Help as exc:
        _emit({"usage": str(exc)})
        return 0
    except GeometryError as exc:
        return _fail(exc, 3)
    except MemoryError as exc:  # numpy's _ArrayMemoryError too, reported as a MemoryError
        return _fail(MemoryError(str(exc)), 3)
    except (ValueError, OSError) as exc:  # a UsageError too
        return _fail(exc, 2)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
