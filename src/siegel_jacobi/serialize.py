"""JSON encode/decode for points, group elements and result records.

Wire format: a complex scalar is [re, im] and a real one a float; a vector
is an array of scalars; a matrix is a row-major array of rows.  Floats are
emitted through ``repr`` (shortest round-trip form, at most 17 significant
digits), so decode(encode) is bit-exact.  Malformed input (not an object, a
missing key, wrong nesting, an entry that is not a number or an [re, im]
pair of numbers, an "n" that is not the point's size) raises ``ValueError``;
non-finite numbers are refused by the point constructors on the way in and
by ``dumps`` on the way out.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .domains import JacobiBallPoint, SiegelBallPoint, SiegelUpperPoint
from .groups import JacobiElementC, JacobiElementR, SymplecticC, SymplecticR

__all__ = [
    "encode",
    "fields_to_json",
    "decode_complex",
    "decode_matrix",
    "decode_vector",
    "point_to_json",
    "point_from_json",
    "element_to_json",
    "element_from_json",
    "fc_from_json",
    "dumps",
]


def encode(value):
    """Wire form of a scalar or array: complex entries become [re, im] at the
    innermost level, real entries floats; None stays None."""
    a = np.asarray(value)
    if a.dtype.kind == "c":
        # read the (re, im) pairs as the array stores them; stacking the two
        # parts costs ~5 us even on a 1 x 1 block
        return a.reshape(-1).view(a.real.dtype).reshape(a.shape + (2,)).tolist()
    return a.tolist()


def fields_to_json(result) -> dict:
    """Every field of a result dataclass, each through ``encode``."""
    return {f.name: encode(getattr(result, f.name)) for f in dataclasses.fields(result)}


_NUMBER = (int, float)  # exact types, so that a JSON boolean is no number


def decode_complex(v) -> complex:
    """A real number, or [re, im] of two real numbers; anything else raises
    TypeError (reported by the field decoders as malformed)."""
    if type(v) in _NUMBER:
        return complex(v)
    if type(v) is list and len(v) == 2 and type(v[0]) in _NUMBER and type(v[1]) in _NUMBER:
        return complex(v[0], v[1])
    raise TypeError(f"a complex entry is a number or [re, im], got {v!r}")


def decode_vector(v) -> np.ndarray:
    return np.array([decode_complex(c) for c in v], dtype=complex)


def decode_matrix(v) -> np.ndarray:
    return np.array([[decode_complex(c) for c in row] for row in v], dtype=complex)


def point_to_json(pt) -> dict:
    """n and every part of a point through ``encode``; an upper point
    without u has no "u" key."""
    parts = fields_to_json(pt)
    return {"n": pt.n, **{key: v for key, v in parts.items() if v is not None}}


def _object(d, what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(d).__name__}")


def _field(d: dict, key: str, decode):
    """decode(d[key]), reporting a missing key or a malformed value (an
    integer beyond the float range included) as ValueError."""
    try:
        return decode(d[key])
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"missing or malformed {key!r} in JSON ({exc!r})") from exc


def _matrix_of_size(d: dict, key: str) -> np.ndarray:
    """The matrix part d[key] of a point or Fock-coordinate record, whose
    row count must equal the record's own "n" where it has one."""
    m = _field(d, key, decode_matrix)
    n = d.get("n", len(m))
    if type(n) is not int or n != len(m):
        raise ValueError(f"JSON has \"n\": {n!r}, but {key!r} has {len(m)} rows")
    return m


def point_from_json(d: dict):
    _object(d, "point")
    if "V" in d:
        u = _field(d, "u", decode_vector) if "u" in d else None
        return SiegelUpperPoint(V=_matrix_of_size(d, "V"), u=u)
    if "z" in d:
        return JacobiBallPoint(z=_field(d, "z", decode_vector), W=_matrix_of_size(d, "W"))
    if "W" in d:
        return SiegelBallPoint(_matrix_of_size(d, "W"))
    raise ValueError("point JSON needs W, (z, W) or V keys")


def fc_from_json(d: dict) -> tuple[np.ndarray, np.ndarray]:
    """(eta, W) of a Fock-coordinate record as written by ``sjk transform fc``."""
    _object(d, "fc")
    return _field(d, "eta", decode_vector), _matrix_of_size(d, "W")


def element_to_json(h) -> dict:
    if isinstance(h, JacobiElementC):
        return {
            "p": encode(h.g.p),
            "q": encode(h.g.q),
            "alpha": encode(h.alpha),
            "t": float(h.t),
        }
    if isinstance(h, JacobiElementR):
        return {
            "a": encode(h.g.a),
            "b": encode(h.g.b),
            "c": encode(h.g.c),
            "d": encode(h.g.d),
            "lambda_mu": encode(h.lambda_mu),
            "k_center": float(h.k_center),
        }
    raise TypeError(f"cannot serialize {type(h).__name__}")


def _real(v) -> float:
    """A real number by the rule of ``decode_complex``, else TypeError."""
    if type(v) in _NUMBER:
        return float(v)
    raise TypeError(f"a real entry is a number, got {v!r}")


def _real_array(v) -> np.ndarray:
    """Nested lists (or an array) of real numbers, each read by ``_real``."""
    a = np.asarray(v, dtype=object)
    return np.array([_real(x) for x in a.flat], dtype=float).reshape(a.shape)


def element_from_json(d: dict):
    _object(d, "element")
    if "p" in d:
        g = SymplecticC(_field(d, "p", decode_matrix), _field(d, "q", decode_matrix))
        t = _field(d, "t", _real) if "t" in d else 0.0
        return JacobiElementC(g, _field(d, "alpha", decode_vector), t)
    if "a" in d:
        g = SymplecticR(*(_field(d, key, _real_array) for key in "abcd"))
        k_center = _field(d, "k_center", _real) if "k_center" in d else 0.0
        return JacobiElementR(g, _field(d, "lambda_mu", _real_array), k_center)
    raise ValueError("element JSON needs (p, q, alpha) or (a, b, c, d, lambda_mu)")


def dumps(obj, pretty: bool = False) -> str:
    """Deterministic JSON text: sorted keys, repr floats."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
