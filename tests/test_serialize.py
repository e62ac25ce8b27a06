import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_jacobi import serialize
from siegel_jacobi.domains import JacobiBallPoint, SiegelUpperPoint, sample_point
from siegel_jacobi.errors import InvalidInput
from siegel_jacobi.groups import random_jacobi_c, random_jacobi_r

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=100, deadline=None)
@given(re=finite, im=finite)
def test_complex_roundtrip_bit_exact(re, im):
    enc = serialize.encode(complex(re, im))
    through = json.loads(json.dumps(enc))
    dec = serialize.decode_complex(through)
    assert dec.real == re and dec.imag == im


_ENCODE_CASES = {
    "signed-zeros": np.array([0.0, -0.0]) + 1j * np.array([-0.0, 0.0]),
    "subnormals": np.array([5e-324 - 2.5e-320j, -1e-310 + 0j]),
    "huge": np.array([[1e308 - 1e308j, -1.7976931348623157e308j]]),
    "0-d": np.array(-0.0 + 1e-300j),
    "1-d": np.array([1.5 - 2j, 3j, -4.0]),
    "2-d": np.arange(6.0).reshape(2, 3) * (0.1 - 0.3j),
    "zero-imag": np.array([[1.0, -0.0], [2.5, 1e308]], dtype=complex),
    "transposed": (np.arange(6.0).reshape(2, 3) * (1 - 2j)).T,
}


def _per_element(a):
    """The per-entry wire form: [re, im] of complex(c) for every entry c."""
    if a.ndim == 0:
        c = complex(a)
        return [c.real, c.imag]
    return [_per_element(row) for row in a]


@pytest.mark.parametrize("value", _ENCODE_CASES.values(), ids=_ENCODE_CASES)
def test_encode_matches_per_element_form(value):
    assert json.dumps(serialize.encode(value)) == json.dumps(_per_element(value))


def test_encode_real_and_none():
    real = np.array([[1.0, -0.0], [5e-324, 1e308]])
    assert json.dumps(serialize.encode(real)) == json.dumps([[float(c) for c in row] for row in real])
    assert serialize.encode(2.5) == 2.5 and serialize.encode(None) is None


def test_real_scalar_accepted():
    assert serialize.decode_complex(1.5) == 1.5 + 0j
    assert serialize.decode_complex(2) == 2 + 0j


@pytest.mark.parametrize(
    "entry",
    [True, False, [0.1, 0.0, "junk"], [0.1, 0.0, None], [0.1], [True, 0.0], [0.1, False],
     "1", ["1", "0"], None, (0.1, 0.0), {"re": 0.1}],
)
def test_malformed_complex_entry_rejected(entry):
    with pytest.raises(TypeError):
        serialize.decode_complex(entry)


@pytest.mark.parametrize("n", [2, 0, True, 1.0, "1", None])
def test_point_own_n_must_match(n):
    payload = {"n": n, "z": [[0.1, 0.0]], "W": [[[0.1, 0.0]]]}
    with pytest.raises(ValueError, match='"n"'):
        serialize.point_from_json(payload)
    with pytest.raises(ValueError, match='"n"'):
        serialize.fc_from_json({"n": n, "eta": [[0.1, 0.0]], "W": [[[0.1, 0.0]]]})
    del payload["n"]  # a file without "n" is read at its own size
    assert serialize.point_from_json(payload).n == 1


@pytest.mark.parametrize("domain", ["ball", "jacobi_ball", "upper", "jacobi_upper"])
def test_point_roundtrip(domain, rng):
    pt = sample_point(domain, 2, rng)
    through = serialize.point_from_json(json.loads(serialize.dumps(serialize.point_to_json(pt))))
    assert type(through) is type(pt)
    if isinstance(pt, SiegelUpperPoint):
        assert np.array_equal(through.V, pt.V)
        if pt.u is not None:
            assert np.array_equal(through.u, pt.u)
    else:
        assert np.array_equal(through.W, pt.W)
        if isinstance(pt, JacobiBallPoint):
            assert np.array_equal(through.z, pt.z)


_SCHEMA_KEYS = {
    "ball": {"n", "W"},
    "jacobi_ball": {"n", "z", "W"},
    "upper": {"n", "V"},
    "jacobi_upper": {"n", "V", "u"},
}


@pytest.mark.parametrize("domain", _SCHEMA_KEYS)
def test_point_schema_keys(domain, rng):
    keys = _SCHEMA_KEYS[domain]
    data = serialize.point_to_json(sample_point(domain, 2, rng))
    assert set(data) == keys
    assert data["n"] == 2
    for key in keys & {"W", "V"}:
        assert len(data[key]) == 2 and all(len(row) == 2 for row in data[key])
    for key in keys & {"z", "u"}:
        assert len(data[key]) == 2 and all(len(entry) == 2 for entry in data[key])


def test_element_roundtrip(rng):
    hc = random_jacobi_c(2, rng)
    back = serialize.element_from_json(json.loads(serialize.dumps(serialize.element_to_json(hc))))
    assert np.array_equal(back.g.p, hc.g.p)
    assert np.array_equal(back.alpha, hc.alpha)
    assert back.t == hc.t

    hr = random_jacobi_r(2, rng)
    back = serialize.element_from_json(json.loads(serialize.dumps(serialize.element_to_json(hr))))
    assert np.array_equal(back.g.matrix(), hr.g.matrix())
    assert np.array_equal(back.lambda_mu, hr.lambda_mu)


@pytest.mark.parametrize(
    "payload",
    [
        {"p": [[[1.0, 0.0]]], "q": [[[0.0, 0.0]]]},
        {"p": [[[1.0, 0.0]]], "q": [[[0.0, 0.0]]], "alpha": [[0, 0]], "t": [1]},
        ["p"],
    ],
    ids=["missing-alpha", "list-t", "list"],
)
def test_malformed_element_is_value_error(payload):
    with pytest.raises(ValueError):
        serialize.element_from_json(payload)


_C_RECORD = {"p": [[[1.0, 0.0]]], "q": [[[0.0, 0.0]]], "alpha": [[0.0, 0.0]], "t": 0.0}
_R_RECORD = {"a": [[1.0]], "b": [[0.0]], "c": [[0.0]], "d": [[1.0]], "lambda_mu": [0.0, 0.0],
             "k_center": 0.0}


@pytest.mark.parametrize(
    "record,error",
    [
        ({**_C_RECORD, "p": [[[float("nan"), 0.0]]]}, InvalidInput),
        ({**_C_RECORD, "alpha": [[float("inf"), 0.0]]}, InvalidInput),
        ({**_C_RECORD, "t": float("nan")}, InvalidInput),
        ({**_C_RECORD, "t": "1"}, ValueError),
        ({**_C_RECORD, "t": True}, ValueError),
        ({**_R_RECORD, "d": [[float("nan")]]}, InvalidInput),
        ({**_R_RECORD, "a": [[float("inf")]]}, InvalidInput),
        ({**_R_RECORD, "a": [["1"]]}, ValueError),
        ({**_R_RECORD, "b": [[True]]}, ValueError),
        ({**_R_RECORD, "b": [[10**400]]}, ValueError),
        ({**_R_RECORD, "lambda_mu": [0.0, float("nan")]}, InvalidInput),
        ({**_R_RECORD, "lambda_mu": [True, 0.0]}, ValueError),
        ({**_R_RECORD, "k_center": "inf"}, ValueError),
        ({**_R_RECORD, "k_center": float("inf")}, InvalidInput),
    ],
    ids=[
        "nan-p", "inf-alpha", "nan-t", "string-t", "boolean-t", "nan-d", "inf-a",
        "string-a", "boolean-b", "huge-int-b", "nan-lambda_mu", "boolean-lambda_mu",
        "string-k_center", "inf-k_center",
    ],
)
def test_hostile_element_raises_a_typed_error(record, error):
    """Each record passes through json as the NaN / Infinity literals that
    json.loads accepts."""
    with pytest.raises(error):
        serialize.element_from_json(json.loads(json.dumps(record)))


def test_element_from_numpy_record():
    rng = np.random.default_rng(3)
    hr = random_jacobi_r(2, rng)
    record = {"a": hr.g.a, "b": hr.g.b, "c": hr.g.c, "d": hr.g.d, "lambda_mu": hr.lambda_mu}
    back = serialize.element_from_json(record)
    assert np.array_equal(back.g.matrix(), hr.g.matrix())
    assert np.array_equal(back.lambda_mu, hr.lambda_mu)


def test_dumps_refuses_nan():
    with pytest.raises(ValueError):
        serialize.dumps({"value": float("nan")})


def test_dumps_deterministic(rng):
    pt = sample_point("jacobi_ball", 2, rng)
    a = serialize.dumps(serialize.point_to_json(pt))
    b = serialize.dumps(serialize.point_from_json(json.loads(a)) and serialize.point_to_json(pt))
    assert a == b


def test_bad_point_json():
    with pytest.raises(ValueError):
        serialize.point_from_json({"x": 1})
