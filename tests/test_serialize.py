import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_jacobi import serialize
from siegel_jacobi.domains import JacobiBallPoint, SiegelUpperPoint, sample_point
from siegel_jacobi.groups import random_jacobi_c, random_jacobi_r

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=100, deadline=None)
@given(re=finite, im=finite)
def test_complex_roundtrip_bit_exact(re, im):
    enc = serialize.encode_complex(complex(re, im))
    through = json.loads(json.dumps(enc))
    dec = serialize.decode_complex(through)
    assert dec.real == re and dec.imag == im


def test_real_scalar_accepted():
    assert serialize.decode_complex(1.5) == 1.5 + 0j


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


def test_point_schema_keys(rng):
    pt = sample_point("jacobi_ball", 2, rng)
    data = serialize.point_to_json(pt)
    assert set(data) == {"n", "z", "W"}
    assert data["n"] == 2
    assert len(data["W"]) == 2 and len(data["W"][0]) == 2
    assert all(len(entry) == 2 for entry in data["z"])


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
