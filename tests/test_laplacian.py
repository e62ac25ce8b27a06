import warnings

import numpy as np
import pytest

from siegel_jacobi.domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
    flatten_point,
    sample_point,
)
from siegel_jacobi.errors import DimensionMismatch
from siegel_jacobi.groups import act_ball, inverse_partial_cayley, random_jacobi_c
from siegel_jacobi.laplacian import (
    apply_laplacian,
    builtin_field,
    cayley_chain_rule_check,
    laplacian_coefficients,
    laplacian_correspondence_check,
)
from fd_reference import loop_gradient, loop_laplacian, richardson_ids
from siegel_jacobi.metric import MetricParams, ball_metric_pair, metric_inverse
from siegel_jacobi.oracle import fd_laplacian, fd_wirtinger_hessian


class TestCoefficients:
    def test_ball_at_origin(self):
        pt = SiegelBallPoint(np.zeros((2, 2)))
        C = laplacian_coefficients("ball", None, pt).matrix
        idx = PairIndex(2)
        assert np.allclose(C, np.diag([1.0 if p == q else 0.5 for p, q in idx.pairs]))

    def test_jacobi_origin_z_block(self):
        params = MetricParams(n=2, k=2, mu=2.5)
        pt = JacobiBallPoint(z=np.zeros(2), W=np.zeros((2, 2)))
        C = laplacian_coefficients("jacobi_ball", params, pt).matrix
        assert np.allclose(C[:2, :2], np.eye(2) / params.mu)

    def test_upper_at_i(self):
        pt = SiegelUpperPoint(V=1j * np.eye(2))
        C = laplacian_coefficients("upper", None, pt).matrix
        idx = PairIndex(2)
        assert np.allclose(C, np.diag([4.0 if p == q else 2.0 for p, q in idx.pairs]))

    def test_consistency_with_metric_inverse(self, rng):
        params = MetricParams(n=2, k=3, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        C = laplacian_coefficients("jacobi_ball", params, pt).matrix
        assert np.max(np.abs(C - metric_inverse(params, pt).h_inv)) < 1e-12
        Cb = laplacian_coefficients("ball", None, pt.ball).matrix
        assert np.max(np.abs(Cb - ball_metric_pair(pt.ball)[1])) < 1e-12

    def test_upper_matches_trace_form_assembly(self, rng):
        # fold of -Tr[A (A D_w)^t D_z], A = Z - Zbar = 2i Im Z, over ordered
        # pairs, with e-weights on both derivative slots
        n = 2
        pt = sample_point("upper", n, rng)
        A = 2j * pt.R.astype(complex)
        e = 0.5 * (np.ones((n, n)) + np.eye(n))
        idx = PairIndex(n)
        index = {pair: i for i, pair in enumerate(idx.pairs)}
        raw = np.zeros((idx.size, idx.size), dtype=complex)
        for al in range(n):
            for ga in range(n):
                for la in range(n):
                    for ro in range(n):
                        i = index[tuple(sorted((ro, la)))]
                        j = index[tuple(sorted((ga, al)))]
                        raw[i, j] += -A[al, la] * A[ga, ro] * e[ro, la] * e[ga, al]
        C = laplacian_coefficients("upper", None, pt).matrix
        assert np.max(np.abs(raw - C)) < 1e-12

    def test_hermitian_positive(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        for domain, p, pr in (
            ("ball", pt.ball, None),
            ("jacobi_ball", pt, params),
            ("upper", inverse_partial_cayley(pt.ball), None),
        ):
            C = laplacian_coefficients(domain, pr, p).matrix
            assert np.max(np.abs(C - C.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(C)[0] > 0


class TestApply:
    def test_constant_field(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        val = apply_laplacian("jacobi_ball", params, builtin_field("const", "jacobi_ball"), pt)
        assert abs(val) < 1e-10

    def test_scalar_ball_modulus_squared(self):
        pt = SiegelBallPoint(np.zeros((1, 1)))
        f = lambda p: np.abs(p.W[..., 0, 0]) ** 2
        assert apply_laplacian("ball", None, f, pt) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ln_g_identity(self, rng, n):
        params = MetricParams(n=n, k=2.0, mu=1.0)
        f = builtin_field("lnG", "jacobi_ball", params)
        expected = (2.0 / params.k) * n * (n + 1) * (n + 2) / 2.0
        for _ in range(3):
            pt = sample_point("jacobi_ball", n, rng)
            val = apply_laplacian("jacobi_ball", params, f, pt, fd_step=2e-3)
            assert val.real == pytest.approx(expected, rel=1e-5)
            assert abs(val.imag) < 1e-6

    @pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"])
    def test_builtin_lng_evaluated_as_one_stack(self, monkeypatch, domain):
        # apply_laplacian passes the built-in field the whole stencil at
        # once, with the value of the per-line loop
        from siegel_jacobi import laplacian

        params = MetricParams(n=2, k=2.0, mu=1.0)
        pt = sample_point(domain, 2, np.random.default_rng(5))
        f = builtin_field("lnG", domain, params)
        C = laplacian_coefficients(domain, params, pt).matrix
        per_point = loop_laplacian(f, pt, C, fd_step=2e-3)
        ndims = []  # of the matrix each call of the closed form receives
        name, matrix = {
            "jacobi_ball": ("metric_blocks", lambda args: args[-1].W),
            "ball": ("_fold_pair_metric", lambda args: args[0]),  # pt.M
            "upper": ("_fold_pair_metric", lambda args: args[0]),  # pt.M
        }[domain]
        inner = getattr(laplacian, name)

        def counted(*args):
            ndims.append(matrix(args).ndim)
            return inner(*args)

        monkeypatch.setattr(laplacian, name, counted)
        assert apply_laplacian(domain, params, f, pt, fd_step=2e-3) == per_point
        assert ndims == [3]

    @pytest.mark.parametrize("domain", ["ball", "upper"])
    def test_lng_builds_no_pair_inverse(self, monkeypatch, domain):
        # the lnG fields read only the pair metric: the inverse half of a
        # pair is never built over their stencils
        from siegel_jacobi import metric

        calls = []
        inverse = metric._pair_metric_inverse
        monkeypatch.setattr(
            metric, "_pair_metric_inverse", lambda *a: calls.append(a) or inverse(*a)
        )
        pt = sample_point(domain, 2, np.random.default_rng(5))
        f = builtin_field("lnG", domain)
        f(pt.at_offset(np.zeros((4, flatten_point(pt).shape[0]))))
        assert calls == []

    def test_chart_and_coefficients_disagree(self, rng):
        # ball coefficients (3 x 3 at n = 2) against a Jacobi-ball chart
        # (d = 5) are refused before the field is called
        pt = sample_point("jacobi_ball", 2, rng)
        calls = []
        with pytest.raises(DimensionMismatch):
            apply_laplacian("ball", None, lambda q: calls.append(q), pt)
        assert calls == []

    def test_invariance_under_action(self, rng):
        params = MetricParams(n=2, k=2.0, mu=1.0)
        f = builtin_field("re_poly(11)", "jacobi_ball")
        for _ in range(5):
            pt = sample_point("jacobi_ball", 2, rng)
            h = random_jacobi_c(2, rng)
            lhs = apply_laplacian("jacobi_ball", params, lambda q: f(act_ball(h, q)), pt)
            rhs = apply_laplacian("jacobi_ball", params, f, act_ball(h, pt))
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-5

    def test_invariance_on_ball(self, rng):
        f = builtin_field("re_poly(12)", "ball")
        for _ in range(3):
            pt = sample_point("ball", 2, rng)
            h = random_jacobi_c(2, rng)
            move = lambda q: act_ball(h, q)
            lhs = apply_laplacian("ball", None, lambda q: f(move(q)), pt)
            rhs = apply_laplacian("ball", None, f, move(pt))
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-5

    def test_invariance_on_upper(self, rng):
        from siegel_jacobi.groups import act_upper, random_jacobi_r

        f = builtin_field("re_poly(13)", "upper")
        for _ in range(3):
            pt = sample_point("upper", 2, rng)
            h = random_jacobi_r(2, rng)
            lhs = apply_laplacian("upper", None, lambda q: f(act_upper(h, q)), pt)
            rhs = apply_laplacian("upper", None, f, act_upper(h, pt))
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-5


class TestNegativeControls:
    def test_conjugated_frame_fails_identity(self, rng):
        # the frame along u_i instead of conj(u_i) is the Laplacian of
        # C.conj(): it must break Delta ln G as the conjugated Hessian does
        params = MetricParams(n=2, k=2.0, mu=1.0)
        pt = sample_point("jacobi_ball", 2, rng, radius=0.7)
        f = builtin_field("lnG", "jacobi_ball", params)
        C = laplacian_coefficients("jacobi_ball", params, pt).matrix
        expected = (2.0 / params.k) * 2 * 3 * 4 / 2.0
        good = fd_laplacian(f, pt, C)
        bad = fd_laplacian(f, pt, C.conj())
        assert abs(good.real - expected) / expected < 1e-5
        assert abs(bad.real - expected) / expected > 1e-5

    def test_conjugated_convention_fails_identity(self, rng):
        # transposing (= conjugating) the Hessian breaks Delta ln G
        params = MetricParams(n=2, k=2.0, mu=1.0)
        pt = sample_point("jacobi_ball", 2, rng, radius=0.7)
        f = builtin_field("lnG", "jacobi_ball", params)
        H = fd_wirtinger_hessian(f, pt)
        C = laplacian_coefficients("jacobi_ball", params, pt).matrix
        expected = (2.0 / params.k) * 2 * 3 * 4 / 2.0
        good = np.trace(C @ H)
        bad = np.trace(C @ H.conj())
        assert abs(good.real - expected) / expected < 1e-5
        assert abs(bad.real - expected) / expected > 1e-5

    def test_sign_flip_fails_identity(self, rng):
        params = MetricParams(n=1, k=2.0, mu=1.0)
        pt = sample_point("jacobi_ball", 1, rng)
        f = builtin_field("lnG", "jacobi_ball", params)
        val = apply_laplacian("jacobi_ball", params, f, pt)
        assert val.real > 0  # a sign-flipped convention would be negative


class TestChainRule:
    def test_constant(self, rng):
        pt = sample_point("upper", 2, rng)
        const = builtin_field("const", "upper")
        assert cayley_chain_rule_check(const, pt) == pytest.approx(0.0, abs=1e-12)

    def test_linear_field(self, rng):
        pt = sample_point("upper", 2, rng)
        B = rng.standard_normal((2, 2))
        B = B + B.T
        f = lambda p: np.trace(B @ p.V, axis1=-2, axis2=-1)
        assert cayley_chain_rule_check(f, pt) < 1e-9

    def test_quadratic_field(self, rng):
        pt = sample_point("upper", 2, rng)
        f = lambda p: np.trace(p.V @ p.V, axis1=-2, axis2=-1)
        assert cayley_chain_rule_check(f, pt) < 1e-6


class TestCorrespondence:
    def test_constant(self, rng):
        pt = sample_point("upper", 2, rng)
        const = builtin_field("const", "ball")
        assert laplacian_correspondence_check(const, pt) < 1e-10

    def test_scalar_tr_wwbar(self):
        pt = SiegelUpperPoint(V=np.array([[2j]]))
        f = builtin_field("trWWbar", "ball")
        assert laplacian_correspondence_check(f, pt) < 1e-5

    def test_random_n2(self, rng):
        pt = sample_point("upper", 2, rng)
        f = builtin_field("trWWbar", "ball")
        assert laplacian_correspondence_check(f, pt) < 1e-5


class TestBuiltinFields:
    def test_known_values(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        assert builtin_field("const", "jacobi_ball")(pt) == 1.0
        assert builtin_field("trWWbar", "jacobi_ball")(pt) == pytest.approx(
            np.trace(pt.W @ pt.W.conj()).real
        )
        assert builtin_field("normz2", "jacobi_ball")(pt) == pytest.approx(
            np.vdot(pt.z, pt.z).real
        )

    def test_re_poly_seeded(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        f1 = builtin_field("re_poly(3)", "jacobi_ball")
        f2 = builtin_field("re_poly(3)", "jacobi_ball")
        f3 = builtin_field("re_poly(4)", "jacobi_ball")
        assert f1(pt) == f2(pt)
        assert f1(pt) != f3(pt)

    def test_lng_beyond_the_float_range_of_det(self):
        # det h = 2^{n^2} at the origin with k = 4, mu = 1 overflows at
        # n = 32, while ln det h = 1024 ln 2 is finite
        n = 32
        origin = JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
        f = builtin_field("lnG", "jacobi_ball", MetricParams(n=n, k=4.0, mu=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert f(origin) == pytest.approx(n * n * np.log(2.0), rel=1e-12)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            builtin_field("nope", "ball")

    @pytest.mark.parametrize("name", ["re_poly(3", "re_poly3)", "re_poly3", "re_poly:3"])
    def test_re_poly_has_one_spelling(self, name):
        with pytest.raises(ValueError, match="unknown field"):
            builtin_field(name, "ball")


_FIELDS = ("const", "lnG", "trWWbar", "normz2", "re_poly(3)")


def _field_cases(n):
    """(name, domain, base point, params) for every built-in field."""
    rng = np.random.default_rng(70 + n)
    params = MetricParams(n=n, k=4.0, mu=1.0)
    for name in _FIELDS:
        for domain in ("jacobi_ball", "ball", "upper"):
            kind = {"ball": "ball", "upper": "upper"}.get(domain, "jacobi_ball")
            if name == "normz2":
                kind = "jacobi_upper" if domain == "upper" else "jacobi_ball"
                if domain == "ball":
                    continue
            yield name, domain, sample_point(kind, n, rng), params


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builtin_fields_broadcast(n):
    # every built-in field takes a stacked point and returns the per-point
    # values to the last bit
    for name, domain, pt, params in _field_cases(n):
        f = builtin_field(name, domain, params)
        d = flatten_point(pt).shape[0]
        offsets = 1e-3 * np.random.default_rng(n).standard_normal((9, d, 2)) @ [1, 1j]
        stacked = np.asarray(f(pt.at_offset(offsets)))
        assert stacked.shape == (9,), name
        assert np.array_equal(stacked, [f(pt.at_offset(o)) for o in offsets]), (name, domain)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_laplacian_of_builtin_fields_matches_per_point(n):
    for name, domain, pt, params in _field_cases(n):
        if domain != "jacobi_ball":
            continue
        f = builtin_field(name, domain, params)
        C = laplacian_coefficients(domain, params, pt).matrix
        assert apply_laplacian(domain, params, f, pt) == loop_laplacian(f, pt, C), name


def test_re_poly_draws_once_per_dimension(monkeypatch, rng):
    # the coefficients come from the same stream as a fresh draw per call,
    # so the values are unchanged; the generator is built once per d
    seed, calls = 3, []
    fresh = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: calls.append(s) or fresh(s))
    f = builtin_field(f"re_poly({seed})", "jacobi_ball")
    for n in (2, 2, 1, 2, 1):
        pt = sample_point("jacobi_ball", n, fresh(n))
        zeta = flatten_point(pt)
        d = zeta.shape[0]
        g = fresh(seed + 7919 * d)
        c0 = complex(g.standard_normal(), g.standard_normal())
        c = g.standard_normal(d) + 1j * g.standard_normal(d)
        Q = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / d
        assert f(pt) == float(abs(c0 + c @ zeta + zeta @ Q @ zeta) ** 2)
    assert calls == [seed + 7919 * 5, seed + 7919 * 2]


@pytest.mark.parametrize("n", [1, 2, 3], ids=richardson_ids)
def test_stacked_cayley_checks_match_per_point(n, monkeypatch):
    # both checks, with their oracles swapped for the per-point loops, give
    # the same value to the last bit
    from siegel_jacobi import laplacian

    rng = np.random.default_rng(80 + n)
    pt = sample_point("upper", n, rng)
    B = rng.standard_normal((n, n))
    B = B + B.T
    upper_fields = [
        lambda p: np.trace(B @ p.V, axis1=-2, axis2=-1),
        lambda p: np.trace(p.V @ p.V, axis1=-2, axis2=-1),
        builtin_field("re_poly(8)", "upper"),
    ]
    ball_fields = [builtin_field(name, "ball") for name in ("trWWbar", "re_poly(9)")]
    def values():
        return [cayley_chain_rule_check(f, pt) for f in upper_fields] + [
            laplacian_correspondence_check(f, pt, 3e-4) for f in ball_fields
        ]

    stacked = values()
    monkeypatch.setattr(laplacian, "fd_wirtinger_gradient", loop_gradient)
    monkeypatch.setattr(laplacian, "fd_laplacian", loop_laplacian)
    assert stacked == values()
