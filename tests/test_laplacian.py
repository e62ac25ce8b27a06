import numpy as np
import pytest

from siegel_jacobi.domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
    sample_point,
)
from siegel_jacobi.groups import act_ball, inverse_partial_cayley, random_jacobi_c
from siegel_jacobi.laplacian import (
    apply_laplacian,
    builtin_field,
    cayley_chain_rule_check,
    laplacian_coefficients,
    laplacian_correspondence_check,
)
from siegel_jacobi.metric import MetricParams, ball_metric_pair, metric_inverse
from siegel_jacobi.oracle import fd_wirtinger_hessian


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
        raw = np.zeros((idx.size, idx.size), dtype=complex)
        for al in range(n):
            for ga in range(n):
                for la in range(n):
                    for ro in range(n):
                        i = idx.flatten(*sorted((ro, la)))
                        j = idx.flatten(*sorted((ga, al)))
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
        f = lambda p: float(np.abs(p.W[0, 0]) ** 2)
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
        # apply_laplacian passes a broadcasting built-in field the whole
        # stencil at once, with the value of the per-point Hessian
        from siegel_jacobi import laplacian
        from siegel_jacobi.oracle import FdConfig

        params = MetricParams(n=2, k=2.0, mu=1.0)
        pt = sample_point(domain, 2, np.random.default_rng(5))
        f = builtin_field("lnG", domain, params)
        C = laplacian_coefficients(domain, params, pt).matrix
        per_point = complex(np.trace(C @ fd_wirtinger_hessian(f, pt, FdConfig(step=2e-3))))
        ndims = []  # of the matrix part of each point the closed form receives
        name = {"jacobi_ball": "metric_det", "ball": "ball_metric_pair"}.get(
            domain, "upper_metric_pair"
        )
        inner = getattr(laplacian, name)

        def counted(*args):
            q = args[-1]
            ndims.append((q.V if domain == "upper" else q.W).ndim)
            return inner(*args)

        monkeypatch.setattr(laplacian, name, counted)
        assert apply_laplacian(domain, params, f, pt, fd_step=2e-3) == per_point
        # ball and upper also build their coefficient matrix from the pair
        assert ndims == ([3] if domain == "jacobi_ball" else [2, 3])

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
        from siegel_jacobi.groups import act_siegel_ball

        f = builtin_field("re_poly(12)", "ball")
        for _ in range(3):
            pt = sample_point("ball", 2, rng)
            g = random_jacobi_c(2, rng).g
            move = lambda q: SiegelBallPoint(act_siegel_ball(g, q.W))
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
        assert cayley_chain_rule_check(lambda p: 1.0, pt) == pytest.approx(0.0, abs=1e-12)

    def test_linear_field(self, rng):
        pt = sample_point("upper", 2, rng)
        B = rng.standard_normal((2, 2))
        B = B + B.T
        f = lambda p: complex(np.trace(B @ p.V))
        assert cayley_chain_rule_check(f, pt) < 1e-9

    def test_quadratic_field(self, rng):
        pt = sample_point("upper", 2, rng)
        f = lambda p: complex(np.trace(p.V @ p.V))
        assert cayley_chain_rule_check(f, pt) < 1e-6


class TestCorrespondence:
    def test_constant(self, rng):
        pt = sample_point("upper", 2, rng)
        assert laplacian_correspondence_check(lambda p: 1.0, pt) < 1e-10

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
        f2 = builtin_field("re_poly:3", "jacobi_ball")
        f3 = builtin_field("re_poly(4)", "jacobi_ball")
        assert f1(pt) == f2(pt)
        assert f1(pt) != f3(pt)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            builtin_field("nope", "ball")
