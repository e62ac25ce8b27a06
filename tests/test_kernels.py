import numpy as np
import pytest

from siegel_jacobi import kernels
from siegel_jacobi.domains import JacobiBallPoint, sample_point
from siegel_jacobi.errors import BranchAmbiguity, GammaPoleError, NotConverged, NumericalOverflow
from siegel_jacobi.kernels import (
    QuadratureSpec,
    epsilon_function,
    kernel_eval,
    normalization_constant,
    normalized_kernels,
    parseval_check_n1,
    two_point_kernel,
    volume_densities,
)
from siegel_jacobi.metric import MetricParams, kahler_potential


def origin(n):
    return JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))


def near_boundary_point(margin, rng):
    """n = 2 point with smallest eigenvalue of 1 - W Wbar equal to margin."""
    phase = np.exp(0.3j)
    W = np.diag([np.sqrt(1.0 - margin) * phase, 0.3])
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return JacobiBallPoint(z=z, W=W)


class TestTwoPointKernel:
    def test_double_origin(self):
        _, K = two_point_kernel(MetricParams(n=2, k=2, mu=1), origin(2), origin(2))
        assert K == pytest.approx(1.0)

    def test_zero_ball_parts(self, rng):
        params = MetricParams(n=2, k=2, mu=1.3)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Z = np.zeros((2, 2))
        F, K = two_point_kernel(
            params, JacobiBallPoint(z=x, W=Z), JacobiBallPoint(z=y, W=Z)
        )
        assert K == pytest.approx(np.exp(params.mu * np.vdot(x, y)))

    def test_diagonal_w_zero(self, rng):
        params = MetricParams(n=2, k=2, mu=0.7)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pt = JacobiBallPoint(z=z, W=np.zeros((2, 2)))
        _, K = two_point_kernel(params, pt, pt)
        assert K == pytest.approx(np.exp(params.mu * np.vdot(z, z).real))

    def test_log_matches_potential(self, rng):
        params = MetricParams(n=2, k=3.5, mu=1.2)
        for _ in range(10):
            pt = sample_point("jacobi_ball", 2, rng)
            _, K = two_point_kernel(params, pt, pt)
            assert abs(K.imag) < 1e-12 * abs(K.real)
            assert np.log(K.real) == pytest.approx(
                kahler_potential(params, pt), rel=1e-12, abs=1e-12
            )

    def test_hermitian_symmetry(self, rng):
        params = MetricParams(n=2, k=2.5, mu=1.0)
        p1 = sample_point("jacobi_ball", 2, rng)
        p2 = sample_point("jacobi_ball", 2, rng)
        _, K12 = two_point_kernel(params, p1, p2)
        _, K21 = two_point_kernel(params, p2, p1)
        assert K12 == pytest.approx(np.conj(K21), rel=1e-12)

    def test_branch_crossing_reported(self):
        # three aligned phase factors wind the determinant past -pi
        r2 = 0.97
        psi = np.arccos(r2)
        W = np.sqrt(r2) * np.exp(0.5j * psi) * np.eye(3)
        V = np.sqrt(r2) * np.exp(-0.5j * psi) * np.eye(3)
        pa = JacobiBallPoint(z=np.zeros(3), W=V)
        pb = JacobiBallPoint(z=np.zeros(3), W=W)
        with pytest.raises(BranchAmbiguity):
            two_point_kernel(MetricParams(n=3, k=2, mu=1), pa, pb)

    def test_step_limit_raises(self, monkeypatch):
        # an eigenvalue of W Vbar near 1 turns the argument by ~3 rad in the
        # last of 8 path steps; refining resolves it, a capped path must not
        # return the coarse sum
        W = 0.9999 * np.exp(0.01j) * np.eye(2)
        pa = JacobiBallPoint(z=np.zeros(2), W=0.9999 * np.eye(2))
        pb = JacobiBallPoint(z=np.zeros(2), W=W)
        params = MetricParams(n=2, k=2, mu=1)
        F, K = two_point_kernel(params, pa, pb)
        assert np.isfinite(K)
        monkeypatch.setattr(kernels, "_MAX_PATH_STEPS", 8)
        with pytest.raises(NotConverged, match="8 path steps"):
            two_point_kernel(params, pa, pb)


def _loop_tracked_logdet_reference(W, Vbar):
    """The per-t loop that the stacked det in _tracked_logdet replaced."""
    eye = np.eye(W.shape[0])
    steps = 8
    while True:
        ts = np.linspace(0.0, 1.0, steps + 1)
        dets = np.array([np.linalg.det(eye - t * (W @ Vbar)) for t in ts])
        increments = np.angle(dets[1:] / dets[:-1])
        if np.max(np.abs(increments)) < 0.5 * np.pi:
            break
        steps *= 2
    arg = 0.0
    for inc in increments:
        arg += float(inc)
    return complex(np.log(abs(dets[-1])), arg), steps


def test_tracked_logdet_matches_loop_reference():
    # one stacked det per refinement level; the same rounding as the loop
    rng = np.random.default_rng(2024)
    pairs = [
        (sample_point("jacobi_ball", n, rng).W, sample_point("jacobi_ball", n, rng).W)
        for n in (1, 2, 3, 6)
        for _ in range(10)
    ]
    for W, V in pairs:
        expected, _ = _loop_tracked_logdet_reference(W, V.conj())
        assert kernels._tracked_logdet(W, V.conj()) == expected
    # the pair of test_step_limit_raises, where 8 steps do not suffice
    W, Vbar = 0.9999 * np.exp(0.01j) * np.eye(2), 0.9999 * np.eye(2)
    expected, steps = _loop_tracked_logdet_reference(W, Vbar)
    assert steps > 8
    assert kernels._tracked_logdet(W, Vbar) == expected


class TestNormalizedKernels:
    def test_diagonal(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        kappa, b, D = normalized_kernels(params, pt, pt)
        assert kappa == pytest.approx(1.0)
        assert b == pytest.approx(1.0)
        assert D == pytest.approx(0.0, abs=1e-12)

    def test_pure_ball_separation(self):
        # D((0,0), (0,r)) = -k ln(1 - r^2)
        k, r = 3.0, 0.6
        params = MetricParams(n=1, k=k, mu=1.0)
        _, _, D = normalized_kernels(
            params, origin(1), JacobiBallPoint(z=[0.0], W=[[r]])
        )
        assert D == pytest.approx(-k * np.log(1 - r**2))

    def test_swap_symmetric(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        p1 = sample_point("jacobi_ball", 2, rng)
        p2 = sample_point("jacobi_ball", 2, rng)
        _, b12, d12 = normalized_kernels(params, p1, p2)
        _, b21, d21 = normalized_kernels(params, p2, p1)
        assert b12 == pytest.approx(b21, rel=1e-12)
        assert d12 == pytest.approx(d21, rel=1e-12)

    def test_bounds(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        for _ in range(50):
            p1 = sample_point("jacobi_ball", 2, rng)
            p2 = sample_point("jacobi_ball", 2, rng)
            _, b, D = normalized_kernels(params, p1, p2)
            assert 0 < b < 1 - 1e-12
            assert D > 0


class TestEpsilon:
    def test_origin(self):
        assert epsilon_function(MetricParams(n=2, k=2, mu=1), origin(2)) == pytest.approx(1.0)

    def test_random_points(self, rng):
        params = MetricParams(n=2, k=4.0, mu=1.5)
        for _ in range(20):
            pt = sample_point("jacobi_ball", 2, rng)
            assert abs(epsilon_function(params, pt) - 1.0) < 1e-10

    def test_near_boundary(self, rng):
        params = MetricParams(n=2, k=4.0, mu=1.0)
        pt = near_boundary_point(1e-3, rng)
        assert abs(epsilon_function(params, pt) - 1.0) < 1e-8


class TestVolume:
    def test_w_zero(self):
        data = volume_densities(origin(2))
        assert data.Q_ball == 1.0 and data.Q_jacobi == 1.0

    def test_scalar(self):
        data = volume_densities(JacobiBallPoint(z=[0.0], W=[[0.5]]))
        assert data.Q_jacobi == pytest.approx(0.75**-3)
        assert data.Q_ball == pytest.approx(0.75**-2)

    def test_densities_at_least_one(self, rng):
        for _ in range(20):
            pt = sample_point("ball", 2, rng)
            data = volume_densities(pt)
            assert data.Q_ball >= 1.0 and data.Q_jacobi >= 1.0


class TestNormalizationConstant:
    def test_n1_example(self):
        val = normalization_constant(MetricParams(n=1, k=5, mu=1))
        assert val == pytest.approx(1 / np.pi**2)

    def test_mu_scaling(self):
        v1 = normalization_constant(MetricParams(n=2, k=8, mu=1))
        v2 = normalization_constant(MetricParams(n=2, k=8, mu=2))
        assert v2 == pytest.approx(4 * v1)

    def test_pole_reported(self):
        with pytest.raises(GammaPoleError):
            normalization_constant(MetricParams(n=1, k=3, mu=1))
        with pytest.raises(GammaPoleError):
            normalization_constant(MetricParams(n=2, k=3.5, mu=1))

    @pytest.mark.parametrize("n, k", [(2, 4.5), (2, 5), (3, 6.5), (3, 7), (4, 9)])
    def test_non_positive_factor_reported(self, n, k):
        # 2n < k <= 2n + 1: every Gamma argument is positive, but the i = 1
        # factor (k-3)/2 - n + 1 is <= 0 and the constant would be <= 0
        with pytest.raises(GammaPoleError, match="factor"):
            normalization_constant(MetricParams(n=n, k=k, mu=1))

    def test_positive_wherever_defined(self):
        for n in (1, 2, 3, 4):
            for k in np.arange(3.25, 12.0, 0.25):
                try:
                    val = normalization_constant(MetricParams(n=n, k=float(k), mu=1))
                except GammaPoleError:
                    assert k <= 2 * n + 1
                    continue
                assert val > 0, (n, k)


class TestParseval:
    def test_unit_norm(self):
        for k in (6.0, 10.0):
            assert parseval_check_n1(k, 1.0) == pytest.approx(1.0, abs=0.02)

    def test_mu_stability(self):
        v1 = parseval_check_n1(10.0, 1.0)
        v2 = parseval_check_n1(10.0, 2.0)
        assert abs(v1 - v2) / abs(v1) < 1e-3

    def test_divergent_weight(self):
        with pytest.raises(GammaPoleError):
            parseval_check_n1(3.0, 1.0)

    def test_not_converged_near_threshold(self):
        with pytest.raises(NotConverged):
            parseval_check_n1(3.5, 1.0, QuadratureSpec(rtol=1e-10))

    @pytest.mark.parametrize("k", [3e4, 1e5, 1e6])
    def test_underflowing_norm_not_converged(self, k):
        # the norm underflows toward 0 (8.3e-56 at k = 1e5, 0.0 at 1e6); the
        # error estimate is measured against it, so it cannot pass as converged
        with pytest.raises(NotConverged, match="relative error estimate"):
            parseval_check_n1(k, 1.0)

    @pytest.mark.parametrize("k", [4.0, 5.5, 10.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_unit_norm_within_rtol(self, k, mu):
        # independent of the rounding that the loop reference pins
        assert abs(parseval_check_n1(k, mu) - 1.0) <= QuadratureSpec().rtol

    def test_no_lapack_det(self, monkeypatch):
        # the 2 x 2 determinant is written out over all angles at once
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
        parseval_check_n1(4.0, 1.0)
        assert calls == []

    @pytest.mark.parametrize(
        "bad",
        [
            {"radial_panels": 1},
            {"radial_panels": 49},
            {"radial_panels": 100},
            {"radial_order": 0},
            {"radial_order": 7},
            {"angular_points": 0},
            {"rtol": 0.0},
            {"rtol": -1e-6},
            {"rtol": float("nan")},
        ],
    )
    def test_spec_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)

    def test_spec_extremes_accepted(self):
        coarse = QuadratureSpec(radial_panels=2, radial_order=2, angular_points=1, rtol=10.0)
        assert np.isfinite(parseval_check_n1(9.0, 1.0, coarse))
        QuadratureSpec(radial_panels=48)


def _loop_parseval_reference(k, mu, spec):
    """The scalar panel x node x angle loop the vectorised quadrature
    replaced; same nodes, order of summation and error estimate."""
    from scipy.special import roots_legendre

    lam = normalization_constant(MetricParams(n=1, k=k, mu=mu))
    phis = np.linspace(0.0, 2.0 * np.pi, spec.angular_points, endpoint=False)

    def ring_integrand(u):
        total = 0.0
        for phi in phis:
            w = np.sqrt(u) * np.exp(1j * phi)
            a, b = w.real, w.imag
            P = 1.0 - u
            q2 = np.array([[1.0 + a, b], [b, 1.0 - a]]) / P
            det_q2 = float(q2[0, 0] * q2[1, 1] - q2[0, 1] * q2[1, 0])
            gaussian = np.pi / (mu * np.sqrt(det_q2))
            total += gaussian * P ** (0.5 * k - 3.0)
        return total / len(phis)

    nodes, weights = roots_legendre(spec.radial_order)
    nodes_lo, weights_lo = roots_legendre(spec.radial_order // 2)
    edges = [0.0] + [1.0 - 0.5**j for j in range(1, spec.radial_panels)]
    value = 0.0
    err_est = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        hi_sum = sum(w * ring_integrand(mid + half * x) for x, w in zip(nodes, weights))
        lo_sum = sum(w * ring_integrand(mid + half * x) for x, w in zip(nodes_lo, weights_lo))
        value += half * hi_sum
        err_est += half * abs(hi_sum - lo_sum)
    delta = 1.0 - edges[-1]
    err_est += (np.pi / mu) * delta ** (0.5 * (k - 3.0)) * 2.0 / (k - 3.0)
    value *= 0.5
    err_est *= 0.5
    return float(lam * 2.0 * np.pi * value), err_est * lam * 2.0 * np.pi


@pytest.mark.parametrize("k", [4.0, 5.5, 10.0])
def test_parseval_matches_loop_reference(k):
    # same rounding as the loop, so equality is exact, not approximate
    for mu in (0.5, 2.0):
        assert parseval_check_n1(k, mu) == _loop_parseval_reference(k, mu, QuadratureSpec())[0]
    spec = QuadratureSpec(radial_panels=20, radial_order=8, angular_points=5, rtol=1.0)
    assert parseval_check_n1(k, 1.3, spec) == _loop_parseval_reference(k, 1.3, spec)[0]


class TestKernelEval:
    def test_bundle_consistency(self, rng):
        params = MetricParams(n=2, k=2.5, mu=1.0)
        p1 = sample_point("jacobi_ball", 2, rng)
        p2 = sample_point("jacobi_ball", 2, rng)
        ev = kernel_eval(params, p1, p2)
        F, K = two_point_kernel(params, p1, p2)
        assert ev.K == K and ev.F == F
        assert ev.berezin == pytest.approx(abs(ev.kappa) ** 2)
        assert ev.diastasis == pytest.approx(-np.log(ev.berezin))

    def test_diagonal_default(self, rng):
        params = MetricParams(n=1, k=2, mu=1)
        pt = sample_point("jacobi_ball", 1, rng)
        ev = kernel_eval(params, pt)
        assert ev.berezin == pytest.approx(1.0)
        assert ev.epsilon == pytest.approx(1.0)

    def test_pair_data_computed_once(self, monkeypatch, rng):
        calls = []
        for name in ("_two_point_exponent", "_tracked_logdet"):
            original = getattr(kernels, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(kernels, name, counted)
        params = MetricParams(n=2, k=8, mu=1)
        p1, p2 = (sample_point("jacobi_ball", 2, rng) for _ in range(2))
        kernel_eval(params, p1)
        assert sorted(calls) == ["_tracked_logdet", "_two_point_exponent"]
        calls.clear()
        # F(p1, p2) and F(p2, p2); F(p1, p1) is kept on p1
        kernel_eval(params, p1, p2)
        assert sorted(calls) == ["_tracked_logdet"] + ["_two_point_exponent"] * 2

    def test_overflow_raises(self):
        # Q_ball = det(1 - W Wbar)^{-(n+1)}, K = det(1 - W Wbar)^{-k/2} at
        # z = 0, and Lambda_n, each beyond the float range
        near = JacobiBallPoint(z=np.zeros(12), W=0.9995 * np.eye(12))
        with pytest.raises(NumericalOverflow, match="Q_ball"):
            volume_densities(near)
        params = MetricParams(n=1, k=1000, mu=1)
        disk = JacobiBallPoint(z=[0.0], W=[[0.9]])
        with pytest.raises(NumericalOverflow, match="K at"):
            two_point_kernel(params, disk, disk)
        with pytest.raises(NumericalOverflow, match="Lambda_n"):
            normalization_constant(MetricParams(n=10, k=1000, mu=1))
