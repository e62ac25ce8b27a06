import gc
import math
import warnings

import numpy as np
import pytest

from siegel_jacobi import kernels, verify
from siegel_jacobi.domains import JacobiBallPoint, sample_point
from siegel_jacobi.errors import (
    DimensionMismatch, GammaPoleError, NotConverged, NumericalOverflow,
)
from siegel_jacobi.kernels import (
    epsilon_function,
    kernel_eval,
    normalization_constant,
    normalized_kernels,
    parseval_check_n1,
    two_point_kernel,
    volume_densities,
)
from siegel_jacobi.metric import MetricParams, kahler_potential
from siegel_jacobi.verify import fuzz_all


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
        # three aligned phase factors wind the continuous log det past -pi;
        # at k = 4 the power det^{-2} has no branch, and at k = 4.5 K takes
        # the continuous branch sum_i Log(1 - lam_i), not the principal log
        pa, pb = _crossing_pair()
        lam = np.full(3, 0.97 * np.exp(1j * np.arccos(0.97)))
        F, K = two_point_kernel(MetricParams(n=3, k=4, mu=1), pa, pb)
        det = np.linalg.det(np.eye(3) - pb.W @ pa.W.conj())
        assert abs(K - det**-2 * np.exp(F)) <= 1e-12 * abs(K)
        F, K = two_point_kernel(MetricParams(n=3, k=4.5, mu=1), pa, pb)
        assert K == pytest.approx(np.exp(-2.25 * np.sum(np.log(1.0 - lam)) + F), rel=1e-12)

    @pytest.mark.parametrize("branch, continuous", [("tracked", True), ("principal", False)])
    def test_kernel_continuous_along_a_crossing_walk(self, monkeypatch, branch, continuous):
        # K at (s pa, s pb), s in [0, 1] in 2,001 steps, k = 4.5, in one
        # stacked call: the tracked branch moves K by at most 2.7% a step;
        # the principal log of the determinant (the negative control) jumps
        # by 140% where its argument crosses -pi
        if branch == "principal":
            monkeypatch.setattr(
                kernels, "_tracked_logdet",
                lambda W, Vbar: np.log(np.linalg.det(np.eye(W.shape[-1]) - W @ Vbar)),
            )
        pa, pb = _crossing_pair()
        s = np.linspace(0.0, 1.0, 2001)[:, None, None]
        z = np.zeros((len(s), 3))
        _, Ks = two_point_kernel(
            MetricParams(n=3, k=4.5, mu=1),
            JacobiBallPoint.assemble(z, s * pa.W),
            JacobiBallPoint.assemble(z, s * pb.W),
        )
        largest_step = np.max(np.abs(np.diff(Ks)) / np.abs(Ks[:-1]))
        assert (largest_step <= 0.1) == continuous, largest_step

    def test_sesquiholomorphy_gate_at_the_crossing_pair(self):
        # kernel_sesquiholomorphy's gate at the pair of the walk above, both
        # orders: the tracked branch is holomorphic across the crossing
        pa, pb = _crossing_pair()
        params = MetricParams(n=3, k=4.5, mu=1)
        for x, y in ((pa, pb), (pb, pa)):
            assert verify._sesquiholomorphy_defect(params, x, y) < 1e-8

    def test_near_boundary_pair(self):
        # an eigenvalue of W Vbar at 0.9999 e^{0.01i}: its factor 1 - lam
        # turns by ~pi/2 in the last percent of the path t -> 1 - t lam
        pa = JacobiBallPoint(z=np.zeros(2), W=0.9999 * np.eye(2))
        pb = JacobiBallPoint(z=np.zeros(2), W=0.9999 * np.exp(0.01j) * np.eye(2))
        F, K = two_point_kernel(MetricParams(n=2, k=2, mu=1), pa, pb)
        assert np.isfinite(K)

    def test_winding_pair_takes_the_principal_log(self):
        # the factors of det(1 - t W Vbar) turn it below -pi and back on the
        # way to t = 1; the branch at t = 1 is the principal log of the
        # determinant, so it is returned, not reported
        pa, pb = _winding_pair()
        expected = np.log(np.linalg.det(np.eye(6) - pb.W @ pa.W.conj()))
        assert kernels._tracked_logdet(pb.W, pa.W.conj()) == pytest.approx(expected, rel=1e-13)
        assert np.isfinite(two_point_kernel(MetricParams(n=6, k=4, mu=1), pa, pb)[1])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stacked_pair_equals_each_pair(n):
    # bit for bit: the log-kernel, the kernels and epsilon of a stack of
    # pairs are the per-pair values (repr tells -0.0 from 0.0); at n = 3
    # the crossing pair, whose tracked log det leaves [-pi, pi], is one of
    # the pairs
    rng = np.random.default_rng(n)
    pairs = [tuple(sample_point("jacobi_ball", n, rng) for _ in range(2)) for _ in range(4)]
    if n == 3:
        pairs.append(_crossing_pair())
    params = MetricParams(n=n, k=6.5, mu=1.3)
    x, y = (
        JacobiBallPoint.assemble(np.stack([p.z for p in side]), np.stack([p.W for p in side]))
        for side in zip(*pairs)
    )

    def values(a, b):
        return (
            kernels._log_kernel(params, a, b),
            *two_point_kernel(params, a, b),
            *normalized_kernels(params, a, b),
            epsilon_function(params, a),
        )

    stacked = values(x, y)
    for i, (a, b) in enumerate(pairs):
        assert [repr(complex(v[i])) for v in stacked] == [repr(complex(v)) for v in values(a, b)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diastasis_is_plus_zero_on_the_diagonal(n):
    # ln kappa is exactly 0 at a diagonal pair, and D = -ln b must not
    # negate it into -0.0
    rng = np.random.default_rng(n)
    params = MetricParams(n=n, k=6.5, mu=1.3)
    for pt in [origin(n)] + [sample_point("jacobi_ball", n, rng) for _ in range(4)]:
        _, _, D = normalized_kernels(params, pt, pt)
        assert D == 0.0 and math.copysign(1.0, D) == 1.0


def _crossing_pair():
    """(V, W) at n = 3, z = 0, with W Vbar = 0.97 e^{i arccos 0.97} I: the
    continuous argument of det(1 - W Vbar) ends at -3.9757."""
    c = np.sqrt(0.97) * np.exp(0.5j * np.arccos(0.97))
    return (
        JacobiBallPoint(z=np.zeros(3), W=c.conjugate() * np.eye(3)),
        JacobiBallPoint(z=np.zeros(3), W=c * np.eye(3)),
    )


def _winding_pair():
    """(V, W) at n = 6, z = 0, with the eigenvalues of W Vbar at 0.9i
    (five times) and 0.9999 e^{-0.01i}: W = diag(sqrt|lam| e^{i arg lam}),
    V = diag(sqrt|lam|)."""
    lam = np.array([0.9j] * 5 + [0.9999 * np.exp(-0.01j)])
    root = np.sqrt(np.abs(lam))
    return (
        JacobiBallPoint(z=np.zeros(6), W=np.diag(root)),
        JacobiBallPoint(z=np.zeros(6), W=np.diag(root * np.exp(1j * np.angle(lam)))),
    )


def _loop_tracked_logdet_reference(W, Vbar):
    """The continuous log det(1 - t W Vbar) at t = 1 by walking the path:
    per-t determinants, the step count doubled until no step turns the
    argument by pi/2, the increments summed in order."""
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


def _symmetric_with_norm(n, norm, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A + A.T
    return norm / np.linalg.norm(A, 2) * A


def test_tracked_logdet_matches_loop_reference():
    # the eigenvalue sum against an independent walk along the path, on
    # sampled points and on pairs up to spectral norm 0.9999
    rng = np.random.default_rng(2024)
    pairs = [
        (sample_point("jacobi_ball", n, rng).W, sample_point("jacobi_ball", n, rng).W)
        for n in (1, 2, 3, 4, 6, 8)
        for _ in range(5)
    ]
    for n in (1, 2, 3, 4, 6, 8):
        for norm in (0.9, 0.99, 0.999, 0.9999):
            # a random partner, and an aligned one: W Vbar = e^{0.01i} W Wbar
            W = _symmetric_with_norm(n, norm, rng)
            pairs += [(W, _symmetric_with_norm(n, norm, rng)), (W, np.exp(-0.01j) * W)]
    # the near-boundary pair, where the walk needs more than 8 steps
    pairs.append((0.9999 * np.exp(0.01j) * np.eye(2), 0.9999 * np.eye(2)))
    for W, V in pairs:
        expected, steps = _loop_tracked_logdet_reference(W, V.conj())
        assert abs(expected.imag) <= np.pi
        # abs: a sampled pair's log det can be small next to its rounding
        assert kernels._tracked_logdet(W, V.conj()) == pytest.approx(
            expected, rel=1e-13, abs=1e-15
        )
    assert steps > 8


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

    def test_converges_near_threshold_and_at_large_k(self):
        # the weight (1 - u)^{(k-5)/2} is the rule's own, so neither the
        # boundary singularity at k = 3.5 nor the boundary layer at k = 1000
        # is left to the nodes
        for k in (3.5, 1000.0):
            assert abs(parseval_check_n1(k, 1.0) - 1.0) <= 1e-6

    @pytest.mark.parametrize("k", [3e4, 1e5, 1e6, 1e200, 1e300])
    def test_underflowing_norm_not_converged(self, k):
        # above k ~ 2070 the Gauss-Jacobi weights leave the float range, and
        # above k ~ 1e190 scipy forms no rule, so the norm is not finite; it
        # is reported, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match="relative error estimate"):
                parseval_check_n1(k, 1.0)

    @pytest.mark.parametrize("k", [4.0, 5.5, 10.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_unit_norm_within_rtol(self, k, mu):
        assert abs(parseval_check_n1(k, mu) - 1.0) <= kernels.RTOL

    def test_no_lapack_det(self, monkeypatch):
        # the 2 x 2 determinant is written out over all angles at once
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
        parseval_check_n1(4.0, 1.0)
        assert calls == []

    def test_wrong_constant_fails_fuzz(self, monkeypatch):
        # negative control: a Lambda_1 3% off fails parseval_n1 (tol 0.02);
        # parseval_mu_stability cancels the constant, so it still passes
        constant = kernels.normalization_constant
        monkeypatch.setattr(kernels, "normalization_constant", lambda p: 1.03 * constant(p))
        rep = fuzz_all(n=1, k=4.0, mu=1.0, trials=1, master_seed=7, properties="parseval")
        passed = {r.property: r.passed for r in rep.results}
        assert passed == {"parseval_n1": False, "parseval_mu_stability": True}


def _loop_parseval_reference(k, mu):
    """An independent panel rule, as a scalar loop: 47 geometric Gauss-Legendre
    panels of order 16 toward u = 1 and 16 angles.  The last sliver
    [1 - 2^-47, 1) is left out; its share is 2^{-47 (k-3)/2}, 8.4e-8 at k = 4."""
    from scipy.special import roots_legendre

    lam = normalization_constant(MetricParams(n=1, k=k, mu=mu))
    phis = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)

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

    nodes, weights = roots_legendre(16)
    edges = [0.0] + [1.0 - 0.5**j for j in range(1, 48)]
    value = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        value += half * sum(w * ring_integrand(mid + half * x) for x, w in zip(nodes, weights))
    # dA = r dr dphi = du dphi / 2
    return float(lam * np.pi * value)


@pytest.mark.parametrize("k", [4.0, 5.0, 5.5, 6.0, 8.0, 10.0, 12.0])
def test_parseval_matches_loop_reference(k):
    for mu in (0.5, 2.0):
        assert parseval_check_n1(k, mu) == pytest.approx(_loop_parseval_reference(k, mu), rel=1e-6)


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
        p1, p2, p3 = (sample_point("jacobi_ball", 2, rng) for _ in range(3))
        kernel_eval(params, p1)
        assert sorted(calls) == ["_tracked_logdet", "_two_point_exponent"]
        calls.clear()
        # the pair's F and ld, and p2's own diagonal F and ld (ln K(p2, p2)
        # for kappa); p1's are kept on p1
        kernel_eval(params, p1, p2)
        assert sorted(calls) == ["_tracked_logdet"] * 2 + ["_two_point_exponent"] * 2
        calls.clear()
        # the pair data do not depend on (k, mu): a repeated ordered pair of
        # point objects reads them kept, whatever the kernel
        self._every_kernel(p1, p2)
        assert calls == []
        kernel_eval(params, p3)  # p3's own diagonal data
        calls.clear()
        # one entry per point, for its last partner: another partner, the
        # earlier one again and the reversed pair each compute once more
        for pair in ((p1, p3), (p1, p2), (p2, p1)):
            self._every_kernel(*pair)
            assert sorted(calls) == ["_tracked_logdet", "_two_point_exponent"]
            calls.clear()
        # a new object with p2's arrays is another point: it computes its own
        fresh = JacobiBallPoint.assemble(p2.z, p2.W)
        two_point_kernel(params, fresh, p1)
        two_point_kernel(params, fresh, p1)
        assert sorted(calls) == ["_tracked_logdet", "_two_point_exponent"]

    _SWEEP = ((8, 1), (5.5, 0.7), (64, 2.5))

    def _every_kernel(self, x, y) -> list:
        """Every kernel output at the ordered pair (x, y), over the sweep."""
        out = []
        for k, mu in self._SWEEP:
            params = MetricParams(n=x.n, k=k, mu=mu)
            out += [
                kernel_eval(params, x, y),
                two_point_kernel(params, x, y),
                normalized_kernels(params, x, y),
            ]
        return out

    def test_warm_equals_cold(self, rng):
        # bit for bit: repr tells -0.0 from 0.0 and prints every float exactly
        p1, p2, p3 = (sample_point("jacobi_ball", 2, rng) for _ in range(3))

        def fresh(pt):
            return JacobiBallPoint.assemble(pt.z, pt.W)

        for x, y in ((p1, p2), (p1, p3), (p1, p2), (p2, p1), (p1, p1), (p1, p2)):
            cold_x = fresh(x)
            cold = self._every_kernel(cold_x, cold_x if y is x else fresh(y))
            for _ in range(2):
                assert repr(self._every_kernel(x, y)) == repr(cold)

    def test_partner_is_not_kept_alive(self, rng):
        params = MetricParams(n=2, k=8, mu=1)
        p1, p2 = (sample_point("jacobi_ball", 2, rng) for _ in range(2))
        two_point_kernel(params, p1, p2)
        partner, _ = vars(p1)["pair_terms"]
        assert partner() is p2
        del p2
        gc.collect()
        assert partner() is None
        assert vars(p1)["pair_terms"][0] is partner

    @pytest.mark.parametrize("kernel", [two_point_kernel, normalized_kernels, kernel_eval])
    def test_dimension_mismatch(self, kernel, rng):
        # points of another n than params, and points of two sizes, as every
        # metric closed form reports them
        params = MetricParams(n=2, k=8, mu=1)
        p2, p3, q3 = (sample_point("jacobi_ball", n, rng) for n in (2, 3, 3))
        for a, b in ((p3, p3), (p3, q3), (p2, p3), (p3, p2)):
            with pytest.raises(DimensionMismatch):
                kernel(params, a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises(self):
        # Q_ball = det(1 - W Wbar)^{-(n+1)}, K = det(1 - W Wbar)^{-k/2} at
        # z = 0, and Lambda_n, each beyond the float range; at k = 1e308 the
        # log of Lambda_n is inf - inf, a NaN reported with no warning
        near = JacobiBallPoint(z=np.zeros(12), W=0.9995 * np.eye(12))
        with pytest.raises(NumericalOverflow, match="Q_ball"):
            volume_densities(near)
        params = MetricParams(n=1, k=1000, mu=1)
        disk = JacobiBallPoint(z=[0.0], W=[[0.9]])
        with pytest.raises(NumericalOverflow, match="K at"):
            two_point_kernel(params, disk, disk)
        with pytest.raises(NumericalOverflow, match="Lambda_n"):
            normalization_constant(MetricParams(n=10, k=1000, mu=1))
        with pytest.raises(NumericalOverflow, match="Lambda_n"):
            normalization_constant(MetricParams(n=2, k=1e308, mu=1))
