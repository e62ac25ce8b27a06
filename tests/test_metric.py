import warnings

import numpy as np
import pytest

from siegel_jacobi.domains import JacobiBallPoint, SiegelUpperPoint, TangentVector, sample_point
from siegel_jacobi.errors import NumericalOverflow
from siegel_jacobi.laplacian import builtin_field
from siegel_jacobi.metric import (
    MetricParams,
    ball_metric_pair,
    compute_aux,
    curvature,
    ds2_eval,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
    upper_metric_pair,
)


def origin(n):
    return JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))


def disk_closed_forms(z, w, k, mu):
    """Scalar (n = 1) disk-model closed forms (metric matrix, inverse,
    determinant).  The disk normalization writes the ball-part weight as a
    single symbol ("2k" there); under the half-weight correspondence that
    slot equals k/2 here."""
    weight = k / 2.0
    P = 1.0 - abs(w) ** 2
    eta = (z + np.conj(z) * w) / P
    h = np.array(
        [
            [mu / P, mu * eta / P],
            [mu * np.conj(eta) / P, weight / P**2 + mu * abs(eta) ** 2 / P],
        ]
    )
    hinv = np.array(
        [
            [P / mu + P**2 * abs(eta) ** 2 / weight, -(P**2) * eta / weight],
            [-(P**2) * np.conj(eta) / weight, P**2 / weight],
        ]
    )
    det = weight * mu / P**3
    return h, hinv, det


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricParams(n=0, k=1, mu=1)
        with pytest.raises(ValueError):
            MetricParams(n=1, k=-1, mu=1)
        with pytest.raises(ValueError):
            MetricParams(n=1, k=1, mu=0)

    def test_weight_flag(self):
        assert not MetricParams(n=1, k=1.5, mu=1).nonintegral_weight
        with pytest.warns(UserWarning):
            assert MetricParams(n=1, k=1.3, mu=1).nonintegral_weight


class TestAux:
    def test_invariants(self, rng):
        params = MetricParams(n=3, k=2, mu=1)
        pt = sample_point("jacobi_ball", 3, rng)
        aux = compute_aux(params, pt)
        assert np.max(np.abs(aux.M @ aux.N - np.eye(3))) < 1e-12
        assert np.max(np.abs(aux.X - aux.X.T)) < 1e-12
        assert aux.alpha >= 0
        assert aux.theta == pytest.approx(1 / params.mu + 2 * aux.alpha / params.k)


class TestPotential:
    def test_origin(self):
        assert kahler_potential(MetricParams(n=2, k=2, mu=1), origin(2)) == 0.0

    def test_w_zero_gives_norm(self, rng):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mu = 1.7
        val = kahler_potential(
            MetricParams(n=3, k=2, mu=mu), JacobiBallPoint(z=z, W=np.zeros((3, 3)))
        )
        assert val == pytest.approx(mu * np.vdot(z, z).real)

    def test_scalar_example(self):
        val = kahler_potential(
            MetricParams(n=1, k=2, mu=1), JacobiBallPoint(z=[0.0], W=[[0.5]])
        )
        assert val == pytest.approx(-np.log(0.75))


class TestBlocks:
    def test_w_zero_h1(self, rng):
        params = MetricParams(n=2, k=2, mu=1.3)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ev = metric_blocks(params, JacobiBallPoint(z=z, W=np.zeros((2, 2))))
        assert np.allclose(ev.h1, params.mu * np.eye(2))

    def test_w_zero_h2(self, rng):
        params = MetricParams(n=2, k=2, mu=1.0)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ev = metric_blocks(params, JacobiBallPoint(z=z, W=np.zeros((2, 2))))
        idx = params.pair_index
        for j, (p, q) in enumerate(idx.pairs):
            f = 0.5 if p == q else 1.0
            for i in range(2):
                expected = params.mu * f * (
                    z[q] * (i == p) + z[p] * (i == q)
                )
                assert ev.h2[i, j] == pytest.approx(expected)

    def test_origin_h4_diagonal(self):
        params = MetricParams(n=3, k=5.0, mu=1.0)
        ev = metric_blocks(params, origin(3))
        idx = params.pair_index
        expected = np.diag(
            [params.k / 2 * (1.0 if p == q else 2.0) for p, q in idx.pairs]
        )
        assert np.allclose(ev.h4, expected)
        assert np.allclose(ev.h2, 0)

    def test_hermitian_and_positive(self, rng):
        params = MetricParams(n=3, k=2.5, mu=0.7)
        pt = sample_point("jacobi_ball", 3, rng)
        ev = metric_blocks(params, pt)
        assert np.max(np.abs(ev.h - ev.h.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(ev.h)[0] > 0


def _loop_pair_blocks(params, pt):
    """Entry-by-entry reference for the pair blocks: (h2, h4, hinv2, hinv4,
    h^k, k_inv), written from the closed forms with one Python loop per
    entry and the four-way case split of h^k."""
    aux = compute_aux(params, pt)
    M, N, eta, S, k, mu = aux.M, aux.N, aux.eta, aux.S, params.k, params.mu
    Mb, Nb, etab = M.conj(), N.conj(), eta.conj()
    pairs = params.pair_index.pairs
    n, m = params.n, len(pairs)
    h2, i2 = np.empty((n, m), complex), np.empty((n, m), complex)
    hk, hmu, kinv, i4 = (np.empty((m, m), complex) for _ in range(4))
    for j, (a, b) in enumerate(pairs):
        fab = 0.5 if a == b else 1.0
        h2[:, j] = mu * fab * (eta[b] * Mb[:, a] + eta[a] * Mb[:, b])
        i2[:, j] = -(S[b] * Nb[:, a] + S[a] * Nb[:, b]) / k
    for i, (p, q) in enumerate(pairs):
        fpq = 0.5 if p == q else 1.0
        for j, (a, b) in enumerate(pairs):
            fab = 0.5 if a == b else 1.0
            if p == q and a == b:
                hk[i, j] = M[a, p] ** 2
            elif p == q:
                hk[i, j] = 2.0 * M[a, q] * M[b, p]
            elif a == b:
                hk[i, j] = 2.0 * M[a, p] * M[b, q]
            else:
                hk[i, j] = 2.0 * (M[a, p] * M[b, q] + M[a, q] * M[b, p])
            hmu[i, j] = fpq * fab * (
                etab[p] * (eta[b] * Mb[q, a] + eta[a] * Mb[q, b])
                + etab[q] * (eta[b] * Mb[p, a] + eta[a] * Mb[p, b])
            )
            kinv[i, j] = 0.5 * (N[b, q] * Nb[p, a] + N[b, p] * Nb[q, a])
            i4[i, j] = (Nb[q, b] * Nb[p, a] + Nb[p, b] * Nb[q, a]) / k
    return h2, 0.5 * k * hk + mu * hmu, i2, i4, hk, kinv


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_blocks_match_loop_reference(n):
    # n >= 4 has pairs sharing no index, where an index slip would first show
    params = MetricParams(n=n, k=3.0, mu=1.3)
    pt = sample_point("jacobi_ball", n, np.random.default_rng(1000 + n), radius=0.6)
    ev, inv = metric_blocks(params, pt), metric_inverse(params, pt)
    got = (ev.h2, ev.h4, inv.h2, inv.h4) + ball_metric_pair(pt.ball)
    for block, ref in zip(got, _loop_pair_blocks(params, pt)):
        assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestInverse:
    def test_origin(self):
        params = MetricParams(n=2, k=3.0, mu=2.0)
        inv = metric_inverse(params, origin(2))
        assert np.allclose(inv.h1, np.eye(2) / params.mu)
        assert np.allclose(inv.h2, 0)
        idx = params.pair_index
        expected = np.diag(
            [(2.0 if p == q else 1.0) / params.k for p, q in idx.pairs]
        )
        assert np.allclose(inv.h4, expected)

    def test_w_zero_z_nonzero(self, rng):
        # rank-one corrected z-block: (1/mu + |z|^2/k) I + zbar z^t / k
        params = MetricParams(n=2, k=3.0, mu=2.0)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        inv = metric_inverse(params, JacobiBallPoint(z=z, W=np.zeros((2, 2))))
        norm2 = np.vdot(z, z).real
        expected = (1 / params.mu + norm2 / params.k) * np.eye(2) + np.outer(
            z.conj(), z
        ) / params.k
        assert np.max(np.abs(inv.h1 - expected)) < 1e-14

    def test_scalar_matches_half_weight_form(self, rng):
        # n = 1: h^1 = P/mu + 2 P^2 |eta|^2 / k
        params = MetricParams(n=1, k=2.5, mu=1.1)
        pt = sample_point("jacobi_ball", 1, rng)
        inv = metric_inverse(params, pt)
        P = 1 - abs(pt.W[0, 0]) ** 2
        eta = (pt.z[0] + np.conj(pt.z[0]) * pt.W[0, 0]) / P
        assert inv.h1[0, 0] == pytest.approx(
            P / params.mu + 2 * P**2 * abs(eta) ** 2 / params.k
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_identity(self, rng, n):
        params = MetricParams(n=n, k=2.0, mu=1.0)
        for _ in range(5):
            pt = sample_point("jacobi_ball", n, rng)
            ev = metric_blocks(params, pt)
            inv = metric_inverse(params, pt)
            defect = np.max(np.abs(ev.h @ inv.h_inv - np.eye(params.dim)))
            assert defect < 1e-10


class TestBallPair:
    def test_w_zero(self):
        hk, kinv = ball_metric_pair(np.zeros((3, 3)))
        from siegel_jacobi.domains import PairIndex

        idx = PairIndex(3)
        assert np.allclose(hk, np.diag([1.0 if p == q else 2.0 for p, q in idx.pairs]))
        assert np.allclose(kinv, np.diag([1.0 if p == q else 0.5 for p, q in idx.pairs]))

    def test_scalar(self):
        hk, kinv = ball_metric_pair(np.array([[0.4 + 0.2j]]))
        P = 1 - abs(0.4 + 0.2j) ** 2
        assert hk[0, 0] == pytest.approx(1 / P**2)
        assert kinv[0, 0] == pytest.approx(P**2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_pair_identity(self, rng, n):
        pt = sample_point("ball", n, rng)
        hk, kinv = ball_metric_pair(pt)
        assert np.max(np.abs(hk @ kinv - np.eye(hk.shape[0]))) < 1e-12

    def test_transposed_index_order_fails(self, rng):
        # negative control: swapping the pair-index roles breaks the identity
        pt = sample_point("ball", 2, rng, radius=0.7)
        hk, kinv = ball_metric_pair(pt)
        assert np.max(np.abs(hk.T @ kinv - np.eye(hk.shape[0]))) > 1e-6


class TestDeterminant:
    def test_scalar_origin(self):
        res = metric_det(MetricParams(n=1, k=2, mu=1), origin(1))
        assert res.value == pytest.approx(1.0)
        assert res.closed_form == pytest.approx(1.0)
        assert res.constant_C == 1.0

    def test_n2_origin(self):
        k, mu = 3.0, 1.5
        res = metric_det(MetricParams(n=2, k=k, mu=mu), origin(2))
        assert res.constant_C == 2.0
        assert res.value == pytest.approx(2 * (k / 2) ** 3 * mu**2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_and_ratio(self, rng, n):
        params = MetricParams(n=n, k=2.5, mu=0.9)
        pt = sample_point("jacobi_ball", n, rng)
        res = metric_det(params, pt)
        assert res.value == pytest.approx(res.closed_form, rel=1e-10)
        ratio = res.value / metric_det(params, origin(n)).value
        det_n = np.linalg.det(pt.cross_gram()).real
        assert ratio == pytest.approx(det_n ** -(n + 2), rel=1e-10)


    def test_overflow_raises(self):
        # at the origin with k = 4, mu = 1 both values are 2^{n^2}: inf at n = 32
        params = MetricParams(n=32, k=4, mu=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning leaks
            with pytest.raises(NumericalOverflow):
                metric_det(params, origin(32))
            with pytest.raises(NumericalOverflow):
                builtin_field("lnG", "jacobi_ball", params)(origin(32))
            # a Python float power out of range raises the same error
            with pytest.raises(NumericalOverflow):
                metric_det(MetricParams(n=2, k=1e200, mu=1), origin(2))

    def test_large_n_finite(self):
        res = metric_det(MetricParams(n=30, k=4, mu=1), origin(30))
        assert res.closed_form == 2.0**900
        assert res.constant_C == 2.0**435
        assert res.value == pytest.approx(2.0**900, rel=1e-11)


class TestCurvature:
    def test_scalar_curvature_values(self, rng):
        pt1 = sample_point("jacobi_ball", 1, rng)
        assert curvature(MetricParams(n=1, k=2, mu=1), pt1).scalar_curvature == -3.0
        assert (
            curvature(MetricParams(n=1, k=2.0, mu=1), pt1).scalar_curvature
            == pytest.approx(-6.0 / 2.0)
        )
        pt2 = sample_point("jacobi_ball", 2, rng)
        assert curvature(MetricParams(n=2, k=2, mu=1), pt2).scalar_curvature == -12.0

    def test_ricci_structure_at_origin(self):
        params = MetricParams(n=2, k=2, mu=1)
        data = curvature(params, origin(2))
        n = 2
        assert np.allclose(data.ric[:n, :], 0)
        assert np.allclose(data.ric[:, :n], 0)
        idx = params.pair_index
        expected = -(n + 2) * np.diag([1.0 if p == q else 2.0 for p, q in idx.pairs])
        assert np.allclose(data.ric[n:, n:], expected)

    def test_qk_lu_combination(self, rng):
        params = MetricParams(n=2, k=2.0, mu=1.0)
        pt = sample_point("jacobi_ball", 2, rng)
        data = curvature(params, pt)
        ev = metric_blocks(params, pt)
        expected = (3 * 4 / 2.0) * ev.h - data.ric
        assert np.allclose(data.qk_lu, expected)


class TestDs2:
    def test_zero_tangent(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        tv = TangentVector(dz=np.zeros(2), dW=np.zeros((2, 2)))
        assert ds2_eval("jacobi_ball", params, pt, tv) == 0.0

    def test_ball_basis_vector(self):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("ball", 2, np.random.default_rng(0), radius=0.0)
        dW = np.zeros((2, 2), dtype=complex)
        dW[0, 0] = 1.0
        assert ds2_eval("ball", params, pt, TangentVector(dz=None, dW=dW)) == pytest.approx(4.0)

    def test_upper_at_i(self):
        params = MetricParams(n=3, k=2, mu=1)
        pt = SiegelUpperPoint(V=1j * np.eye(3))
        tv = TangentVector(dz=None, dW=1j * np.eye(3))
        assert ds2_eval("upper", params, pt, tv) == pytest.approx(3.0)

    def test_positive(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        dz = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tv = TangentVector(dz=dz, dW=A + A.T)
        assert ds2_eval("jacobi_ball", params, pt, tv) > 0

    def test_upper_pair_consistency(self, rng):
        # quadratic form of the folded pair metric reproduces the trace form
        pt = sample_point("upper", 2, rng)
        hx, kx = upper_metric_pair(pt)
        assert np.max(np.abs(hx @ kx - np.eye(3))) < 1e-12
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tv = TangentVector(dz=None, dW=A + A.T)
        params = MetricParams(n=2, k=2, mu=1)
        direct = ds2_eval("upper", params, pt, tv)
        from siegel_jacobi.domains import PairIndex

        flat = PairIndex(2).pack(tv.dW)
        quad = 4.0 * float((flat @ hx @ flat.conj()).real)
        assert direct == pytest.approx(quad, rel=1e-12)


class TestDiskRegression:
    """n = 1 closed forms against the scalar disk-model formulas."""

    def test_hundred_points(self, rng):
        params = MetricParams(n=1, k=3.0, mu=1.4)
        for _ in range(100):
            pt = sample_point("jacobi_ball", 1, rng, radius=0.8)
            h_ref, hinv_ref, det_ref = disk_closed_forms(
                pt.z[0], pt.W[0, 0], params.k, params.mu
            )
            ev = metric_blocks(params, pt)
            inv = metric_inverse(params, pt)
            det = metric_det(params, pt)
            assert np.max(np.abs(ev.h - h_ref)) / np.max(np.abs(h_ref)) < 1e-10
            assert np.max(np.abs(inv.h_inv - hinv_ref)) / np.max(np.abs(hinv_ref)) < 1e-10
            assert det.value == pytest.approx(det_ref, rel=1e-10)
