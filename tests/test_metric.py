import warnings

import numpy as np
import pytest

from dataclasses import fields

from siegel_jacobi import domains, metric
from siegel_jacobi.domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
    sample_point,
)
from siegel_jacobi.errors import DimensionMismatch, NumericalOverflow
from siegel_jacobi.groups import inverse_partial_cayley
from siegel_jacobi.kernels import kernel_eval, volume_densities
from siegel_jacobi.laplacian import apply_laplacian, builtin_field, laplacian_coefficients
from siegel_jacobi.metric import (
    MetricParams,
    ball_metric_pair,
    curvature,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
)
from siegel_jacobi.oracle import fd_jacobian


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

    @pytest.mark.parametrize(
        "k,mu", [(np.inf, 1.0), (4.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (4.0, np.nan)]
    )
    def test_non_finite_weights_rejected(self, k, mu):
        with pytest.raises(ValueError, match="finite"):
            MetricParams(n=1, k=k, mu=mu)


class TestAux:
    def test_invariants(self, rng):
        params = MetricParams(n=3, k=2, mu=1)
        pt = sample_point("jacobi_ball", 3, rng)
        metric_inverse(params, pt)
        Nb, D, *_ = vars(pt)["inv_terms"]
        S = pt.eta @ Nb
        alpha = (S @ pt.eta.conj()).real
        assert np.max(np.abs(pt.M @ pt.N - np.eye(3))) < 1e-12
        assert alpha >= 0
        # the z block of D = k h^{-1} - (k/mu) C is alpha Nbar + Sbar S^t
        assert np.allclose(D[:3, :3], alpha * Nb + np.outer(S.conj(), S), rtol=1e-13, atol=1e-13)


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
    M, N, eta, k, mu = pt.M, pt.N, pt.eta, params.k, params.mu
    Mb, Nb, etab = M.conj(), N.conj(), eta.conj()
    pairs = params.pair_index.pairs
    n, m = params.n, len(pairs)
    S = np.array([sum(eta[q] * Nb[q, j] for q in range(n)) for j in range(n)])
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
    ev, h_inv = metric_blocks(params, pt), metric_inverse(params, pt).h_inv
    got = (ev.h2, ev.h4, h_inv[:n, n:], h_inv[n:, n:]) + ball_metric_pair(pt.ball)
    for block, ref in zip(got, _loop_pair_blocks(params, pt)):
        assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLinearForm:
    """h = mu A + (k/2) B and h^{-1} = C/mu + D/k from kept (k, mu)-free
    matrices; the blocks of a MetricEval are views of its h."""

    def test_blocks_are_views(self):
        params, pt = _case(3)
        n = params.n
        ev = metric_blocks(params, pt)
        blocks = (ev.h1, ev.h2, ev.h3, ev.h4)
        assert all(np.shares_memory(b, ev.h) for b in blocks)
        assert np.array_equal(ev.h, np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]]))
        assert blocks[0].shape == (n, n) and blocks[3].shape == (params.dim - n,) * 2

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_doubling_both_weights_doubles_h(self, n):
        # doubling is exact in floating point, so the linear form gives the same bits
        params, pt = _case(n)
        doubled = MetricParams(n=n, k=2 * params.k, mu=2 * params.mu)
        assert np.array_equal(metric_blocks(doubled, pt).h, 2 * metric_blocks(params, pt).h)


class TestInverse:
    def test_origin(self):
        params = MetricParams(n=2, k=3.0, mu=2.0)
        h_inv = metric_inverse(params, origin(2)).h_inv
        assert np.allclose(h_inv[:2, :2], np.eye(2) / params.mu)
        assert np.allclose(h_inv[:2, 2:], 0)
        idx = params.pair_index
        expected = np.diag(
            [(2.0 if p == q else 1.0) / params.k for p, q in idx.pairs]
        )
        assert np.allclose(h_inv[2:, 2:], expected)

    def test_w_zero_z_nonzero(self, rng):
        # rank-one corrected z-block: (1/mu + |z|^2/k) I + zbar z^t / k
        params = MetricParams(n=2, k=3.0, mu=2.0)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h_inv = metric_inverse(params, JacobiBallPoint(z=z, W=np.zeros((2, 2)))).h_inv
        norm2 = np.vdot(z, z).real
        expected = (1 / params.mu + norm2 / params.k) * np.eye(2) + np.outer(
            z.conj(), z
        ) / params.k
        assert np.max(np.abs(h_inv[:2, :2] - expected)) < 1e-14

    def test_scalar_matches_half_weight_form(self, rng):
        # n = 1: h^1 = P/mu + 2 P^2 |eta|^2 / k
        params = MetricParams(n=1, k=2.5, mu=1.1)
        pt = sample_point("jacobi_ball", 1, rng)
        h_inv = metric_inverse(params, pt).h_inv
        P = 1 - abs(pt.W[0, 0]) ** 2
        eta = (pt.z[0] + np.conj(pt.z[0]) * pt.W[0, 0]) / P
        assert h_inv[0, 0] == pytest.approx(
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
        hk, kinv = ball_metric_pair(SiegelBallPoint(np.zeros((3, 3))))
        idx = PairIndex(3)
        assert np.allclose(hk, np.diag([1.0 if p == q else 2.0 for p, q in idx.pairs]))
        assert np.allclose(kinv, np.diag([1.0 if p == q else 0.5 for p, q in idx.pairs]))

    def test_scalar(self):
        hk, kinv = ball_metric_pair(SiegelBallPoint(np.array([[0.4 + 0.2j]])))
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
        det_n = np.linalg.det(pt.N).real
        assert ratio == pytest.approx(det_n ** -(n + 2), rel=1e-10)


    def test_overflow_raises(self):
        # at the origin with k = 4, mu = 1 both values are 2^{n^2}: inf at n = 32
        params = MetricParams(n=32, k=4, mu=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning leaks
            with pytest.raises(NumericalOverflow):
                metric_det(params, origin(32))
            # a Python float power out of range raises the same error
            with pytest.raises(NumericalOverflow):
                metric_det(MetricParams(n=2, k=1e200, mu=1), origin(2))
            # so does a value below the normal range, not a silent 0.0: mu^n or
            # (k/2)^{n(n+1)/2} that underflows to 0, and a subnormal determinant
            for n, k, mu in ((2, 4, 1e-300), (3, 1e-120, 1), (1, 4, 1e-308)):
                with pytest.raises(NumericalOverflow, match="normal float range"):
                    metric_det(MetricParams(n=n, k=k, mu=mu), origin(n))

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


_LARGEST = np.finfo(float).max


@pytest.mark.filterwarnings("error")
class TestFiniteResults:
    """metric_blocks, metric_inverse and curvature return finite values or
    raise NumericalOverflow naming the quantity and (k, mu), with no numpy
    warning on the way."""

    @pytest.mark.parametrize("closed_form, n, k, mu, what", [
        (metric_inverse, 1, 4.0, 1e-310, "metric inverse"),
        (metric_inverse, 2, 1e-310, 1.0, "metric inverse"),
        (curvature, 1, 1e-310, 1.0, "scalar curvature"),
        (curvature, 2, 1e308, 1e308, "Q.-K. Lu matrix of the curvature"),
        (metric_blocks, 2, 4.0, 1e308, "metric"),
    ])
    def test_overflow_names_the_quantity(self, closed_form, n, k, mu, what):
        pt = JacobiBallPoint(z=np.full(n, 3.0), W=0.5 * np.eye(n))
        with pytest.raises(NumericalOverflow) as exc:
            closed_form(MetricParams(n=n, k=k, mu=mu), pt)
        assert str(exc.value) == f"{what} at n={n}, k={k}, mu={mu} leaves the float range"

    def test_finite_past_the_bound(self):
        # h at the origin: mu on the z block, (k/2) hk (entries 1, 2) on the
        # W block; the bound mu + k is past the largest float, and h is not
        h = metric_blocks(MetricParams(n=2, k=1e308, mu=1e308), origin(2)).h
        assert np.array_equal(np.diag(h), [1e308, 1e308, 5e307, 1e308, 5e307])
        h = metric_blocks(MetricParams(n=1, k=1e308, mu=1.0), origin(1)).h
        assert h[1, 1] == 5e307

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bound_just_under_the_largest_float(self, n):
        # weights that put each bound just under the largest float: the
        # closed form skips its isfinite pass, and every entry is finite
        pt = sample_point("jacobi_ball", n, np.random.default_rng(70 + n), radius=0.7)
        params = MetricParams(n=n, k=1.0, mu=1.0)
        metric_blocks(params, pt)
        metric_inverse(params, pt)
        _, _, a, b = vars(pt)["h_terms"]
        _, _, nb, d = vars(pt)["inv_terms"]
        c = (n + 1) * (n + 2) / 2.0
        top = _LARGEST * (1 - 1e-9)
        h = MetricParams(n, k=top / b, mu=0.5 * top / a)
        inv = MetricParams(n, k=2 * d / top, mu=2 * nb / top)
        lu = MetricParams(n, k=top / (c * b), mu=0.5 * top / (c * a))
        for matrix, bound in (
            (metric_blocks(h, pt).h, h.mu * a + 0.5 * h.k * b),
            (metric_inverse(inv, pt).h_inv, d * (1 / inv.k) + nb * (1 / inv.mu)),
            (curvature(lu, pt).qk_lu, c * (lu.mu * a + 0.5 * lu.k * b) + (n + 2) * b),
        ):
            assert 0.25 * _LARGEST < bound < _LARGEST
            assert np.isfinite(matrix).all() and np.max(np.abs(matrix)) > 1e-3 * _LARGEST


def _trace_ds2(M, dX):
    """The reference line element of the ball and upper models,
    4 Tr(M dX Mbar dXbar) with M the point's own Gram inverse."""
    return float(4.0 * np.trace(M @ dX @ M.conj() @ dX.conj()).real)


def _pair_ds2(pt, dX):
    """4 w^T h^k conj(w), with h^k from ball_metric_pair and w the pairs of dX."""
    w = PairIndex(pt.n).pack(dX)
    return 4.0 * float((w @ ball_metric_pair(pt)[0] @ w.conj()).real)


class TestDs2:
    """The line element as the quadratic form of the metric matrices."""

    def test_ball_basis_vector(self):
        pt = sample_point("ball", 2, np.random.default_rng(0), radius=0.0)
        dW = np.zeros((2, 2), dtype=complex)
        dW[0, 0] = 1.0
        assert _trace_ds2(pt.M, dW) == pytest.approx(4.0)
        assert _pair_ds2(pt, dW) == pytest.approx(4.0)

    def test_upper_at_i(self):
        pt = SiegelUpperPoint(V=1j * np.eye(3))
        dV = 1j * np.eye(3)
        assert _trace_ds2(pt.M, dV) == pytest.approx(3.0)
        assert _pair_ds2(pt, dV) == pytest.approx(3.0)

    def test_positive(self, rng):
        params = MetricParams(n=2, k=2, mu=1)
        pt = sample_point("jacobi_ball", 2, rng)
        v = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
        assert (v @ metric_blocks(params, pt).h @ v.conj()).real > 0

    def test_upper_pair_consistency(self, rng):
        # the quadratic form of the folded pair metric reproduces the trace
        # form (the ball's takes the same path, _fold_pair_metric of pt.M)
        pt = sample_point("upper", 2, rng)
        hx, kx = ball_metric_pair(pt)
        assert np.max(np.abs(hx @ kx - np.eye(3))) < 1e-12
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert _pair_ds2(pt, A + A.T) == pytest.approx(_trace_ds2(pt.M, A + A.T), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cayley_pullback_with_fd_differential(self, n):
        # cayley_pullback_ds2's law C^T hk(V) conj(C) = hk(W), with C the FD
        # Jacobian of W -> V in place of the closed form 2i U dW U
        pt = sample_point("ball", n, np.random.default_rng(320 + n))
        C = fd_jacobian(inverse_partial_cayley, pt)
        hk = ball_metric_pair(pt)[0]
        pulled = C.T @ ball_metric_pair(inverse_partial_cayley(pt))[0] @ C.conj()
        assert np.max(np.abs(pulled - hk)) <= 1e-8 * np.max(np.abs(hk))


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


def _closed_forms(params, at):
    """Every closed form that reads a point's Gram data, as arrays; at()
    gives the point object that each one is called at."""
    ev = metric_blocks(params, at())
    h_inv = metric_inverse(params, at()).h_inv
    det = metric_det(params, at())
    cd = curvature(params, at())
    return [
        np.asarray(kahler_potential(params, at())),
        ev.h1, ev.h2, ev.h3, ev.h4, ev.h, h_inv,
        np.array([det.value, det.closed_form, det.constant_C]),
        cd.ric, np.asarray(cd.scalar_curvature), cd.qk_lu,
        laplacian_coefficients("jacobi_ball", params, at()).matrix,
    ]


def _gram_readers(params, at):
    """The kernels and the FC coordinate, which read a point's ln det N and
    eta, as arrays; at() gives the point object for each call."""
    ev = kernel_eval(params, at())
    vol = volume_densities(at())
    return [np.asarray(getattr(ev, f.name)) for f in fields(ev)] + [
        np.array([vol.Q_ball, vol.Q_jacobi]), at().eta,
    ]


def _fresh(pt):
    """The same point as a new object, with nothing computed at it yet."""
    return JacobiBallPoint.assemble(pt.z, pt.W)


def _case(n, seed=40):
    rng = np.random.default_rng(seed + n)
    params = MetricParams(n=n, k=3.0 + n, mu=0.8)
    return params, sample_point("jacobi_ball", n, rng, radius=0.7)


class TestGramCache:
    """N, M, ln det N, eta and the margin (domains) and the metric's
    h_terms and inv_terms are computed once per point and kept on it."""

    def _count(self, monkeypatch, name, module=metric):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_gram_computation_per_point_object(self, monkeypatch):
        # a validated point forms N and its margin once, at construction
        grams = self._count(monkeypatch, "cross_gram", module=domains)
        eigs = self._count(monkeypatch, "eigvalsh", module=np.linalg)
        params, pt = _case(3)
        ball = pt.ball
        field = builtin_field("trWWbar", "ball")

        def every_reader(pt, ball):
            _closed_forms(params, lambda: pt)
            _gram_readers(params, lambda: pt)
            pt.margin()
            apply_laplacian("jacobi_ball", params, field, pt)
            ball_metric_pair(ball)
            volume_densities(ball)
            ball.margin()
            apply_laplacian("ball", None, field, ball)

        for _ in range(2):
            every_reader(pt, ball)
        assert (len(grams), len(eigs)) == (1, 1)  # pt and its ball share them
        every_reader(_fresh(pt), ball)
        assert (len(grams), len(eigs)) == (2, 2)

    def test_upper_gram_pair_inverted_once(self, monkeypatch):
        # the Laplacian coefficients and the pair metric of an upper point
        # both read its one kept M = (2 Im V)^{-1}
        pt = sample_point("upper", 3, np.random.default_rng(8))
        invs = self._count(monkeypatch, "inv", module=np.linalg)
        folded = []
        fold = metric._fold_pair_metric
        monkeypatch.setattr(
            metric, "_fold_pair_metric", lambda M, idx: folded.append(M) or fold(M, idx)
        )
        for _ in range(2):
            laplacian_coefficients("upper", None, pt)
            ball_metric_pair(pt)
        assert len(invs) == 1
        assert len(folded) == 2 and all(M is pt.M for M in folded)

    def test_pair_terms_folded_once_per_point(self, monkeypatch):
        h_calls = self._count(monkeypatch, "_h_terms")
        inv_calls = self._count(monkeypatch, "_inv_terms")
        params, pt = _case(3)
        for _ in range(2):
            for closed_form in (metric_blocks, metric_det, curvature, metric_inverse):
                closed_form(params, pt)
            laplacian_coefficients("jacobi_ball", params, pt)
        assert (len(h_calls), len(inv_calls)) == (1, 1)
        fresh = _fresh(pt)
        metric_blocks(params, fresh)
        metric_inverse(params, fresh)
        assert (len(h_calls), len(inv_calls)) == (2, 2)

    def test_metric_inverse_folds_k_inv_once(self, monkeypatch):
        calls = self._count(monkeypatch, "_pair_metric_inverse")
        params, pt = _case(3)
        for _ in range(2):
            metric_inverse(params, pt)
            laplacian_coefficients("jacobi_ball", params, pt)
        assert len(calls) == 1

    def test_point_data_is_read_only(self):
        params, pt = _case(2)
        stack = pt.at_offset(np.zeros((3, params.dim)))
        for a in (
            pt.N, pt.M, pt.eta, pt.ball.N, pt.ball.M, stack.N, stack.M, stack.eta,
            stack.logdet_N,
        ):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_one_aux_computation_per_point(self, monkeypatch):
        # X = Wbar M is formed in _h_terms, S = eta Nbar and alpha in _inv_terms
        h_calls = self._count(monkeypatch, "_h_terms")
        inv_calls = self._count(monkeypatch, "_inv_terms")
        params, pt = _case(3)
        for _ in range(2):
            _closed_forms(params, lambda: pt)
        assert (len(h_calls), len(inv_calls)) == (1, 1)
        fresh = _fresh(pt)
        _closed_forms(params, lambda: fresh)
        assert (len(h_calls), len(inv_calls)) == (2, 2)

    def test_curvature_folds_hk_once(self, monkeypatch):
        calls = self._count(monkeypatch, "_fold_pair_metric")
        params, pt = _case(3)
        curvature(params, pt)
        assert len(calls) == 1
        metric_blocks(params, pt)
        metric_det(params, pt)
        assert len(calls) == 1

    def test_cached_arrays_are_read_only(self):
        params, pt = _case(2)
        metric_blocks(params, pt)
        metric_inverse(params, pt)
        A, hk, *_ = vars(pt)["h_terms"]
        Nb, D, *_ = vars(pt)["inv_terms"]
        for a in (A, hk, Nb, D):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_each_term_keeps_its_largest_magnitude(self):
        # the bound that decides whether a weighted sum can overflow
        params, pt = _case(3)
        metric_blocks(params, pt)
        metric_inverse(params, pt)
        for key in ("h_terms", "inv_terms"):
            first, second, a, b = vars(pt)[key]
            assert (a, b) == (np.abs(first).max(), np.abs(second).max())
            assert type(a) is float and type(b) is float

    @pytest.mark.parametrize("n", range(1, 9))
    def test_warm_equals_cold(self, n):
        params, pt = _case(n)
        cold = _closed_forms(params, lambda: _fresh(pt))
        cold += _gram_readers(params, lambda: _fresh(pt))
        for _ in range(2):
            warm = _closed_forms(params, lambda: pt)
            warm += _gram_readers(params, lambda: pt)
            assert all(np.array_equal(a, b) for a, b in zip(warm, cold, strict=True))

    def test_warm_equals_cold_stacked(self):
        params, pt = _case(3)
        offsets = 1e-3 * np.random.default_rng(8).standard_normal((4, params.dim))
        stack = pt.at_offset(offsets)
        cold = [
            kahler_potential(params, pt.at_offset(offsets)),
            metric_det(params, pt.at_offset(offsets)).value,
            metric_blocks(params, pt.at_offset(offsets)).h,
            pt.at_offset(offsets).eta,
        ]
        for _ in range(2):
            warm = [
                kahler_potential(params, stack),
                metric_det(params, stack).value,
                metric_blocks(params, stack).h,
                stack.eta,
            ]
            assert all(np.array_equal(a, b) for a, b in zip(warm, cold))

    def test_stacked_point_has_its_own_cache(self, monkeypatch):
        params, pt = _case(2)
        _closed_forms(params, lambda: pt)
        calls = self._count(monkeypatch, "_fold_pair_metric")
        stack = pt.at_offset(np.zeros((3, params.dim)))
        det = metric_det(params, stack).value
        assert len(calls) == 1
        d = params.dim
        assert vars(stack)["h_terms"][0].shape == (3, d, d)
        assert vars(stack)["h_terms"][1].shape == (3, 3, 3)
        assert vars(pt)["h_terms"][0].shape == (d, d)
        assert np.array_equal(det, np.full(3, metric_det(params, pt).value))

    def test_mutating_results_leaves_the_cache_intact(self):
        params, pt = _case(3)
        reference = _closed_forms(params, lambda: _fresh(pt))
        for a in _closed_forms(params, lambda: pt):
            if a.ndim:
                a[...] = 7.0
        for a, b in zip(_closed_forms(params, lambda: pt), reference):
            assert np.array_equal(a, b)

    def test_dimension_mismatch_on_warm_point(self):
        params, pt = _case(2)
        _closed_forms(params, lambda: pt)
        wrong = MetricParams(n=3, k=params.k, mu=params.mu)
        for closed_form in (
            kahler_potential, metric_blocks, metric_inverse, metric_det, curvature,
        ):
            with pytest.raises(DimensionMismatch):
                closed_form(wrong, pt)
        with pytest.raises(DimensionMismatch):
            laplacian_coefficients("jacobi_ball", wrong, pt)
