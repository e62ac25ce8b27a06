import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_jacobi.domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
    TangentVector,
    flatten_point,
    sample_point,
)
from siegel_jacobi.errors import NonSymmetric, NotInBall, NotInUpperHalfPlane


class TestValidate:
    def test_zero_matrix_accepted(self):
        assert SiegelBallPoint(np.zeros((3, 3))).margin() == pytest.approx(1.0)

    def test_scalar_interior(self):
        assert SiegelBallPoint(np.array([[0.5]])).margin() == pytest.approx(0.75)

    def test_scalar_outside(self):
        with pytest.raises(NotInBall, match="eigenvalue"):
            SiegelBallPoint(np.array([[1.2]]))

    def test_non_symmetric(self):
        W = np.array([[0.0, 0.1], [0.3, 0.0]])
        with pytest.raises(NonSymmetric):
            SiegelBallPoint(W)

    def test_boundary_rejected(self):
        with pytest.raises(NotInBall):
            SiegelBallPoint(np.array([[1.0]]))


class TestPairIndex:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_bijection(self, n):
        idx = PairIndex(n)
        assert idx.size == n * (n + 1) // 2
        assert idx.total_dim == n * (n + 3) // 2
        assert np.all(idx.P <= idx.Q)
        assert idx.P.shape == idx.Q.shape == (idx.size,)
        # pair i -> (P[i], Q[i]) is a bijection onto {(p, q): p <= q < n}
        pairs = set(zip(idx.P.tolist(), idx.Q.tolist()))
        assert len(pairs) == idx.size
        assert pairs == {(p, q) for p in range(n) for q in range(p, n)}

    def test_lexicographic_order(self):
        assert PairIndex(3).pairs == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def test_pack_unpack(self, rng):
        idx = PairIndex(3)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        S = A + A.T
        assert np.allclose(idx.unpack(idx.pack(S)), S)

    def test_pack_over_a_stack_is_c_ordered(self, rng):
        # each row must be laid out as a single point's pair vector
        idx = PairIndex(3)
        A = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        S = A + A.swapaxes(-1, -2)
        packed = idx.pack(S)
        assert packed.flags.c_contiguous
        assert np.array_equal(packed, [idx.pack(s) for s in S])


class TestSampling:
    def test_radius_zero_is_origin(self, rng):
        pt = sample_point("ball", 2, rng, radius=0.0)
        assert np.allclose(pt.W, 0)

    def test_reproducible(self):
        a = sample_point("jacobi_ball", 2, np.random.default_rng(5))
        b = sample_point("jacobi_ball", 2, np.random.default_rng(5))
        assert np.array_equal(a.W, b.W) and np.array_equal(a.z, b.z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_thousand_samples_valid(self, n):
        # every sampled point passes validation with a comfortable margin
        rng = np.random.default_rng(1000 + n)
        for _ in range(1000 // 3 + 1):
            pt = sample_point("ball", n, rng)
            assert SiegelBallPoint(pt.W).margin() > 1e-3

    @pytest.mark.parametrize("domain", ["ball", "jacobi_ball", "upper", "jacobi_upper"])
    def test_one_eigendecomposition_per_sample(self, domain, monkeypatch):
        # each sample's margin is checked once, as a map's image: the
        # sampler's for the ball domains, inverse_partial_cayley's for the
        # upper ones
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
        sample_point(domain, 2, np.random.default_rng(5))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inflated_samples_rejected(self, n):
        # scaling any sample past unit spectral norm must fail validation
        rng = np.random.default_rng(2000 + n)
        for _ in range(20):
            pt = sample_point("ball", n, rng)
            W = pt.W * (1.0001 / np.linalg.norm(pt.W, 2))
            with pytest.raises(NotInBall):
                SiegelBallPoint(W)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
    def test_upper_samples_have_positive_imaginary_part(self, seed, n):
        pt = sample_point("jacobi_upper", n, np.random.default_rng(seed))
        assert np.linalg.eigvalsh(pt.R)[0] > 0
        assert pt.u is not None

    def test_domain_membership_failure_detected(self, rng):
        # points violating the bound must be rejected by the constructor
        with pytest.raises(NotInBall):
            SiegelBallPoint(1.00001 * np.eye(2))

    def test_unknown_domain(self, rng):
        with pytest.raises(ValueError):
            sample_point("disc", 1, rng)

    def test_bad_radius(self, rng):
        with pytest.raises(ValueError):
            sample_point("ball", 1, rng, radius=1.0)


class TestTypes:
    def test_points_are_immutable(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        with pytest.raises(ValueError):
            pt.W[0, 0] = 0.9

    def test_symmetrized_storage(self):
        W = np.array([[0.1, 0.2 + 1e-12], [0.2, 0.3]], dtype=complex)
        pt = SiegelBallPoint(W)
        assert np.array_equal(pt.W, pt.W.T)

    def test_upper_requires_positive_part(self):
        with pytest.raises(Exception):
            SiegelUpperPoint(V=np.array([[1.0 - 1j]]))

    def test_tangent_flatten_order(self):
        tv = TangentVector(dz=np.array([1.0, 2.0]), dW=np.array([[3.0, 4.0], [4.0, 5.0]]))
        assert np.allclose(flatten_point(tv), [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("kind", ["ball", "jacobi_ball", "upper", "jacobi_upper", "tangent"])
    def test_chart_round_trip(self, kind, rng):
        # from_chart reads a vector part exactly when the point has one
        if kind == "tangent":
            pt = TangentVector(dz=None, dW=np.array([[0.3, 0.1j], [0.1j, 0.0]]))
        else:
            pt = sample_point(kind, 2, rng)
        back = type(pt).from_chart(flatten_point(pt), 2)
        assert (back.vector is None) == (pt.vector is None)
        assert np.array_equal(flatten_point(back), flatten_point(pt))

    def test_tangent_requires_symmetry(self):
        with pytest.raises(NonSymmetric):
            TangentVector(dz=np.zeros(2), dW=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_jacobi_point_shape_check(self):
        with pytest.raises(ValueError):
            JacobiBallPoint(z=np.zeros(3), W=np.zeros((2, 2)))

    def test_ball_part_is_not_revalidated(self, monkeypatch, rng):
        # the constructor validated and symmetrised W at tol 1e-10 already,
        # and the ball part shares the margin it kept
        pt = sample_point("jacobi_ball", 3, rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
        ball = pt.ball
        assert ball.margin() == pt.margin()
        assert calls == []
        assert isinstance(ball, SiegelBallPoint) and ball.W is pt.W
        JacobiBallPoint(z=pt.z, W=pt.W)
        assert calls == [1]

    def test_image_with_a_nan_matrix_part_fails_its_margin(self):
        # an image is checked for its margin only, and eigvalsh of a NaN
        # matrix returns NaN eigenvalues, which no margin check may pass
        nan = np.full((2, 2), complex(np.nan, np.nan))
        with pytest.raises(NotInBall):
            JacobiBallPoint.image(np.zeros(2, dtype=complex), nan)
        with pytest.raises(NotInUpperHalfPlane):
            SiegelUpperPoint.image(None, nan)

    def test_image_is_read_only_and_checks_only_its_margin(self, monkeypatch):
        # one eigendecomposition (the margin), no symmetry or finiteness
        # check: a map's image is exactly symmetric and finite already
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
        W = np.array([[0.1, 0.2j], [0.2j, -0.3]])
        pt = JacobiBallPoint.image(np.array([0.5, 1j]), W)
        assert calls == [1] and pt.W is W
        assert not (pt.W.flags.writeable or pt.z.flags.writeable)
        with pytest.raises(NotInBall):
            SiegelBallPoint.image(None, np.array([[1.0 + 0j]]))

    def test_jacobi_point_over_a_ball_point_shares_its_store(self, rng):
        ball = sample_point("ball", 3, rng)
        pt = JacobiBallPoint.from_ball(ball)
        assert pt.ball is ball and pt.W is ball.W
        assert np.array_equal(pt.z, np.zeros(3)) and not pt.z.flags.writeable
        assert pt.N is ball.N and pt.margin() == ball.margin()
        fresh = JacobiBallPoint(z=np.zeros(3), W=ball.W)
        assert np.array_equal(pt.eta, fresh.eta)
