import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel_jacobi
from siegel_jacobi import groups
from siegel_jacobi.domains import (
    JacobiBallPoint,
    SiegelUpperPoint,
    flatten_point,
    sample_point,
)
from siegel_jacobi.errors import DimensionMismatch, InvalidInput, NotInBall, SingularDenominator
from siegel_jacobi.groups import (
    JacobiElementC,
    JacobiElementR,
    SymplecticC,
    SymplecticR,
    _solve,
    act_ball,
    act_upper,
    cayley_conjugate,
    compose_jacobi_c,
    compose_jacobi_r,
    inverse_cayley_conjugate,
    inverse_fc_transform,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
    random_symplectic_r,
    theta,
)


def element_close(a, b, tol):
    if isinstance(a, JacobiElementC):
        return (
            np.max(np.abs(a.g.p - b.g.p)) < tol
            and np.max(np.abs(a.g.q - b.g.q)) < tol
            and np.max(np.abs(a.alpha - b.alpha)) < tol
            and abs(a.t - b.t) < tol
        )
    return (
        np.max(np.abs(a.g.matrix() - b.g.matrix())) < tol
        and np.max(np.abs(a.lambda_mu - b.lambda_mu)) < tol
        and abs(a.k_center - b.k_center) < tol
    )


class TestConstructors:
    def test_symplectic_c_rejects_garbage(self):
        with pytest.raises(InvalidInput):
            SymplecticC(np.eye(2) * 2.0, np.zeros((2, 2)))

    def test_symplectic_r_rejects_garbage(self):
        with pytest.raises(InvalidInput):
            SymplecticR(np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    def test_dimension_mismatch(self, rng):
        h1 = random_jacobi_c(1, rng)
        h2 = random_jacobi_c(2, rng)
        with pytest.raises(DimensionMismatch):
            compose_jacobi_c(h1, h2)

    def test_random_elements_satisfy_relations(self, rng):
        for n in (1, 2, 3):
            g = random_symplectic_r(n, rng)  # constructor asserts g^t J g = J
            gc = cayley_conjugate(g)
            assert gc.n == n


def _expm_element(norm: float, seed: int = 1, n: int = 2) -> np.ndarray:
    """exp of a seeded sp(n, R) element scaled to Frobenius norm `norm`."""
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
    X = np.block([[a, b + b.T], [c + c.T, -a.T]])
    return expm(X * (norm / np.linalg.norm(X)))


def _moved_largest_entry(G: np.ndarray, rel: float) -> np.ndarray:
    """G with its largest entry moved by rel max |G| (along itself)."""
    G = G.copy()
    G[np.unravel_index(np.argmax(np.abs(G)), G.shape)] *= 1.0 + rel
    return G


class TestSizeScaledCheck:
    # the identity's defect is held to a bound times max(1, max |G|)^2, the
    # growth of the rounding of a product, so products of valid elements pass

    def test_products_of_large_valid_elements_accepted(self):
        g = SymplecticR.from_matrix(_expm_element(8.0))
        assert 50 < np.max(np.abs(g.matrix())) < 60
        h = JacobiElementR(g, np.zeros(4))
        compose_jacobi_r(h, h)
        compose_jacobi_c(theta(h), theta(h))

    @pytest.mark.parametrize("norm", [0.5, 8.0])
    def test_moved_entry_rejected_real(self, norm):
        # scaled defects ~6.9e-9 (norm 0.5) and ~1.5e-9 (norm 8)
        G = _moved_largest_entry(_expm_element(norm), 1e-8)
        with pytest.raises(InvalidInput):
            SymplecticR.from_matrix(G)

    @pytest.mark.parametrize("norm", [0.5, 8.0])
    def test_moved_entry_rejected_complex(self, norm):
        g = cayley_conjugate(SymplecticR.from_matrix(_expm_element(norm)))
        n = g.n
        pq = _moved_largest_entry(np.hstack([g.p, g.q]), 1e-8)
        with pytest.raises(InvalidInput):
            SymplecticC(pq[:, :n], pq[:, n:])

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("norm", [0.5, 8.0])
    def test_cayley_image_of_an_element_near_the_real_bound(self, norm, seed):
        # a real element 0.9 of the way to its bound has a Cayley image that
        # passes the complex check, which is at most 8 times looser
        from siegel_jacobi.groups import _forms

        G0 = _expm_element(norm, seed)
        J, size2 = _forms(2)[0], max(1.0, np.max(np.abs(G0))) ** 2

        def scaled_defect(G):
            return np.max(np.abs(G.T @ J @ G - J)) / size2

        rel = 1e-8 * 0.9e-10 / scaled_defect(_moved_largest_entry(G0, 1e-8))
        g = SymplecticR.from_matrix(_moved_largest_entry(G0, rel))
        assert 0.8e-10 < scaled_defect(g.matrix()) <= 1e-10
        gc = cayley_conjugate(g)
        assert np.max(np.abs(inverse_cayley_conjugate(gc).matrix() - g.matrix())) < 1e-12

    def _pinned(self, build, defect_of, bound):
        """build accepts the element moved to 0.05% under bound and refuses
        the one moved to 0.05% over it; defect_of(rel) is (the scaled defect,
        build's argument) of the element with its largest entry moved by rel,
        a defect linear in rel to the precision needed here."""
        for factor, accepted in ((1 - 5e-4, True), (1 + 5e-4, False)):
            rel = 1e-8
            for _ in range(3):
                rel *= factor * bound / defect_of(rel)[0]
            defect, G = defect_of(rel)
            assert abs(defect / (factor * bound) - 1) < 1e-4
            if accepted:
                build(G)
            else:
                with pytest.raises(InvalidInput, match="relations violated"):
                    build(G)

    def test_real_bound_pinned(self):
        # _REAL_BOUND: max |G^t J G - J| <= 1e-10 max(1, max |G|)^2
        G0 = _expm_element(0.5)
        J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

        def defect_of(rel):
            G = _moved_largest_entry(G0, rel)
            return np.max(np.abs(G.T @ J @ G - J)) / max(1.0, np.max(np.abs(G))) ** 2, G

        self._pinned(SymplecticR.from_matrix, defect_of, 1e-10)

    def test_complex_bound_pinned(self):
        # _COMPLEX_BOUND: max |G^* K G - K| <= 1e-9 max(1, max |G|)^2 for
        # G = [[p, q], [qbar, pbar]]
        g = cayley_conjugate(SymplecticR.from_matrix(_expm_element(0.5)))
        pq0, K = np.hstack([g.p, g.q]), np.diag([1.0, 1.0, -1.0, -1.0])

        def defect_of(rel):
            pq = _moved_largest_entry(pq0, rel)
            G = np.block([[pq], [pq.conj()[:, [2, 3, 0, 1]]]])
            return np.max(np.abs(G.conj().T @ K @ G - K)) / max(1.0, np.max(np.abs(G))) ** 2, pq

        self._pinned(lambda pq: SymplecticC(pq[:, :2], pq[:, 2:]), defect_of, 1e-9)


class TestErrorPaths:
    def test_singular_denominator_surfaces(self):
        from siegel_jacobi.errors import SingularDenominator
        from siegel_jacobi.groups import _solve

        with pytest.raises(SingularDenominator):
            _solve(np.zeros((2, 2)), np.eye(2))

    def test_boundary_point_singular_transform(self):
        # (1 - W)^{-1} blows up on the boundary, excluded by the invariant;
        # a trusted boundary container must surface SingularDenominator
        from siegel_jacobi.errors import SingularDenominator

        boundary = JacobiBallPoint.assemble(np.zeros(1), np.eye(1, dtype=complex))
        with pytest.raises(SingularDenominator):
            inverse_partial_cayley(boundary)

    def test_degenerate_sample_rejected(self):
        # an all-zero draw has no direction to scale to radius/2, and the
        # sampler refuses it
        from siegel_jacobi.domains import sample_point

        class ZeroRng:
            def standard_normal(self, shape=None):
                return np.zeros(shape) if shape is not None else 0.0

        with pytest.raises(InvalidInput), np.errstate(invalid="ignore"):
            sample_point("ball", 2, ZeroRng(), radius=0.4)


class TestComposition:
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_absorption_complex(self, rng, n):
        h = random_jacobi_c(n, rng)
        e = JacobiElementC.identity(n)
        assert element_close(compose_jacobi_c(h, e), h, 1e-14)
        assert element_close(compose_jacobi_c(e, h), h, 1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_absorption_real(self, rng, n):
        h = random_jacobi_r(n, rng)
        e = JacobiElementR.identity(n)
        assert element_close(compose_jacobi_r(h, e), h, 1e-14)
        assert element_close(compose_jacobi_r(e, h), h, 1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        a, b, c = (random_jacobi_c(n, rng) for _ in range(3))
        lhs = compose_jacobi_c(compose_jacobi_c(a, b), c)
        rhs = compose_jacobi_c(a, compose_jacobi_c(b, c))
        assert element_close(lhs, rhs, 1e-10)
        ar, br, cr = (random_jacobi_r(n, rng) for _ in range(3))
        lhs = compose_jacobi_r(compose_jacobi_r(ar, br), cr)
        rhs = compose_jacobi_r(ar, compose_jacobi_r(br, cr))
        assert element_close(lhs, rhs, 1e-10)


class TestCayleyConjugation:
    def test_identity_maps_to_identity(self):
        gc = cayley_conjugate(SymplecticR.identity(2))
        assert np.allclose(gc.p, np.eye(2)) and np.allclose(gc.q, 0)

    def test_rotation_becomes_phase(self):
        th = 0.7
        g = SymplecticR(
            np.array([[np.cos(th)]]),
            np.array([[-np.sin(th)]]),
            np.array([[np.sin(th)]]),
            np.array([[np.cos(th)]]),
        )
        gc = cayley_conjugate(g)
        assert gc.p[0, 0] == pytest.approx(np.exp(-1j * th))
        assert abs(gc.q[0, 0]) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_and_relations(self, rng, n):
        g = random_symplectic_r(n, rng)
        gc = cayley_conjugate(g)  # constructor checks pp* - qq* = 1 etc.
        back = inverse_cayley_conjugate(gc)
        assert np.max(np.abs(back.matrix() - g.matrix())) < 1e-12

    def test_random_jacobi_c_satisfies_relations(self):
        # the constructor checks the one identity G^* K G = K; here both
        # pairs of block relations are measured as its reference
        rng = np.random.default_rng(1417)
        worst = 0.0
        for i in range(200):
            n = 1 + i % 4
            g = random_jacobi_c(n, rng).g
            p, q, eye = g.p, g.q, np.eye(n)
            worst = max(
                worst,
                np.max(np.abs(p @ p.conj().T - q @ q.conj().T - eye)),
                np.max(np.abs(p @ q.T - q @ p.T)),
                np.max(np.abs(p.conj().T @ p - q.T @ q.conj() - eye)),
                np.max(np.abs(p.T @ q.conj() - q.conj().T @ p)),
            )
        assert worst < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_jacobi_c_is_theta_of_random_jacobi_r(self, n):
        for seed in range(10):
            h = random_jacobi_c(n, np.random.default_rng(seed))
            ref = theta(random_jacobi_r(n, np.random.default_rng(seed)))
            assert np.array_equal(h.g.p, ref.g.p) and np.array_equal(h.g.q, ref.g.q)
            assert np.array_equal(h.alpha, ref.alpha) and h.t == ref.t


class TestBallAction:
    def test_identity(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        out = act_ball(JacobiElementC.identity(2), pt)
        assert np.allclose(out.z, pt.z) and np.allclose(out.W, pt.W)

    def test_pure_translation(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h = JacobiElementC(SymplecticC.identity(2), alpha)
        out = act_ball(h, pt)
        assert np.allclose(out.W, pt.W)
        assert np.allclose(out.z, pt.z + alpha - pt.W @ alpha.conj())

    def test_origin_image(self, rng):
        n = 2
        h = random_jacobi_c(n, rng)
        origin = JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
        out = act_ball(h, origin)
        g = h.g
        assert np.allclose(out.W, g.q @ np.linalg.inv(g.p.conj()))
        assert np.allclose(out.z, np.linalg.solve(g.p.conj().T, h.alpha))

    def test_two_closed_forms_of_moved_w_agree(self, rng):
        # (pW + q)(qbar W + pbar)^{-1} = (W q* + p*)^{-1}(q^t + W p^t)
        pt = sample_point("jacobi_ball", 3, rng)
        g = random_jacobi_c(3, rng).g
        lhs = act_ball(JacobiElementC(g, np.zeros(3)), pt).W
        rhs = np.linalg.solve(pt.W @ g.q.conj().T + g.p.conj().T, g.q.T + pt.W @ g.p.T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_action_preserves_domain(self, rng):
        for _ in range(20):
            pt = sample_point("jacobi_ball", 2, rng)
            h = random_jacobi_c(2, rng)
            moved = act_ball(h, pt)  # constructor validates membership
            assert np.linalg.eigvalsh(moved.N)[0] > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_siegel_ball_point(self, n, monkeypatch):
        # a Siegel-ball point maps to the W part of its Jacobi-ball image,
        # as a read-only point whose margin is checked once when single
        from siegel_jacobi import domains

        rng = np.random.default_rng(40 + n)
        ball = sample_point("ball", n, rng)
        h = random_jacobi_c(n, rng)
        stack = ball.at_offset(np.zeros((3, flatten_point(ball).shape[0]), dtype=complex))
        reference = act_ball(h, JacobiBallPoint.from_ball(ball)).W
        calls = []
        check = domains._BallPart._check_margin
        monkeypatch.setattr(
            domains._BallPart, "_check_margin", lambda self: calls.append(1) or check(self)
        )
        image = act_ball(h, ball)
        assert type(image) is domains.SiegelBallPoint
        assert not image.W.flags.writeable
        assert np.max(np.abs(image.W - reference)) < 1e-14
        assert len(calls) == 1
        calls.clear()
        stacked = act_ball(h, stack)
        assert type(stacked) is domains.SiegelBallPoint and stacked.W.shape == (3, n, n)
        assert calls == []


class TestUpperAction:
    def test_identity(self, rng):
        pt = sample_point("jacobi_upper", 2, rng)
        out = act_upper(JacobiElementR.identity(2), pt)
        assert np.allclose(out.V, pt.V) and np.allclose(out.u, pt.u)

    def test_inversion_fixes_i(self):
        g = SymplecticR(
            np.array([[0.0]]), np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]])
        )
        h = JacobiElementR(g, np.zeros(2))
        pt = SiegelUpperPoint(V=np.array([[1j]]), u=np.array([0.0]))
        out = act_upper(h, pt)
        assert out.V[0, 0] == pytest.approx(1j)

    def test_imaginary_part_stays_positive(self, rng):
        for _ in range(20):
            pt = sample_point("jacobi_upper", 2, rng)
            h = random_jacobi_r(2, rng)
            out = act_upper(h, pt)
            assert np.linalg.eigvalsh(out.R)[0] > 0


class TestPartialCayley:
    def test_i_identity_maps_to_origin(self, rng):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pt = SiegelUpperPoint(V=1j * np.eye(3), u=u)
        out = partial_cayley(pt)
        assert np.allclose(out.W, 0)
        assert np.allclose(out.z, u)

    def test_scalar_example(self):
        pt = SiegelUpperPoint(V=np.array([[2j]]), u=np.array([0.0]))
        out = partial_cayley(pt)
        assert out.W[0, 0] == pytest.approx(1 / 3)
        assert abs(out.z[0]) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip(self, rng, n):
        pt = sample_point("jacobi_ball", n, rng)
        back = partial_cayley(inverse_partial_cayley(pt))
        assert np.max(np.abs(back.z - pt.z)) < 1e-12
        assert np.max(np.abs(back.W - pt.W)) < 1e-12


class TestTheta:
    def test_identity(self):
        img = theta(JacobiElementR.identity(2))
        assert element_close(img, JacobiElementC.identity(2), 1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_homomorphism(self, rng, n):
        for _ in range(10):
            h1, h2 = random_jacobi_r(n, rng), random_jacobi_r(n, rng)
            lhs = theta(compose_jacobi_r(h1, h2))
            rhs = compose_jacobi_c(theta(h1), theta(h2))
            assert element_close(lhs, rhs, 1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_equivariance(self, rng, n):
        for _ in range(10):
            h = random_jacobi_r(n, rng)
            pt = sample_point("jacobi_upper", n, rng)
            lhs = partial_cayley(act_upper(h, pt))
            rhs = act_ball(theta(h), partial_cayley(pt))
            assert np.max(np.abs(lhs.z - rhs.z)) < 1e-10
            assert np.max(np.abs(lhs.W - rhs.W)) < 1e-10


class TestFcTransform:
    """A point's FC coordinate eta and its inverse."""

    def test_w_zero(self, rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(JacobiBallPoint(z=z, W=np.zeros((2, 2))).eta, z)

    def test_z_zero(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        assert np.allclose(JacobiBallPoint(z=np.zeros(2), W=pt.W).eta, 0)

    def test_scalar_example(self):
        assert JacobiBallPoint(z=[1.0], W=[[0.5]]).eta[0] == pytest.approx(2.0)

    def test_roundtrip(self, rng):
        pt = sample_point("jacobi_ball", 3, rng)
        back = inverse_fc_transform(pt.eta, pt.W)
        assert np.max(np.abs(back.z - pt.z)) < 1e-12


class TestLazyExpm:
    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        src = os.path.dirname(os.path.dirname(siegel_jacobi.__file__))
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        code = "import sys, siegel_jacobi.cli; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_seeded_element_unchanged(self):
        # random_jacobi_r(2, default_rng(7)) as computed with expm imported at module level
        h = random_jacobi_r(2, np.random.default_rng(7))
        g = h.g
        assert np.array_equal(g.a, [[1.0205128236100147, 0.09969210842220515],
                                    [-0.0908923572065964, 0.7059082676076753]])
        assert np.array_equal(g.b, [[-0.20655096360149455, -0.24147406855102285],
                                    [-0.21122502217868783, 0.6407047395582812]])
        assert np.array_equal(g.c, [[-0.22813438224989904, -0.027104222579185367],
                                    [-0.029063182492718945, 0.17161983843367457]])
        assert np.array_equal(g.d, [[1.015449172607847, 0.174411408186213],
                                    [-0.1868291900700805, 1.5570226617372318]])
        assert np.array_equal(h.lambda_mu, [0.10541424899789856, -0.9304680447082047,
                                            -0.02925182246327349, 0.6953031944582878])
        assert h.k_center == -1.344214547285082


# --------------------------------------------------------------------------
# stacked maps: a point whose arrays carry a leading axis is mapped in one
# call, and every image equals the single-point image to the last bit


def _parts(pt):
    """The arrays of a point."""
    return (pt.matrix,) if pt.vector is None else (pt.matrix, pt.vector)


def _map_cases(n):
    """(name, map, base point) for every map that broadcasts."""
    rng = np.random.default_rng(900 + n)
    h = random_jacobi_c(n, rng)
    hr = random_jacobi_r(n, rng)
    jb = sample_point("jacobi_ball", n, rng)
    ju = sample_point("jacobi_upper", n, rng)
    return [
        ("act_ball_z", lambda q: act_ball(h, q), jb),
        ("act_ball", lambda q: act_ball(h, q), jb.ball),
        ("act_upper_u", lambda q: act_upper(hr, q), ju),
        ("act_upper", lambda q: act_upper(hr, q), SiegelUpperPoint(V=ju.V)),
        ("partial_cayley_u", partial_cayley, ju),
        ("partial_cayley", partial_cayley, SiegelUpperPoint(V=ju.V)),
        ("inverse_partial_cayley_z", inverse_partial_cayley, jb),
        ("inverse_partial_cayley", inverse_partial_cayley, jb.ball),
    ]


def _stacked_matches_per_point(map_fn, pt, count=7):
    d = flatten_point(pt).shape[0]
    offsets = 1e-2 * np.random.default_rng(count).standard_normal((count, d, 2)) @ [1, 1j]
    stacked = _parts(map_fn(pt.at_offset(offsets)))
    per_point = [_parts(map_fn(pt.at_offset(o))) for o in offsets]
    return all(
        a.shape[0] == count and np.array_equal(a, [p[i] for p in per_point])
        for i, a in enumerate(stacked)
    ) and len(stacked) == len(per_point[0])


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_map_matches_per_point(n, case):
    name, map_fn, pt = _map_cases(n)[case]
    assert _stacked_matches_per_point(map_fn, pt), name


def test_stacked_images_are_trusted_stacks(monkeypatch):
    # a validated image would check its margin: one eigendecomposition
    cases = _map_cases(2)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    for name, map_fn, pt in cases:
        image = map_fn(pt.at_offset(np.zeros((4, flatten_point(pt).shape[0]), dtype=complex)))
        assert all(a.shape[0] == 4 for a in _parts(image)), name
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_solve_per_map(n, monkeypatch):
    # each map factorises its denominator once, single or stacked: the
    # vector part (z or u) rides as one more column of that solve
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    for name, map_fn, pt in _map_cases(n):
        stack = pt.at_offset(np.zeros((3, flatten_point(pt).shape[0]), dtype=complex))
        for q in (pt, stack):
            calls.clear()
            map_fn(q)
            assert len(calls) == 1, name


def test_single_images_are_not_revalidated(monkeypatch):
    # a single image is checked for its margin only: no validating
    # constructor runs
    from siegel_jacobi import domains

    cases = _map_cases(2)
    calls = []
    for cls in (domains.SiegelBallPoint, domains.SiegelUpperPoint,
                domains.JacobiBallPoint, domains.TangentVector):
        post_init = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__",
            lambda self, f=post_init: calls.append(type(self).__name__) or f(self),
        )
    for name, map_fn, pt in cases:
        image = map_fn(pt)
        assert calls == [], name
        assert not any(a.flags.writeable for a in _parts(image)), name


def test_image_within_rounding_of_the_boundary_is_refused():
    # W = (V - i)/(V + i) has margin 1 - |W|^2 = 3.7e-13 here, below the
    # ball's 1e-10: the image's margin check refuses it
    with pytest.raises(NotInBall, match="eigenvalue"):
        partial_cayley(SiegelUpperPoint(V=[[0.3 + 1e-13j]], u=[0.1]))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_solve_matches_per_point(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    B = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    per_point = [_solve(a, x) for a, x in zip(A, B)]
    assert np.array_equal(np.linalg.solve(A, B), per_point)
    assert np.array_equal(_solve(A, B), per_point)


@pytest.mark.parametrize("bad", ["singular", "nan"])
def test_one_bad_matrix_fails_the_stack(bad):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    if bad == "singular":
        A[2] = np.outer([1.0, 2.0, 3.0], [1.0, 1j, -1.0])  # rank one
    else:
        A[2, 0, 1] = np.nan
    B = rng.standard_normal((5, 3, 3)) + 0j
    b = rng.standard_normal((5, 3)) + 0j
    for args in ((A[2], B[2]), (A[2], b[2]), (A, B)):
        with pytest.raises(SingularDenominator):
            _solve(*args)


def test_singular_slice_in_stacked_map():
    # V = -i makes V + i singular: the single point and a stack holding it
    # fail with the same error
    V = np.stack([1j * np.eye(2), -1j * np.eye(2), 2j * np.eye(2)])
    with pytest.raises(SingularDenominator):
        partial_cayley(SiegelUpperPoint.assemble(None, V[1]))
    with pytest.raises(SingularDenominator):
        partial_cayley(SiegelUpperPoint.assemble(None, V))


def test_stacked_identity_catches_transposed_denominator(monkeypatch):
    # negative control: a den transposed only over a stack leaves every
    # single-point image intact but must fail the check of both maps that
    # divide by qbar W + pbar
    original = groups._right_divide

    def transposed(num, den, v=None):
        if den.ndim == 2:
            return original(num, den, v)
        return original(num, den.swapaxes(-1, -2), v)

    cases = [c for c in _map_cases(2) if c[0] in ("act_ball_z", "act_ball")]
    for name, map_fn, pt in cases:
        assert _stacked_matches_per_point(map_fn, pt), name
    monkeypatch.setattr(groups, "_right_divide", transposed)
    for name, map_fn, pt in cases:
        assert not _stacked_matches_per_point(map_fn, pt), name

