"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test appends a [PASS]/[FAIL] line to the registry that conftest prints
in the terminal summary, so the per-criterion outcome is visible in any
pytest run.  All sampling is seeded; reruns are bit-identical.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from siegel_jacobi.domains import JacobiBallPoint, PairIndex, sample_point
from siegel_jacobi.groups import (
    act_ball,
    act_upper,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
    theta,
)
from siegel_jacobi.kernels import (
    epsilon_function,
    normalized_kernels,
    parseval_check_n1,
    two_point_kernel,
    volume_densities,
)
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
from siegel_jacobi.oracle import fd_jacobian, fd_wirtinger_hessian

SEED = 20160627
K_WEIGHT = 2.0
MU_WEIGHT = 1.0

_RICCI_STEP = 2e-3


def _record(index, name, passed, detail, budget, elapsed):
    flag = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(
        f"[{flag}] criterion {index:2d} ({name}): {detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    print(ACCEPTANCE_LINES[-1])


def _params(n):
    return MetricParams(n=n, k=K_WEIGHT, mu=MU_WEIGHT)


def _points(n, count, seed_offset=0, radius=0.4):
    rng = np.random.default_rng(SEED + seed_offset + n)
    return [sample_point("jacobi_ball", n, rng, radius) for _ in range(count)]


def test_criterion_01_balanced_metric_oracle_match():
    """fd Hessian of the potential vs the closed-form blocks, rel <= 1e-6."""
    budget, t0 = 60.0, time.time()
    worst = 0.0
    passed = False
    try:
        for n in (1, 2, 3):
            params = _params(n)
            for pt in _points(n, 100):
                ev = metric_blocks(params, pt)
                H = fd_wirtinger_hessian(lambda q: kahler_potential(params, q), pt)
                worst = max(worst, np.max(np.abs(H - ev.h)) / np.max(np.abs(ev.h)))
        elapsed = time.time() - t0
        passed = worst <= 1e-6 and elapsed <= budget
        assert worst <= 1e-6
        assert elapsed <= budget
    finally:
        _record(
            1, "balanced-metric oracle match", passed,
            f"max rel err {worst:.2e} over 300 points, tol 1e-6",
            budget, time.time() - t0,
        )


def test_criterion_02_closed_form_inverse():
    """h @ h_inv = identity and the pair-block identity, both <= 1e-10."""
    budget, t0 = 10.0, time.time()
    worst_full = worst_pair = 0.0
    passed = False
    try:
        for n in (1, 2, 3):
            params = _params(n)
            eye_d = np.eye(params.dim)
            eye_m = np.eye(params.pair_index.size)
            for pt in _points(n, 100):
                ev = metric_blocks(params, pt)
                inv = metric_inverse(params, pt)
                worst_full = max(worst_full, np.max(np.abs(ev.h @ inv.h_inv - eye_d)))
                hk, kinv = ball_metric_pair(pt.ball)
                worst_pair = max(worst_pair, np.max(np.abs(hk @ kinv - eye_m)))
        elapsed = time.time() - t0
        passed = worst_full <= 1e-10 and worst_pair <= 1e-10 and elapsed <= budget
        assert worst_full <= 1e-10
        assert worst_pair <= 1e-10
        assert elapsed <= budget
    finally:
        _record(
            2, "closed-form inverse", passed,
            f"full {worst_full:.2e}, pair {worst_pair:.2e}, tol 1e-10",
            budget, time.time() - t0,
        )


def test_criterion_03_determinant():
    """Assembled det vs C(n)(k/2)^m mu^n det(N)^-(n+2) and the ratio law."""
    budget, t0 = 5.0, time.time()
    worst_closed = worst_ratio = 0.0
    passed = False
    try:
        for n in (1, 2, 3):
            params = _params(n)
            origin = JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
            det0 = metric_det(params, origin).value
            for pt in _points(n, 40):
                res = metric_det(params, pt)
                worst_closed = max(worst_closed, abs(res.value / res.closed_form - 1))
                _, logdet = np.linalg.slogdet(pt.N)
                expected = float(np.exp(-(n + 2) * logdet))
                worst_ratio = max(worst_ratio, abs(res.value / det0 / expected - 1))
        elapsed = time.time() - t0
        passed = worst_closed <= 1e-10 and worst_ratio <= 1e-10 and elapsed <= budget
        assert worst_closed <= 1e-10
        assert worst_ratio <= 1e-10
        assert elapsed <= budget
    finally:
        _record(
            3, "determinant", passed,
            f"closed-form {worst_closed:.2e}, ratio law {worst_ratio:.2e}, tol 1e-10",
            budget, time.time() - t0,
        )


def test_criterion_04_curvature():
    """Oracle Ricci matches curvature().ric (W-block rel 1e-5, z-block abs
    1e-8); the contracted scalar equals curvature().scalar_curvature to 1e-5.
    50 points: 20/20/10 across n = 1, 2, 3."""
    budget, t0 = 60.0, time.time()
    worst_w = worst_z = worst_s = 0.0
    passed = False
    try:
        for n, count in ((1, 20), (2, 20), (3, 10)):
            params = _params(n)
            for pt in _points(n, count, seed_offset=400):
                f = builtin_field("lnG", "jacobi_ball", params)
                ric = -fd_wirtinger_hessian(f, pt, _RICCI_STEP)
                cd = curvature(params, pt)
                defect = np.abs(ric - cd.ric)
                worst_w = max(
                    worst_w,
                    np.max(defect[n:, n:]) / np.max(np.abs(cd.ric[n:, n:])),
                )
                worst_z = max(
                    worst_z,
                    np.max(defect[:n, :]),
                    np.max(defect[:, :n]),
                )
                s_num = np.trace(metric_inverse(params, pt).h_inv @ ric).real
                worst_s = max(worst_s, abs(s_num / cd.scalar_curvature - 1))
        elapsed = time.time() - t0
        passed = (
            worst_w <= 1e-5 and worst_z <= 1e-8 and worst_s <= 1e-5 and elapsed <= budget
        )
        assert worst_w <= 1e-5
        assert worst_z <= 1e-8
        assert worst_s <= 1e-5
        assert elapsed <= budget
    finally:
        _record(
            4, "curvature", passed,
            f"Ricci W-block {worst_w:.2e} (tol 1e-5), z-block {worst_z:.2e} "
            f"(tol 1e-8), scalar {worst_s:.2e} (tol 1e-5)",
            budget, time.time() - t0,
        )


def test_criterion_05_laplacian_identity():
    """Delta(ln G) = -curvature().scalar_curvature at 50 points per n in
    {1,2,3}."""
    budget, t0 = 60.0, time.time()
    worst = 0.0
    passed = False
    try:
        for n in (1, 2, 3):
            params = _params(n)
            f = builtin_field("lnG", "jacobi_ball", params)
            for pt in _points(n, 50, seed_offset=500):
                expected = -curvature(params, pt).scalar_curvature
                val = apply_laplacian("jacobi_ball", params, f, pt, fd_step=_RICCI_STEP)
                worst = max(worst, abs(val.real / expected - 1) + abs(val.imag))
        elapsed = time.time() - t0
        passed = worst <= 1e-5 and elapsed <= budget
        assert worst <= 1e-5
        assert elapsed <= budget
    finally:
        _record(
            5, "Laplacian ln-det identity", passed,
            f"max rel err {worst:.2e} over 150 points, tol 1e-5",
            budget, time.time() - t0,
        )


def test_criterion_06_invariance_suite():
    """Metric pullback, Laplacian equivariance and the squared-Jacobian
    volume law: 20 group elements x 10 points at n = 2, rel 1e-5."""
    budget, t0 = 120.0, time.time()
    worst_m = worst_l = worst_v = 0.0
    passed = False
    try:
        n = 2
        params = _params(n)
        idx = params.pair_index
        rng = np.random.default_rng(SEED + 600)
        elements = [random_jacobi_c(n, rng) for _ in range(20)]
        points = [sample_point("jacobi_ball", n, rng) for _ in range(10)]
        field = builtin_field("re_poly(606)", "jacobi_ball")
        for h in elements:
            for pt in points:
                moved = act_ball(h, pt)
                # metric pullback along the action differential: the
                # quadratic form of h on a chart vector v = (dz, W pairs)
                # and of h at the image on J v
                v = np.concatenate([
                    rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size),
                ])
                J = fd_jacobian(lambda q: act_ball(h, q), pt)
                Jv = J @ v
                before = (v @ metric_blocks(params, pt).h @ v.conj()).real
                after = (Jv @ metric_blocks(params, moved).h @ Jv.conj()).real
                worst_m = max(worst_m, abs(before - after) / abs(before))
                # the squared-Jacobian volume law, from the same J
                q, q_moved = volume_densities(pt).Q_jacobi, volume_densities(moved).Q_jacobi
                worst_v = max(worst_v, abs(abs(np.linalg.det(J)) ** 2 * q_moved / q - 1.0))
        for h in elements[:20]:
            for pt in points[:5]:
                lhs = apply_laplacian(
                    "jacobi_ball", params, lambda q: field(act_ball(h, q)), pt
                )
                rhs = apply_laplacian("jacobi_ball", params, field, act_ball(h, pt))
                worst_l = max(worst_l, abs(lhs - rhs) / max(1.0, abs(rhs)))
        elapsed = time.time() - t0
        passed = (
            worst_m <= 1e-5 and worst_l <= 1e-5 and worst_v <= 1e-5 and elapsed <= budget
        )
        assert worst_m <= 1e-5
        assert worst_l <= 1e-5
        assert worst_v <= 1e-5
        assert elapsed <= budget
    finally:
        _record(
            6, "invariance suite", passed,
            f"pullback {worst_m:.2e}, Laplacian {worst_l:.2e}, volume {worst_v:.2e}, tol 1e-5",
            budget, time.time() - t0,
        )


def test_criterion_07_cayley_theta_equivariance():
    """Phi o h = Theta(h) o Phi to 1e-10 on 100 cases; on 10 upper points
    the FD Jacobian of the inverse Cayley map matches its closed form
    dV = 2i U dW U, and the transport law conj(C) Cb C^T = Cu carries the
    ball's Laplacian coefficients to the upper half-plane's, each relative
    to 1e-5."""
    budget, t0 = 30.0, time.time()
    worst_eq = worst_dc = worst_tr = 0.0
    passed = False
    try:
        rng = np.random.default_rng(SEED + 700)
        for case in range(100):
            n = 1 + case % 2
            h = random_jacobi_r(n, rng)
            pt = sample_point("jacobi_upper", n, rng)
            lhs = partial_cayley(act_upper(h, pt))
            rhs = act_ball(theta(h), partial_cayley(pt))
            worst_eq = max(
                worst_eq,
                np.max(np.abs(lhs.z - rhs.z)),
                np.max(np.abs(lhs.W - rhs.W)),
            )
        for case in range(10):
            n = 1 + case % 2
            up = sample_point("upper", n, rng)
            ball = partial_cayley(up)
            idx = PairIndex(n)
            U = np.linalg.inv(np.eye(n) - ball.W)
            C = idx.pack(2j * U @ idx.unpack(np.eye(idx.size)) @ U).T
            J = fd_jacobian(inverse_partial_cayley, ball)
            worst_dc = max(worst_dc, np.max(np.abs(J - C)) / np.max(np.abs(C)))
            Cu = laplacian_coefficients("upper", None, up).matrix
            carried = C.conj() @ laplacian_coefficients("ball", None, ball).matrix @ C.T
            worst_tr = max(worst_tr, np.max(np.abs(carried - Cu)) / np.max(np.abs(Cu)))
        elapsed = time.time() - t0
        passed = (
            worst_eq <= 1e-10 and worst_dc <= 1e-5 and worst_tr <= 1e-5
            and elapsed <= budget
        )
        assert worst_eq <= 1e-10
        assert worst_dc <= 1e-5
        assert worst_tr <= 1e-5
        assert elapsed <= budget
    finally:
        _record(
            7, "Cayley/Theta equivariance", passed,
            f"equivariance {worst_eq:.2e} (tol 1e-10), Cayley differential {worst_dc:.2e}, "
            f"Laplacian transport {worst_tr:.2e} (tol 1e-5)",
            budget, time.time() - t0,
        )


def test_criterion_08_scalar_regression():
    """n = 1 blocks, inverse and determinant against the disk-model closed
    forms under the half-weight correspondence, rel 1e-10, 100 points."""
    budget, t0 = 5.0, time.time()
    worst = 0.0
    passed = False
    try:
        params = _params(1)
        weight = params.k / 2.0
        for pt in _points(1, 100, seed_offset=800, radius=0.8):
            z, w = pt.z[0], pt.W[0, 0]
            P = 1 - abs(w) ** 2
            eta = (z + np.conj(z) * w) / P
            h_ref = np.array(
                [
                    [params.mu / P, params.mu * eta / P],
                    [
                        params.mu * np.conj(eta) / P,
                        weight / P**2 + params.mu * abs(eta) ** 2 / P,
                    ],
                ]
            )
            hinv_ref = np.array(
                [
                    [
                        P / params.mu + P**2 * abs(eta) ** 2 / weight,
                        -(P**2) * eta / weight,
                    ],
                    [-(P**2) * np.conj(eta) / weight, P**2 / weight],
                ]
            )
            det_ref = weight * params.mu / P**3
            ev = metric_blocks(params, pt)
            inv = metric_inverse(params, pt)
            res = metric_det(params, pt)
            worst = max(
                worst,
                np.max(np.abs(ev.h - h_ref)) / np.max(np.abs(h_ref)),
                np.max(np.abs(inv.h_inv - hinv_ref)) / np.max(np.abs(hinv_ref)),
                abs(res.value / det_ref - 1),
            )
        elapsed = time.time() - t0
        passed = worst <= 1e-10 and elapsed <= budget
        assert worst <= 1e-10
        assert elapsed <= budget
    finally:
        _record(
            8, "scalar-case regression", passed,
            f"max rel err {worst:.2e} over 100 disk points, tol 1e-10",
            budget, time.time() - t0,
        )


def test_criterion_09_kernel_suite():
    """epsilon = 1 to 1e-10; kappa/b/D diagonal and symmetry invariants;
    b < 1 for distinct points; 200 pairs, n in {1, 2}."""
    budget, t0 = 30.0, time.time()
    worst_eps = worst_diag = worst_sym = 0.0
    b_below_one = True
    passed = False
    try:
        for n in (1, 2):
            params = MetricParams(n=n, k=4.0, mu=1.0)
            rng = np.random.default_rng(SEED + 900 + n)
            for _ in range(100):
                p1 = sample_point("jacobi_ball", n, rng)
                p2 = sample_point("jacobi_ball", n, rng)
                worst_eps = max(worst_eps, abs(epsilon_function(params, p1) - 1))
                kap, b, D = normalized_kernels(params, p1, p1)
                worst_diag = max(worst_diag, abs(kap - 1), abs(b - 1), abs(D))
                _, b12, d12 = normalized_kernels(params, p1, p2)
                _, b21, d21 = normalized_kernels(params, p2, p1)
                worst_sym = max(worst_sym, abs(b12 - b21), abs(d12 - d21))
                b_below_one = b_below_one and (0 < b12 < 1 - 1e-12)
                _, k12 = two_point_kernel(params, p1, p2)
                _, k21 = two_point_kernel(params, p2, p1)
                worst_sym = max(worst_sym, abs(k12 - np.conj(k21)) / abs(k12))
        elapsed = time.time() - t0
        passed = (
            worst_eps <= 1e-10 and worst_diag <= 1e-10 and worst_sym <= 1e-10
            and b_below_one and elapsed <= budget
        )
        assert worst_eps <= 1e-10
        assert worst_diag <= 1e-10
        assert worst_sym <= 1e-10
        assert b_below_one
        assert elapsed <= budget
    finally:
        _record(
            9, "kernel/epsilon suite", passed,
            f"epsilon {worst_eps:.2e}, diagonal {worst_diag:.2e}, symmetry "
            f"{worst_sym:.2e}, b<1 {b_below_one}",
            budget, time.time() - t0,
        )


def test_criterion_10_parseval_normalization():
    """Quadrature norm of the constant function: 1 within 2% for k in
    {6, 10}; mu-stable within 1e-3 relative.  (n >= 2 is out of scope.)"""
    budget, t0 = 30.0, time.time()
    worst = 0.0
    mu_drift = 0.0
    passed = False
    try:
        for k in (6.0, 10.0):
            val = parseval_check_n1(k, 1.0)
            worst = max(worst, abs(val - 1.0))
            val2 = parseval_check_n1(k, 2.0)
            mu_drift = max(mu_drift, abs(val - val2) / abs(val))
        elapsed = time.time() - t0
        passed = worst <= 0.02 and mu_drift <= 1e-3 and elapsed <= budget
        assert worst <= 0.02
        assert mu_drift <= 1e-3
        assert elapsed <= budget
    finally:
        _record(
            10, "Parseval normalization", passed,
            f"|norm-1| {worst:.2e} (tol 2e-2), mu drift {mu_drift:.2e} (tol 1e-3)",
            budget, time.time() - t0,
        )
