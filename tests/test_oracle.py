import dataclasses

import numpy as np
import pytest

from siegel_jacobi import serialize
from siegel_jacobi.domains import (
    JacobiBallPoint,
    SiegelUpperPoint,
    _matvec,
    _vecmat,
    flatten_point,
    sample_point,
)
from siegel_jacobi.errors import NonHolomorphic, StepTooLarge
from siegel_jacobi.groups import (
    JacobiElementC,
    act_ball,
    act_upper,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
)
from fd_reference import (
    loop_gradient,
    loop_hessian,
    loop_jacobian,
    loop_laplacian,
    richardson_ids,
)
from siegel_jacobi.laplacian import apply_laplacian, builtin_field, laplacian_coefficients
from siegel_jacobi.metric import (
    CurvatureData,
    MetricEval,
    MetricParams,
    _dot,
    kahler_potential,
    metric_blocks,
)
from siegel_jacobi.oracle import (
    _steps,
    fd_jacobian,
    fd_laplacian,
    fd_wirtinger_gradient,
    fd_wirtinger_hessian,
)
from siegel_jacobi.verify import PROPERTIES, PROPERTY_GROUPS, PropertyResult, fuzz_all


class TestHessian:
    def test_norm_squared(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        f = lambda p: _dot(p.z.conj(), p.z).real
        H = fd_wirtinger_hessian(f, pt)
        expected = np.zeros((5, 5))
        expected[:2, :2] = np.eye(2)
        assert np.max(np.abs(H - expected)) < 1e-7

    def test_pluriharmonic_vanishes(self, rng):
        # Re(z_1^2) has identically zero mixed Hessian
        pt = sample_point("jacobi_ball", 2, rng)
        f = lambda p: (p.z[..., 0] ** 2).real
        H = fd_wirtinger_hessian(f, pt)
        assert np.max(np.abs(H)) < 1e-7

    def test_matches_metric_blocks(self, rng):
        # n = 4 is the first size with two pairs that share no index
        for n in (2, 4):
            params = MetricParams(n=n, k=2.5, mu=1.2)
            pt = sample_point("jacobi_ball", n, rng)
            ev = metric_blocks(params, pt)
            H = fd_wirtinger_hessian(lambda q: kahler_potential(params, q), pt)
            assert np.max(np.abs(H - ev.h)) / np.max(np.abs(ev.h)) < 1e-6

    def test_half_step_consistency(self, rng):
        # independent cross-check of the oracle against its half-step run
        params = MetricParams(n=1, k=2.0, mu=1.0)
        pt = sample_point("jacobi_ball", 1, rng)
        f = lambda q: kahler_potential(params, q)
        h1 = fd_wirtinger_hessian(f, pt, fd_step=1e-4)
        h2 = fd_wirtinger_hessian(f, pt, fd_step=5e-5)
        assert np.max(np.abs(h1 - h2)) < 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_fourth_order_convergence(self, seed):
        # Richardson: halving the step cuts the defect by ~16x.  The field is
        # not a polynomial: Richardson differences any polynomial of degree
        # <= 5 exactly, which would leave only roundoff to compare.
        pt = sample_point("jacobi_ball", 1, np.random.default_rng(seed))
        f = lambda p: np.exp(_dot(p.z.conj(), p.z).real)
        r2 = np.vdot(pt.z, pt.z).real
        exact = (1.0 + r2) * np.exp(r2)  # d^2/dz dzbar of exp(z zbar)
        errs = [abs(fd_wirtinger_hessian(f, pt, fd_step=s)[0, 0] - exact) for s in (4e-2, 2e-2)]
        assert errs[0] / errs[1] >= 12.0

    def test_step_too_large(self, rng):
        W = np.diag([np.sqrt(1 - 1e-3), 0.1]).astype(complex)
        pt = JacobiBallPoint(z=np.zeros(2), W=W)
        const = builtin_field("const", "jacobi_ball")
        with pytest.raises(StepTooLarge):
            fd_wirtinger_hessian(const, pt, fd_step=1e-3)
        # the default step, scaled to at most 2e-4, still fits inside the
        # 1e-3 margin: the widest pair line has l1 norm 3.1e-4, so the
        # excursion bound is 6.2e-4
        fd_wirtinger_hessian(const, pt)

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1e-4, 1e-300, 1e-9])
    def test_invalid_step_rejected_before_any_call(self, step):
        pt = sample_point("jacobi_ball", 1, np.random.default_rng(1))
        calls = []

        def f(p):
            calls.append(p)
            return np.zeros(p.z.shape[0])

        laplacian = lambda f, pt, fd_step: fd_laplacian(f, pt, np.eye(2), fd_step)
        for oracle in (fd_wirtinger_hessian, fd_wirtinger_gradient, fd_jacobian, laplacian):
            with pytest.raises(ValueError, match="fd_step"):
                oracle(f, pt, fd_step=step)
        assert calls == []


def _matches_loop_hessian(f, pt):
    return np.array_equal(fd_wirtinger_hessian(f, pt), loop_hessian(f, pt))


@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"], ids=richardson_ids)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_matches_entry_loop_reference(n, domain):
    # ln det h is the field whose FD Hessian the curvature and Laplacian
    # checks difference; any last-bit change there shows in the reports.
    # The complex field zeta_0 * sum(zeta_bar) has H[0, b] = 1, H[b, 0] = 0:
    # H[b, a] must come from its own differences, not from conj(H[a, b]).
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point(domain, n, np.random.default_rng(300 + n))
    fields = [
        builtin_field("lnG", domain, params),
        builtin_field("re_poly(5)", domain),
        _zeta0_times_sum_conj,
    ]
    if domain == "jacobi_ball":
        fields.append(lambda q: kahler_potential(params, q))
    for f in fields:
        assert _matches_loop_hessian(f, pt)


@pytest.mark.parametrize("n", [1, 2, 3], ids=richardson_ids)
def test_hessian_evaluates_each_stencil_point_once(n):
    pt = sample_point("jacobi_ball", n, np.random.default_rng(n))
    offsets = []

    def f(p):
        offsets.extend(flatten_point(p).tolist())
        return np.zeros(p.z.shape[0])

    fd_wirtinger_hessian(f, pt)
    d = n * (n + 3) // 2
    expected = 1 + 8 * d + 16 * d * (d - 1)  # 361 at d = 5
    assert len(offsets) == expected
    assert len({tuple(o) for o in offsets}) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_evaluates_one_plus_8d_points(n):
    # the frame Laplacian differences d lines through p, never the Hessian
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", n, np.random.default_rng(n))
    offsets = []

    def f(p):
        offsets.extend(flatten_point(p).tolist())
        return np.zeros(p.z.shape[0])

    apply_laplacian("jacobi_ball", params, f, pt)
    d = n * (n + 3) // 2
    assert len({tuple(o) for o in offsets}) == len(offsets) == 1 + 8 * d  # 73 at d = 9


def test_frame_leaving_the_domain_raises_before_any_call():
    # a frame line moves every coordinate: at this point (margin 1e-3) the
    # Hessian stencil fits at the default step, but a frame whose lines
    # spread evenly over the 5 coordinates has an l1 excursion of sum(h)
    W = np.diag([np.sqrt(1 - 1e-3), 0.1]).astype(complex)
    pt = JacobiBallPoint(z=np.zeros(2), W=W)
    h = _steps(pt, 1e-4)
    F = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(5)) / 5) / np.sqrt(5)
    C = h[:, None] * (F @ np.diag(np.arange(1.0, 6.0)) @ F.conj().T) * h
    calls = []
    fd_wirtinger_hessian(lambda p: np.zeros(p.z.shape[0]), pt)
    with pytest.raises(StepTooLarge):
        fd_laplacian(lambda p: calls.append(p), pt, C)
    assert calls == []
    fd_laplacian(lambda p: np.zeros(p.z.shape[0]), pt, np.diag(h * h))  # axis lines fit


def _zeta0_times_sum_conj(q):
    """zeta_0 * sum(zeta_bar) over the chart coordinates."""
    zeta = flatten_point(q)
    return zeta[..., 0] * np.sum(zeta.conj(), axis=-1)


def _complex_field(q):
    """z_0 conj(W_00): complex-valued, a Python complex at one point."""
    v = q.z[..., 0] * np.conj(q.W[..., 0, 0])
    return v.item() if np.ndim(v) == 0 else v


def _broadcasting_fields(domain, params):
    """The closed-form fields the Hessian checks difference."""
    fields = [builtin_field("lnG", domain, params)]
    if domain == "jacobi_ball":
        fields += [lambda q: kahler_potential(params, q), _complex_field]
    return fields


@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"], ids=richardson_ids)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_hessian_matches_per_point(n, domain):
    # the oracle hands f the whole stencil as one stacked point; its Hessian
    # and Laplacian must equal the loops that call f at one point per
    # offset, to the last bit, or the seeded reports would move
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point(domain, n, np.random.default_rng(300 + n))
    d = flatten_point(pt).shape[0]
    offsets = 1e-3 * np.random.default_rng(n).standard_normal((7, d, 2)) @ [1, 1j]
    C = laplacian_coefficients(domain, params, pt).matrix
    for f in _broadcasting_fields(domain, params):
        stacked = f(pt.at_offset(offsets))
        assert np.array_equal(stacked, [f(pt.at_offset(o)) for o in offsets])
        assert _matches_loop_hessian(f, pt)
        assert fd_laplacian(f, pt, C) == loop_laplacian(f, pt, C)


def test_stacked_identity_catches_broadcast_index_swap(monkeypatch):
    # negative control: a pair block whose index is swapped only over a
    # stack leaves every single-point value intact but must fail the check
    from siegel_jacobi import laplacian, metric

    fold = metric._fold_pair_metric

    def swapped(M, idx):
        if M.ndim == 2:
            return fold(M, idx)
        P, Q, f = idx.P, idx.Q, idx.f
        A = M.swapaxes(-1, -2)
        grid = metric._grid
        return 2.0 * f[:, None] * f * (  # Q for P in the last grid's rows
            grid(A, P, P) * grid(A, Q, Q) + grid(A, Q, P) * grid(A, Q, Q)
        )

    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", 2, np.random.default_rng(302))
    cases = [
        (builtin_field("lnG", "jacobi_ball", params), pt),
        (builtin_field("lnG", "ball"), pt.ball),
    ]
    reference = [loop_hessian(f, p) for f, p in cases]
    monkeypatch.setattr(metric, "_fold_pair_metric", swapped)
    monkeypatch.setattr(laplacian, "_fold_pair_metric", swapped)  # the ball lnG's fold
    for (f, p), H in zip(cases, reference):
        assert np.array_equal(loop_hessian(f, p), H)  # single points are intact
        assert np.all(np.isfinite(fd_wirtinger_hessian(f, p)))  # wrong, not NaN
        assert not _matches_loop_hessian(f, p)


def test_stacked_field_called_once_per_hessian():
    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", 2, np.random.default_rng(2))
    stacks = []

    def f(q):
        stacks.append(q.z.shape[0])
        return kahler_potential(params, q)

    fd_wirtinger_hessian(f, pt)
    d = 5
    assert stacks == [1 + 8 * d + 16 * d * (d - 1)]


@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"])
def test_chunked_stacked_hessian_matches_per_point(monkeypatch, domain):
    # a stencil split over several calls gives the one-call Hessian to the
    # last bit
    from siegel_jacobi import oracle

    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point(domain, 2, np.random.default_rng(7))
    fields = _broadcasting_fields(domain, params)
    whole = [fd_wirtinger_hessian(f, pt) for f in fields]
    monkeypatch.setattr(oracle, "STACK_ENTRIES", 500)  # 20 points at d = 5
    for f, H in zip(fields, whole):
        assert np.array_equal(fd_wirtinger_hessian(f, pt), H)


def test_stacked_lng_stack_size_bounded_at_n8():
    # the field's working set must not grow with the stencil: at n = 8
    # (d = 44) the 30625 stencil points go in chunks of at most
    # STACK_ENTRIES // d^2 = 270
    from siegel_jacobi.oracle import STACK_ENTRIES

    n, d = 8, 44
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", n, np.random.default_rng(8))
    f = builtin_field("lnG", "jacobi_ball", params)
    stacks = []

    def recorded(q):
        stacks.append(q.z.shape[0])
        return f(q)

    H = fd_wirtinger_hessian(recorded, pt)
    assert max(stacks) <= STACK_ENTRIES // d**2
    assert sum(stacks) == 1 + 8 * d + 16 * d * (d - 1)
    assert np.all(np.isfinite(H))


def test_stacked_step_too_large():
    W = np.diag([np.sqrt(1 - 1e-3), 0.1]).astype(complex)
    pt = JacobiBallPoint(z=np.zeros(2), W=W)
    calls = []
    with pytest.raises(StepTooLarge):
        fd_wirtinger_hessian(lambda p: calls.append(p), pt, fd_step=1e-3)
    assert calls == []


def test_stacked_field_must_return_one_value_per_point():
    pt = sample_point("jacobi_ball", 1, np.random.default_rng(1))
    with pytest.raises(ValueError, match="one value per stencil point"):
        fd_wirtinger_hessian(lambda p: 0.0, pt)


def _broadcasting_maps(n):
    """(map, base point, field on the image domain) for the maps that
    broadcast; the field composed with the map broadcasts too."""
    rng = np.random.default_rng(500 + n)
    h = random_jacobi_c(n, rng)
    hr = random_jacobi_r(n, rng)
    jb = sample_point("jacobi_ball", n, rng)
    ju = sample_point("jacobi_upper", n, rng)
    return [
        (lambda q: act_ball(h, q), jb, builtin_field("re_poly(21)", "jacobi_ball")),
        (lambda q: act_ball(h, q), jb.ball, builtin_field("re_poly(22)", "ball")),
        (lambda q: act_upper(hr, q), ju, builtin_field("normz2", "jacobi_upper")),
        (lambda q: act_upper(hr, q), SiegelUpperPoint(V=ju.V), builtin_field("re_poly(23)", "upper")),
        (partial_cayley, SiegelUpperPoint(V=ju.V), builtin_field("trWWbar", "ball")),
        (partial_cayley, ju, builtin_field("re_poly(24)", "jacobi_ball")),
        (inverse_partial_cayley, jb.ball, builtin_field("re_poly(25)", "upper")),
    ]


def _same(pair, other):
    return all(np.array_equal(a, b) for a, b in zip(pair, other))


@pytest.mark.parametrize("n", [1, 2, 3], ids=richardson_ids)
def test_stacked_jacobian_matches_per_point(n):
    for map_fn, pt, _ in _broadcasting_maps(n):
        J, Jbar = loop_jacobian(map_fn, pt)
        assert np.array_equal(fd_jacobian(map_fn, pt), J)
        assert np.max(np.abs(Jbar)) <= 1e-7  # the gate passed on the same values


@pytest.mark.parametrize("n", [1, 2, 3], ids=richardson_ids)
def test_stacked_gradient_matches_per_point(n):
    params = MetricParams(n=n, k=4.0, mu=1.0)
    for map_fn, pt, field in _broadcasting_maps(n):
        for f, p in ((field, map_fn(pt)), (lambda q: field(map_fn(q)), pt)):
            assert _same(fd_wirtinger_gradient(f, p), loop_gradient(f, p))
    jb = sample_point("jacobi_ball", n, np.random.default_rng(n))
    for f in (lambda q: kahler_potential(params, q), _complex_field):
        assert _same(fd_wirtinger_gradient(f, jb), loop_gradient(f, jb))


@pytest.mark.parametrize("n", [1, 2, 3], ids=richardson_ids)
def test_stacked_composed_hessian_matches_per_point(n):
    for map_fn, pt, field in _broadcasting_maps(n):
        assert _matches_loop_hessian(lambda q: field(map_fn(q)), pt)


def test_chunked_stacked_first_derivatives_match_per_point(monkeypatch):
    # STACK_ENTRIES = 100 gives 4 points per call at d = 5: the 40-point
    # Richardson Jacobian stencil goes in 10 chunks, with the one-call result
    from siegel_jacobi import oracle

    map_fn, pt, field = _broadcasting_maps(2)[0]
    composed = lambda q: field(map_fn(q))
    whole = (
        fd_jacobian(map_fn, pt),
        fd_wirtinger_gradient(composed, pt),
        fd_wirtinger_hessian(composed, pt),
    )
    monkeypatch.setattr(oracle, "STACK_ENTRIES", 100)
    stacks = []

    def recorded(q):
        stacks.append(q.z.shape[0])
        return map_fn(q)

    J = fd_jacobian(recorded, pt)
    assert stacks == [4] * 10
    assert np.array_equal(J, whole[0])
    assert _same(fd_wirtinger_gradient(composed, pt), whole[1])
    assert np.array_equal(fd_wirtinger_hessian(composed, pt), whole[2])


def test_stacked_map_called_once_per_jacobian():
    map_fn, pt, _ = _broadcasting_maps(2)[0]
    stacks = []

    def recorded(q):
        stacks.append(q.z.shape[0] if q.z.ndim == 2 else None)
        return map_fn(q)

    fd_jacobian(recorded, pt)
    assert stacks == [8 * 5]


def test_stacked_map_must_return_one_point_per_offset():
    pt = sample_point("jacobi_ball", 1, np.random.default_rng(1))
    with pytest.raises(ValueError, match="one value per stencil point"):
        fd_jacobian(lambda q: pt, pt)
    with pytest.raises(ValueError, match="one value per stencil point"):
        fd_wirtinger_gradient(lambda q: 0.0, pt)


class TestJacobian:
    def test_identity_map(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        J = fd_jacobian(lambda p: p, pt)
        assert np.max(np.abs(J - np.eye(5))) < 1e-9

    def test_trivial_action_on_pairs(self):
        origin = JacobiBallPoint(z=np.zeros(2), W=np.zeros((2, 2)))
        e = JacobiElementC.identity(2)
        J = fd_jacobian(lambda p: act_ball(e, p), origin)
        assert np.max(np.abs(J - np.eye(5))) < 1e-9

    def test_cayley_jacobian_reciprocal(self, rng):
        # det of the forward map times det of the inverse map equals 1
        upper = sample_point("jacobi_upper", 2, rng)
        ball = partial_cayley(upper)
        J_fwd = fd_jacobian(partial_cayley, upper)
        J_bwd = fd_jacobian(inverse_partial_cayley, ball)
        assert np.linalg.det(J_fwd) * np.linalg.det(J_bwd) == pytest.approx(1.0, rel=1e-7)

    def test_action_is_holomorphic(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        h = random_jacobi_c(2, rng)
        fd_jacobian(lambda p: act_ball(h, p), pt)

    def test_fc_transform_is_not_holomorphic(self, rng):
        # eta = M(z + W zbar) depends on the conjugates; the gate must fire
        pt = sample_point("jacobi_ball", 2, rng)

        def fc_map(q):
            return JacobiBallPoint.assemble(q.eta, q.W)

        with pytest.raises(NonHolomorphic):
            fd_jacobian(fc_map, pt)


class TestVolumeInvariance:
    """Each invariant density of ``kernels.volume_densities`` transforms by
    the squared Jacobian: |det J|^2 Q(h.pt) / Q(pt) = 1, with J the
    finite-difference Jacobian of the action on that domain."""

    @pytest.mark.parametrize("domain", ["ball", "jacobi_ball"])
    def test_random_elements(self, rng, domain):
        from siegel_jacobi.kernels import volume_densities

        if domain == "ball":
            density = lambda x: volume_densities(x).Q_ball
        else:
            density = lambda x: volume_densities(x).Q_jacobi
        for _ in range(5):
            pt = sample_point("jacobi_ball", 2, rng)
            h = random_jacobi_c(2, rng)
            if domain == "ball":
                pt = pt.ball
            action = lambda x: act_ball(h, x)
            J = fd_jacobian(action, pt)
            defect = abs(abs(np.linalg.det(J)) ** 2 * density(action(pt)) / density(pt) - 1.0)
            assert defect < 1e-5


class TestActionJacobian:
    """action_jacobian: one FD Jacobian of act_ball per trial checks the
    isometry law J^T G(h.pt) conj(J) = G(pt), G the metric matrix, and both
    volume laws."""

    def test_identity_element(self, monkeypatch):
        from siegel_jacobi import verify

        monkeypatch.setattr(verify, "random_jacobi_c", lambda n, rng: JacobiElementC.identity(n))
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=["action_jacobian"])
        assert rep.results[0].max_error < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trials_pass(self, n):
        rep = fuzz_all(n=n, k=4.0, mu=1.0, trials=20, master_seed=7, properties=["action_jacobian"])
        assert rep.passed
        assert rep.results[0].trials == 20

    def test_one_jacobian_per_trial(self, monkeypatch):
        # one Jacobian, of the action (action_jacobian)
        from siegel_jacobi import oracle, verify

        calls = []
        jacobian = oracle.fd_jacobian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return jacobian(*args, **kwargs)

        monkeypatch.setattr(verify, "fd_jacobian", counting)
        monkeypatch.setattr(oracle, "fd_jacobian", counting)
        assert fuzz_all(n=2, k=4.0, mu=1.0, trials=1, master_seed=7).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("corrupt", [None, "h4", "act_ball_z", "Q_jacobi", "Q_ball"])
    def test_corrupted_law_detected(self, monkeypatch, corrupt):
        # negative controls: the metric's h4 block times 1.01 and the z part
        # of the action's image times 1 + 1e-4 (isometry law), and each
        # density's exponent (volume laws); the unpatched run passes
        from siegel_jacobi import kernels
        from siegel_jacobi.kernels import VolumeData

        if corrupt == "h4":
            _mutate(monkeypatch, "metric_blocks", _post(_h4_scaled))
        elif corrupt == "act_ball_z":
            _mutate(monkeypatch, "act_ball", _scaled_image("z"))
        elif corrupt is not None:
            densities = kernels.volume_densities

            def corrupted(pt):
                # Q_jacobi at exponent n + 1, or Q_ball at n + 2: the other density
                q = densities(pt)
                if corrupt == "Q_jacobi":
                    return VolumeData(Q_ball=q.Q_ball, Q_jacobi=q.Q_ball)
                return VolumeData(Q_ball=q.Q_jacobi, Q_jacobi=q.Q_jacobi)

            monkeypatch.setattr(kernels, "volume_densities", corrupted)
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=5, master_seed=7, properties=["action_jacobian"])
        res = rep.results[0]
        assert np.isfinite(res.max_error)  # a defect, not a raise
        assert res.passed == (corrupt is None)


class TestFuzzAll:
    def test_zero_trials_pass(self):
        rep = fuzz_all(n=1, k=4.0, mu=1.0, trials=0, master_seed=1, properties="metric")
        assert rep.passed
        assert all(r.trials == 0 for r in rep.results)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            fuzz_all(n=1, k=4.0, mu=1.0, trials=-3, master_seed=1, properties="metric")

    def test_default_run_passes(self):
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7)
        failing = [r.property for r in rep.results if not r.passed]
        assert rep.passed, f"failing properties: {failing}"

    def test_deterministic(self):
        r1 = fuzz_all(n=1, k=4.0, mu=1.0, trials=2, master_seed=3, properties="inverse")
        r2 = fuzz_all(n=1, k=4.0, mu=1.0, trials=2, master_seed=3, properties="inverse")
        assert r1.to_json() == r2.to_json()

    def test_corrupted_metric_detected(self, monkeypatch):
        # negative control: the h4 block the inverse-identity check reads is
        # scaled by 1 + 1e-3
        from siegel_jacobi import verify

        original = verify.metric_blocks

        def corrupted(params, pt):
            ev = original(params, pt)
            h = ev.h.copy()
            h[params.n :, params.n :] *= 1.0 + 1e-3
            return MetricEval(h1=ev.h1, h2=ev.h2, h3=ev.h3, h4=h[params.n :, params.n :], h=h)

        monkeypatch.setattr(verify, "metric_blocks", corrupted)
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties="inverse")
        by_name = {r.property: r for r in rep.results}
        assert not by_name["inverse_identity"].passed
        assert by_name["inverse_identity"].worst is not None
        assert "seed" in by_name["inverse_identity"].worst

    @pytest.mark.parametrize("corrupt", [None, "ric_w", "ric_z", "scalar", "qk_lu"])
    def test_corrupted_curvature_detected(self, monkeypatch, corrupt):
        # negative controls: each field of curvature() that ricci_fd_match
        # checks, corrupted in turn; the unpatched run passes
        from siegel_jacobi import verify

        original = verify.curvature

        def corrupted(params, pt):
            cd = original(params, pt)
            n = params.n
            ric, scalar, qk = cd.ric.copy(), cd.scalar_curvature, cd.qk_lu
            if corrupt == "ric_w":
                ric[n:, n:] *= (n + 1) / (n + 2)
            elif corrupt == "ric_z":
                ric[0, n] = 2e-8  # twice the absolute z-block bound
            elif corrupt == "scalar":
                scalar *= 1.0 + 1e-4
            elif corrupt == "qk_lu":
                qk = qk * (1.0 + 1e-4)
            return CurvatureData(ric=ric, scalar_curvature=scalar, qk_lu=qk)

        monkeypatch.setattr(verify, "curvature", corrupted)
        rep = fuzz_all(
            n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=["ricci_fd_match"]
        )
        assert rep.passed == (corrupt is None)

    def test_one_lng_hessian_per_ricci_trial(self, monkeypatch):
        # a verdict differences ln det h once per ricci_fd_match trial and
        # nowhere else (no property applies a Laplacian)
        from siegel_jacobi import laplacian, verify

        lng_fields, lng_hessians = set(), []
        make_field = verify.builtin_field

        def tagging_field(name, *args):
            f = make_field(name, *args)
            if name == "lnG":
                lng_fields.add(f)
            return f

        monkeypatch.setattr(verify, "builtin_field", tagging_field)
        hessian = verify.fd_wirtinger_hessian

        def counting(f, *args, **kwargs):
            if f in lng_fields:
                lng_hessians.append(f)
            return hessian(f, *args, **kwargs)

        monkeypatch.setattr(verify, "fd_wirtinger_hessian", counting)
        assert not hasattr(laplacian, "fd_wirtinger_hessian")
        fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7)
        assert len(lng_hessians) == 3

    def test_cayley_pullback_builds_no_pair_inverse(self, monkeypatch):
        # cayley_pullback_ds2 forms the two pair metrics h^k itself, and the
        # pair inverses only through laplacian_coefficients, whose matrices
        # its transport law checks (laplacian holds its own binding)
        from siegel_jacobi import metric

        calls = []
        inverse = metric._pair_metric_inverse
        monkeypatch.setattr(
            metric, "_pair_metric_inverse", lambda *a: calls.append(a) or inverse(*a)
        )
        rep = fuzz_all(
            n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=["cayley_pullback_ds2"]
        )
        assert rep.passed
        assert calls == []

    def test_report_schema(self):
        rep = fuzz_all(n=1, k=4.0, mu=1.0, trials=1, master_seed=0, properties="invariance")
        data = rep.to_json()
        for entry in data["properties"]:
            assert set(entry) == {"property", "trials", "max_error", "tol", "pass", "worst"}

    def test_raised_check_reports_null_error(self):
        # a check that raised has an infinite error, which JSON cannot carry
        res = PropertyResult("p", 1, float("inf"), 1e-8, False, {"seed": 0, "point": None})
        assert res.to_json()["max_error"] is None
        assert serialize.dumps(res.to_json())

    @pytest.mark.parametrize(
        "errors, worst_trial",
        [((1e-12, float("nan"), float("nan")), 1), ((float("nan"), 1e-12, 0.0), 0)],
        ids=["nan-after-first", "nan-first"],
    )
    def test_nan_trial_fails_and_names_its_seed(self, monkeypatch, errors, worst_trial):
        # a registered property whose trial t returns errors[t] at a sampled point
        from siegel_jacobi import verify

        calls = iter(errors)
        fn = lambda params, rng: (next(calls), sample_point("jacobi_ball", params.n, rng))
        monkeypatch.setitem(PROPERTIES, "fake", verify._Prop("fake", "fake", 1e-8, fn))
        res = fuzz_all(
            n=1, k=4.0, mu=1.0, trials=len(errors), master_seed=7, properties=["fake"]
        ).results[0]
        assert not res.passed
        assert res.to_json()["max_error"] is None
        assert res.worst["seed"] == verify._trial_seed(7, "fake", worst_trial)
        assert set(res.worst["point"]) == {"n", "z", "W"}
        assert serialize.dumps(res.to_json())

    def test_registry(self):
        # 15 properties; TestDeletedPropertyMutants shows the laws of the
        # deleted ones fail kept properties
        assert len(PROPERTIES) == 15
        assert {g: len(v) for g, v in PROPERTY_GROUPS.items() if g != "all"} == {
            "metric": 2, "inverse": 1, "curvature": 1,
            "invariance": 2, "cayley": 5, "kernels": 3, "parseval": 1,
        }

    def test_groups_cover_all_properties(self):
        names = set().union(*(set(v) for k, v in PROPERTY_GROUPS.items() if k != "all"))
        assert names == set(PROPERTY_GROUPS["all"])

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            fuzz_all(n=1, k=4.0, mu=1.0, properties="bogus")


class TestFoldedLaws:
    """Each law folded into another property's trial still fails it when
    broken alone; the unpatched run passes."""

    @pytest.mark.parametrize(
        "corrupt, prop",
        [(None, "theta_homomorphism"), ("roundtrip", "theta_homomorphism"),
         (None, "det_closed_form"), ("det_origin", "det_closed_form"),
         (None, "kernel_sesquiholomorphy"), ("diastasis", "kernel_sesquiholomorphy"),
         # epsilon = 1 (ln epsilon = Re ln K(x, x) - f, with
         # ln K(x, x) = mu F(x, x) - (k/2) ld(x, x)): F(x, x), the tracked
         # ld and ln det N (in f) each scaled by 1.01
         (None, "kernel_potential_tie"), ("exponent", "kernel_potential_tie"),
         ("tracked_logdet", "kernel_potential_tie"), ("logdet_N", "kernel_potential_tie"),
         ("F_diag", "kernel_potential_tie"),
         # the n = 1 norm is 1 and does not move when mu doubles: a power of
         # mu in Lambda_1 keeps the first law at mu = 1 and fails the second
         (None, "parseval_n1"), ("mu_power", "parseval_n1")],
    )
    def test_corrupted_law_detected(self, monkeypatch, corrupt, prop):
        from siegel_jacobi import domains, groups, kernels, verify

        if corrupt == "roundtrip":
            inverse = verify.inverse_cayley_conjugate

            def corrupted(gc):
                g = inverse(gc)
                return groups.SymplecticR(g.a + 1e-11, g.b, g.c, g.d)

            monkeypatch.setattr(verify, "inverse_cayley_conjugate", corrupted)
        elif corrupt == "det_origin":
            det = verify.metric_det

            def corrupted(params, pt):
                res = det(params, pt)
                if not np.any(pt.z) and not np.any(pt.W):
                    return dataclasses.replace(res, value=res.value * (1.0 + 1e-8))
                return res

            monkeypatch.setattr(verify, "metric_det", corrupted)
        elif corrupt == "diastasis":
            normalized = kernels.normalized_kernels

            def corrupted(params, zeta, zeta2):
                kappa, b, D = normalized(params, zeta, zeta2)
                if zeta.W[0, 0].real < zeta2.W[0, 0].real:  # one argument order
                    D *= 1.0 + 1e-9
                return kappa, b, D

            monkeypatch.setattr(kernels, "normalized_kernels", corrupted)
        elif corrupt == "logdet_N":
            logdet = domains._BallPart.logdet_N.fget
            monkeypatch.setattr(
                domains._BallPart, "logdet_N", property(lambda pt: 1.01 * logdet(pt))
            )
        elif corrupt == "mu_power":
            constant = kernels.normalization_constant
            monkeypatch.setattr(
                kernels, "normalization_constant", lambda p: p.mu**0.01 * constant(p)
            )
        elif corrupt is not None:
            name = {"exponent": "_two_point_exponent", "tracked_logdet": "_tracked_logdet",
                    "F_diag": "_diagonal_exponent"}[corrupt]
            original = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *a: 1.01 * original(*a))
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=[prop])
        res = rep.results[0]
        assert np.isfinite(res.max_error)  # a defect, not a raise
        assert res.passed == (corrupt is None)


def _mutate(monkeypatch, name, wrap):
    """Replace the package function ``name`` by ``wrap(original)`` in every
    module the fuzzer reads it from, as an edit of its definition would;
    a name ``Type.attr`` is a property of a point type in ``domains``."""
    from siegel_jacobi import domains, groups, kernels, laplacian, metric, verify

    if "." in name:
        cls, attr = name.split(".")
        cls = getattr(domains, cls)
        monkeypatch.setattr(cls, attr, property(wrap(getattr(cls, attr).fget)))
        return
    modules = [m for m in (groups, metric, kernels, laplacian, verify) if hasattr(m, name)]
    mutant = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, mutant)


def _post(change):
    """A wrapper of fn that returns change(fn(*args), *args)."""
    return lambda fn: lambda *args: change(fn(*args), *args)


def _conj_added(part, eps):
    """The image's W or z plus eps times its own conjugate: antiholomorphic,
    and at eps = 1e-9 within fd_jacobian's 1e-7 gate."""

    def change(b, pt):
        if part == "W":
            return type(b).image(b.vector, b.W + eps * b.W.conj())
        if b.vector is None:  # a Siegel-ball image has no z
            return b
        return type(b).image(b.z + eps * b.z.conj(), b.W)

    return _post(change)


def _scaled_image(part):
    """The image's W or z scaled by 1 + 1e-4 (a Siegel-ball image has no z)."""

    def change(b, *_):
        if part == "W":
            return type(b).image(b.vector, (1.0 + 1e-4) * b.W)
        if b.vector is None:
            return b
        return type(b).image((1.0 + 1e-4) * b.vector, b.W)

    return _post(change)


def _h4_scaled(ev, *_):
    """A metric result with its h4 block scaled by 1.01."""
    from siegel_jacobi.metric import _assemble

    h4 = 1.01 * ev.h4
    return MetricEval(h1=ev.h1, h2=ev.h2, h3=ev.h3, h4=h4, h=_assemble(ev.h1, ev.h2, ev.h3, h4))


def _indefinite(how, domains):
    """Laplacian coefficients made indefinite on the given domains: -C,
    C - 1.5 lam_min I, or C - 2 lam_min v v* for C's least eigenpair."""

    def change(res, domain, params, pt):
        if domain not in domains:
            return res
        C = res.matrix
        lam, U = np.linalg.eigh(C)
        v = U[:, :1]
        C = {"neg": -C, "shift": C - 1.5 * lam[0] * np.eye(len(lam)),
             "flip": C - 2.0 * lam[0] * (v @ v.conj().T)}[how]
        return dataclasses.replace(res, matrix=C)

    return _post(change)


def _point_dependent_or_conj(how, domain):
    """The Laplacian coefficient matrix C on one domain made
    point-dependent, (1 + 1e-3 |X|_F^2) C for the point's matrix part X (V
    on the upper half-plane, W elsewhere), or conjugated."""

    def change(res, d, params, pt):
        if d != domain:
            return res
        X = pt.V if d == "upper" else pt.W
        C = res.matrix
        C = (1.0 + 1e-3 * np.sum(np.abs(X) ** 2)) * C if how == "point" else C.conj()
        return dataclasses.replace(res, matrix=C)

    return _post(change)


_C_HOW = ("neg", "shift", "flip")

# mutant id -> (mutated function, wrapper, the kept properties it must fail)
_DELETED_PROPERTY_MUTANTS = {
    # left_action_upper read compose_jacobi_r and act_upper; the central
    # coordinate mutant fails theta_homomorphism, which left_action_upper missed
    "compose_translation": ("compose_jacobi_r", _post(lambda h, h1, h2: dataclasses.replace(
        h, lambda_mu=h1.lambda_mu + h2.lambda_mu)), ("theta_homomorphism",)),
    "compose_order": ("compose_jacobi_r", _post(lambda h, h1, h2: dataclasses.replace(
        h, g=h2.g @ h1.g)), ("theta_homomorphism",)),
    "compose_center": ("compose_jacobi_r", _post(lambda h, *_: dataclasses.replace(
        h, k_center=h.k_center + 0.1)), ("theta_homomorphism",)),
    "act_upper_u": ("act_upper", _post(lambda p, *_: SiegelUpperPoint.image(
        None if p.u is None else 1.01 * p.u, p.V)), ("theta_equivariance",)),
    "act_upper_swap": ("act_upper", lambda act: lambda h, pt: act(
        dataclasses.replace(h, lambda_mu=np.roll(h.lambda_mu, h.n)), pt), ("theta_equivariance",)),
    # ball_pair_inverse read the two pair forms that h and h_inv are built of;
    # ds2_ball_consistency, which compared the trace form 4 Tr(M dW Mbar dWbar)
    # with the folded pair form, failed both _fold_pair_metric mutants
    **{f"{name}_{how}": (name, wrap, kept) for name, kept in (
        ("_pair_metric_inverse", ("inverse_identity", "ricci_fd_match")),
        ("_fold_pair_metric", ("inverse_identity", "metric_fd_match", "ricci_fd_match")),
    ) for how, wrap in (
        ("scaled", _post(lambda A, *_: 1.01 * A)),
        ("conj", lambda form: lambda M, idx: form(M.conj(), idx)),
    )},
    # holomorphy_gates read partial_cayley's FD Jacobian through its gate
    **{f"cayley_{part}_{eps:.0e}": ("partial_cayley", _conj_added(part, eps),
                                    ("partial_cayley_roundtrip", "theta_equivariance"))
       for part in ("W", "z") for eps in (1e-6, 1e-9)},
    # chain_rule_defect and laplacian_correspondence compared FD derivatives
    # across the Cayley map: the first caught the inverse_cayley rows, the
    # second cayley_W_scaled, upper_N and the C_ball and C_upper rows
    "cayley_W_scaled": ("partial_cayley", _scaled_image("W"),
                        ("partial_cayley_roundtrip", "theta_equivariance")),
    "inverse_cayley_V": ("inverse_partial_cayley", _post(lambda p, pt: SiegelUpperPoint.image(
        p.u, p.V + 1e-6 * pt.W.conj())), ("partial_cayley_roundtrip", "cayley_pullback_ds2")),
    "inverse_cayley_V_scaled": ("inverse_partial_cayley", _post(lambda p, pt: SiegelUpperPoint.image(
        p.u, 1.01 * p.V)), ("partial_cayley_roundtrip", "cayley_pullback_ds2")),
    # a real translation is an isometry of the upper half-plane: only the
    # roundtrip sees it
    "inverse_cayley_V_shifted": ("inverse_partial_cayley", _post(
        lambda p, pt: SiegelUpperPoint.image(p.u, p.V + 0.01)), ("partial_cayley_roundtrip",)),
    "upper_N": ("SiegelUpperPoint.N", _post(lambda N, *_: 1.01 * N), ("cayley_pullback_ds2",)),
    # ellipticity read the least eigenvalue of C on each of the three
    # domains; inverse_identity ties the Jacobi-ball and ball C to h_inv,
    # and cayley_pullback_ds2's transport law ties the upper C to the ball's
    # (it is linear in C, so C_ball_upper_neg passes it: both sides change
    # alike)
    **{f"C_{name}_{how}": ("laplacian_coefficients", _indefinite(how, domains), kept)
       for name, domains, kept in (
           ("jacobi", ("jacobi_ball",), ("inverse_identity", "ricci_fd_match")),
           ("ball", ("ball",), ("inverse_identity", "cayley_pullback_ds2")),
           ("upper", ("upper",), ("cayley_pullback_ds2",)),
           ("ball_upper", ("ball", "upper"), ("inverse_identity",)),
    ) for how in _C_HOW},
    # laplacian_equivariance compared two FD Laplacians across a group
    # action and caught each of these: C made point-dependent or
    # conjugated.  The upper half-plane's C is real, so its conjugate is no
    # mutant
    **{f"C_{name}_{how}": ("laplacian_coefficients", _point_dependent_or_conj(how, domain), kept)
       for name, domain, hows, kept in (
           ("jacobi", "jacobi_ball", ("point", "conj"), ("inverse_identity", "ricci_fd_match")),
           ("ball", "ball", ("point", "conj"), ("inverse_identity", "cayley_pullback_ds2")),
           ("upper", "upper", ("point",), ("cayley_pullback_ds2",)),
    ) for how in hows},
    # fc_roundtrip compares the whole point, W included
    "inverse_fc_W": ("inverse_fc_transform", _post(lambda p, *_: JacobiBallPoint(
        z=p.z, W=0.99 * p.W)), ("fc_roundtrip",)),
    # cayley_pullback_ds2 compared the two models' trace forms along one
    # tangent, and failed the upper point's M scaled, as no other property
    # does; its matrix law reads that M through _fold_pair_metric
    "upper_M": ("SiegelUpperPoint.M", _post(lambda M, *_: 1.01 * M), ("cayley_pullback_ds2",)),
    # action_jacobian's ds2 pullback along one v failed all three, and its
    # pushforward law (against a closed-form differential) the act_ball ones
    **{f"act_ball_{part}": ("act_ball", _scaled_image(part), (
        "action_jacobian", "left_action_ball", "theta_equivariance"))
       for part in ("z", "W")},
    "metric_blocks_h4": ("metric_blocks", _post(_h4_scaled),
                         ("action_jacobian", "inverse_identity", "metric_fd_match", "ricci_fd_match")),
    # parseval_mu_stability compared the n = 1 norm at mu and 2 mu, and alone
    # caught a power of mu in Lambda_1 (parseval_n1 read 3.8e-15 under it);
    # the folded parseval_n1 keeps that law
    "lambda_mu_power": ("normalization_constant", _post(lambda lam, p: p.mu**0.01 * lam),
                        ("parseval_n1",)),
}


class TestDeletedPropertyMutants:
    """left_action_upper, ball_pair_inverse, holomorphy_gates,
    ellipticity, ds2_ball_consistency, chain_rule_defect,
    laplacian_correspondence, parseval_mu_stability and
    laplacian_equivariance are implied by kept properties, and the matrix
    laws of action_jacobian and
    cayley_pullback_ds2 by what their tangent-vector laws checked: every
    mutant that those caught fails a kept property at n = 2 (3 trials,
    seed 7); so does inverse_fc_W, which
    no property caught while fc_roundtrip compared z alone.  The unmutated
    run passes every kept property named here."""

    @pytest.mark.parametrize("mutant", [None, *_DELETED_PROPERTY_MUTANTS])
    def test_kept_property_fails(self, monkeypatch, mutant):
        if mutant is None:
            kept = sorted({p for *_, ks in _DELETED_PROPERTY_MUTANTS.values() for p in ks})
        else:
            name, wrap, kept = _DELETED_PROPERTY_MUTANTS[mutant]
            _mutate(monkeypatch, name, wrap)
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=list(kept))
        failed = {r.property for r in rep.results if not r.passed}
        assert failed == (set() if mutant is None else set(kept))


def _nan_at_origin(res, params, pt):
    """A metric determinant result whose value is NaN at the origin."""
    at_origin = not np.any(pt.z) and not np.any(pt.W)
    return dataclasses.replace(res, value=np.nan) if at_origin else res


class TestNaNLaws:
    """A property that folds several laws fails when one of them is NaN,
    wherever it stands in the fold; the unmutated run passes."""

    _MUTANTS = {
        "scalar_curvature": ("curvature", _post(
            lambda cd, *_: dataclasses.replace(cd, scalar_curvature=np.nan)), "ricci_fd_match"),
        "det_origin": ("metric_det", _post(_nan_at_origin), "det_closed_form"),
        "norm_2mu": ("parseval_check_n1", _post(
            lambda v, k, mu: np.nan if mu == 2.0 else v), "parseval_n1"),
        "normalized_kernels": ("normalized_kernels", _post(
            lambda *_: (np.nan, np.nan, np.nan)), "berezin_bounds"),
    }

    @pytest.mark.parametrize("mutant", [None, *_MUTANTS])
    def test_nan_law_fails(self, monkeypatch, mutant):
        if mutant is None:
            props = [prop for *_, prop in self._MUTANTS.values()]
        else:
            name, wrap, prop = self._MUTANTS[mutant]
            _mutate(monkeypatch, name, wrap)
            props = [prop]
        rep = fuzz_all(n=2, k=4.0, mu=1.0, trials=3, master_seed=7, properties=props)
        if mutant is None:
            assert rep.passed
        else:
            assert [r.to_json()["max_error"] for r in rep.results] == [None]
            assert not rep.passed

    def test_berezin_bounds_fails_past_the_float_range(self):
        # at mu = 1e308 the Berezin kernel is NaN in 6 of these 20 trials
        rep = fuzz_all(
            n=2, k=4.0, mu=1e308, trials=20, master_seed=7, properties=["berezin_bounds"]
        )
        assert rep.results[0].to_json()["max_error"] is None
        assert not rep.passed


@pytest.mark.parametrize("mutant", [None, "phase"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_potential_tie_catches_a_diagonal_phase(monkeypatch, n, mutant):
    # F(x, x) + 1e-6 i puts a phase on K(x, x) and leaves Re ln K, so
    # epsilon cannot see it; the tie compares the complex ln K(x, x) with f
    from siegel_jacobi import kernels

    if mutant == "phase":
        diagonal = kernels._diagonal_exponent
        monkeypatch.setattr(kernels, "_diagonal_exponent", lambda pt: diagonal(pt) + 1e-6j)
    rep = fuzz_all(n=n, k=4.0, mu=1.0, trials=5, master_seed=7, properties=["kernel_potential_tie"])
    res = rep.results[0]
    if mutant is None:
        assert res.passed
    else:
        assert res.max_error > 1e-7


def _conjugated_third_term(x, V, y, W):
    """_two_point_exponent with its third term conjugated: |K| is unchanged
    and its phase is wrong off the diagonal."""
    xbar, Vbar = x.conj(), V.conj()
    U = np.linalg.inv(np.eye(W.shape[-1]) - W @ Vbar)
    two_f = (
        2.0 * _dot(xbar, _matvec(U, y))
        + _dot(_vecmat(_vecmat(y, Vbar), U), y)
        + np.conj(_dot(xbar, _matvec(U @ W, xbar)))
    )
    return 0.5 * two_f


@pytest.mark.parametrize("mutant", [None, "phase", "modulus", "logdet", "transpose"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_sesquiholomorphy_catches_phase_and_modulus(monkeypatch, n, mutant):
    # ln K(x, y) antiholomorphic in x and holomorphic in y: the phase mutant
    # keeps |K|, so the modulus alone cannot see it; the modulus mutant adds
    # a real 0.1 Re (x, y) to F; the logdet mutant conjugates the tracked
    # log det, which K's Hermitian symmetry and its three-point invariant
    # both keep; the transpose mutant swaps the pair, K(x, y) -> K(y, x)
    from siegel_jacobi import kernels

    exponent, pair_terms = kernels._two_point_exponent, kernels._pair_terms
    logdet = kernels._tracked_logdet
    if mutant == "phase":
        monkeypatch.setattr(kernels, "_two_point_exponent", _conjugated_third_term)
    elif mutant == "modulus":
        monkeypatch.setattr(
            kernels, "_two_point_exponent",
            lambda x, V, y, W: exponent(x, V, y, W) + 0.1 * _dot(x.conj(), y).real,
        )
    elif mutant == "logdet":
        monkeypatch.setattr(kernels, "_tracked_logdet", lambda W, Vbar: np.conj(logdet(W, Vbar)))
    elif mutant == "transpose":
        monkeypatch.setattr(kernels, "_pair_terms", lambda a, b: pair_terms(b, a))
    rep = fuzz_all(
        n=n, k=7.0, mu=1.3, trials=5, master_seed=7, properties=["kernel_sesquiholomorphy"]
    )
    res = rep.results[0]
    if mutant is None:
        assert res.passed and res.max_error < 1e-10
    else:
        assert res.max_error > 1e-2
