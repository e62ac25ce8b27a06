import numpy as np
import pytest

from siegel_jacobi import serialize
from siegel_jacobi.domains import JacobiBallPoint, sample_point
from siegel_jacobi.errors import NonHolomorphic, StepTooLarge
from siegel_jacobi.groups import (
    JacobiElementC,
    act_ball,
    fc_transform,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
)
from siegel_jacobi.laplacian import builtin_field
from siegel_jacobi.metric import MetricParams, kahler_potential, metric_blocks
from siegel_jacobi.oracle import (
    FdConfig,
    _steps,
    chart_for,
    fd_jacobian,
    fd_wirtinger_hessian,
    flatten_point,
    volume_invariance_check,
)
from siegel_jacobi.verify import PROPERTY_GROUPS, PropertyResult, fuzz_all


class TestHessian:
    def test_norm_squared(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        f = lambda p: float(np.vdot(p.z, p.z).real)
        H = fd_wirtinger_hessian(f, pt)
        expected = np.zeros((5, 5))
        expected[:2, :2] = np.eye(2)
        assert np.max(np.abs(H - expected)) < 1e-7

    def test_pluriharmonic_vanishes(self, rng):
        # Re(z_1^2) has identically zero mixed Hessian
        pt = sample_point("jacobi_ball", 2, rng)
        f = lambda p: float((p.z[0] ** 2).real)
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
        h1 = fd_wirtinger_hessian(f, pt, FdConfig(step=1e-4))
        h2 = fd_wirtinger_hessian(f, pt, FdConfig(step=5e-5))
        assert np.max(np.abs(h1 - h2)) < 1e-7

    def test_second_order_convergence(self, rng):
        # central scheme: halving the step cuts the defect by >= 3x
        pt = sample_point("jacobi_ball", 1, rng)
        f = lambda p: float(np.vdot(p.z, p.z).real ** 2)
        exact = 4.0 * np.vdot(pt.z, pt.z).real
        errs = []
        for step in (2e-2, 1e-2):
            H = fd_wirtinger_hessian(f, pt, FdConfig(step=step, scheme="central", scale_step=False))
            errs.append(abs(H[0, 0].real - exact))
        assert errs[0] / errs[1] >= 3.0

    def test_step_too_large(self, rng):
        W = np.diag([np.sqrt(1 - 1e-3), 0.1]).astype(complex)
        pt = JacobiBallPoint(z=np.zeros(2), W=W)
        with pytest.raises(StepTooLarge):
            fd_wirtinger_hessian(lambda p: 0.0, pt, FdConfig(step=1e-3))
        # the default step still fits inside the 1e-3 margin
        fd_wirtinger_hessian(lambda p: 0.0, pt, FdConfig(step=1e-4, scale_step=False))


def _loop_hessian_reference(f, pt, cfg):
    """The per-entry double loop the pair-shared stencil replaced: every
    ordered entry (a, b) evaluates its own stencil points."""
    chart = chart_for(pt)
    h = _steps(chart, cfg)
    f0 = f(chart.at_offset(np.zeros(chart.dim, dtype=complex)))

    def second_dir(ea, eb, ha, hb):
        if ea is eb and ha == hb:
            up = f(chart.at_offset(ha * ea))
            dn = f(chart.at_offset(-ha * ea))
            return (up - 2.0 * f0 + dn) / (ha.real**2 + ha.imag**2)
        pp = f(chart.at_offset(ha * ea + hb * eb))
        pm = f(chart.at_offset(ha * ea - hb * eb))
        mp = f(chart.at_offset(-ha * ea + hb * eb))
        mm = f(chart.at_offset(-ha * ea - hb * eb))
        return (pp - pm - mp + mm) / (4.0 * abs(ha) * abs(hb))

    def entry(a, b, ha, hb):
        ea = np.zeros(chart.dim, dtype=complex)
        eb = np.zeros(chart.dim, dtype=complex)
        ea[a] = 1.0
        eb[b] = 1.0
        if a == b:
            return 0.25 * (second_dir(ea, ea, ha, ha) + second_dir(ea, ea, 1j * ha, 1j * ha))
        dxx = second_dir(ea, eb, ha, hb)
        dyy = second_dir(ea, eb, 1j * ha, 1j * hb)
        dxy = second_dir(ea, eb, ha, 1j * hb)
        dyx = second_dir(ea, eb, 1j * ha, hb)
        return 0.25 * (dxx + dyy + 1j * (dxy - dyx))

    out = np.empty((chart.dim, chart.dim), dtype=complex)
    for a in range(chart.dim):
        for b in range(chart.dim):
            coarse = entry(a, b, h[a], h[b])
            if cfg.scheme == "central":
                out[a, b] = coarse
            else:
                out[a, b] = (4.0 * entry(a, b, h[a] / 2, h[b] / 2) - coarse) / 3.0
    return out


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_matches_entry_loop_reference(n, domain, scheme):
    # ln det h is the field whose FD Hessian the curvature and Laplacian
    # checks difference; any last-bit change there shows in the reports.
    # The complex field zeta_0 * sum(zeta_bar) has H[0, b] = 1, H[b, 0] = 0:
    # H[b, a] must come from its own differences, not from conj(H[a, b]).
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point(domain, n, np.random.default_rng(300 + n))
    cfg = FdConfig(scheme=scheme)
    fields = [
        builtin_field("lnG", domain, params),
        builtin_field("re_poly(5)", domain),
        lambda q: complex(flatten_point(q)[0] * np.sum(flatten_point(q).conj())),
    ]
    if domain == "jacobi_ball":
        fields.append(lambda q: kahler_potential(params, q))
    for f in fields:
        assert np.array_equal(fd_wirtinger_hessian(f, pt, cfg), _loop_hessian_reference(f, pt, cfg))


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_evaluates_each_stencil_point_once(n, scheme):
    pt = sample_point("jacobi_ball", n, np.random.default_rng(n))
    calls = []
    fd_wirtinger_hessian(lambda p: calls.append(1) or 0.0, pt, FdConfig(scheme=scheme))
    d = n * (n + 3) // 2
    expected = 1 + 4 * d + 8 * d * (d - 1)
    if scheme == "richardson":
        expected = 1 + 8 * d + 16 * d * (d - 1)  # 361 at d = 5
    assert len(calls) == expected


def _complex_field(q):
    """z_0 conj(W_00): complex-valued, a Python complex at one point."""
    v = q.z[..., 0] * np.conj(q.W[..., 0, 0])
    return v.item() if np.ndim(v) == 0 else v


def _broadcasting_fields(domain, params):
    """The closed-form fields that accept a stacked point."""
    fields = [builtin_field("lnG", domain, params)]
    if domain == "jacobi_ball":
        fields += [lambda q: kahler_potential(params, q), _complex_field]
    return fields


def _stacked_matches_per_point(f, pt, cfg):
    return np.array_equal(
        fd_wirtinger_hessian(f, pt, cfg, stacked=True), fd_wirtinger_hessian(f, pt, cfg)
    )


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_hessian_matches_per_point(n, domain, scheme):
    # the per-point Hessian is pinned to the entry loop above; the stacked
    # one must equal it to the last bit, or the seeded reports would move
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point(domain, n, np.random.default_rng(300 + n))
    chart = chart_for(pt)
    offsets = 1e-3 * np.random.default_rng(n).standard_normal((7, chart.dim, 2)) @ [1, 1j]
    for f in _broadcasting_fields(domain, params):
        stacked = f(chart.at_offset(offsets))
        assert np.array_equal(stacked, [f(chart.at_offset(o)) for o in offsets])
        assert _stacked_matches_per_point(f, pt, FdConfig(scheme=scheme))


def test_stacked_identity_catches_broadcast_index_swap(monkeypatch):
    # negative control: a pair block whose index is swapped only over a
    # stack leaves every single-point value intact but must fail the check
    from siegel_jacobi import metric

    fold = metric._fold_pair_metric

    def swapped(M, idx):
        if M.ndim == 2:
            return fold(M, idx)
        P, Q, f = idx.P, idx.Q, idx.f
        A = M.swapaxes(-1, -2)
        grid, cmul = metric._grid, metric._cmul
        return 2.0 * f[:, None] * f * (  # Q for P in the last grid's rows
            cmul(grid(A, P, P), grid(A, Q, Q)) + cmul(grid(A, Q, P), grid(A, Q, Q))
        )

    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", 2, np.random.default_rng(302))
    cases = [
        (builtin_field("lnG", "jacobi_ball", params), pt),
        (builtin_field("lnG", "ball"), pt.ball),
    ]
    per_point = [fd_wirtinger_hessian(f, p) for f, p in cases]
    monkeypatch.setattr(metric, "_fold_pair_metric", swapped)
    for (f, p), H in zip(cases, per_point):
        assert np.array_equal(fd_wirtinger_hessian(f, p), H)
        assert np.all(np.isfinite(fd_wirtinger_hessian(f, p, stacked=True)))  # wrong, not NaN
        assert not _stacked_matches_per_point(f, p, FdConfig())


@pytest.mark.parametrize("scheme", ["central", "richardson"])
def test_stacked_field_called_once_per_hessian(scheme):
    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", 2, np.random.default_rng(2))
    stacks = []

    def f(q):
        stacks.append(q.z.shape[0])
        return kahler_potential(params, q)

    fd_wirtinger_hessian(f, pt, FdConfig(scheme=scheme), stacked=True)
    d = 5
    points = 1 + 4 * d + 8 * d * (d - 1)
    if scheme == "richardson":
        points = 1 + 8 * d + 16 * d * (d - 1)
    assert stacks == [points]


@pytest.mark.parametrize("domain", ["jacobi_ball", "ball", "upper"])
def test_chunked_stacked_hessian_matches_per_point(monkeypatch, domain):
    # a stencil split over several stacked calls still gives the per-point
    # Hessian to the last bit
    from siegel_jacobi import oracle

    monkeypatch.setattr(oracle, "STACK_ENTRIES", 500)  # 20 points at d = 5
    params = MetricParams(n=2, k=4.0, mu=1.0)
    pt = sample_point(domain, 2, np.random.default_rng(7))
    for f in _broadcasting_fields(domain, params):
        assert _stacked_matches_per_point(f, pt, FdConfig())


def test_stacked_lng_stack_size_bounded_at_n8():
    # the stacked field's working set must not grow with the stencil: at
    # n = 8 (d = 44) the 15313 central points go in chunks of at most
    # STACK_ENTRIES // d^2
    from siegel_jacobi.oracle import STACK_ENTRIES

    n, d = 8, 44
    params = MetricParams(n=n, k=4.0, mu=1.0)
    pt = sample_point("jacobi_ball", n, np.random.default_rng(8))
    f = builtin_field("lnG", "jacobi_ball", params)
    stacks = []

    def recorded(q):
        stacks.append(q.z.shape[0])
        return f(q)

    H = fd_wirtinger_hessian(recorded, pt, FdConfig(scheme="central"), stacked=True)
    assert max(stacks) <= STACK_ENTRIES // d**2
    assert sum(stacks) == 1 + 4 * d + 8 * d * (d - 1)
    assert np.all(np.isfinite(H))


def test_stacked_step_too_large():
    W = np.diag([np.sqrt(1 - 1e-3), 0.1]).astype(complex)
    pt = JacobiBallPoint(z=np.zeros(2), W=W)
    calls = []
    with pytest.raises(StepTooLarge):
        fd_wirtinger_hessian(lambda p: calls.append(p), pt, FdConfig(step=1e-3), stacked=True)
    assert calls == []


def test_stacked_field_must_return_one_value_per_point():
    pt = sample_point("jacobi_ball", 1, np.random.default_rng(1))
    with pytest.raises(ValueError, match="one value per stencil point"):
        fd_wirtinger_hessian(lambda p: 0.0, pt, stacked=True)


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
        fd_jacobian(lambda p: act_ball(h, p), pt, hol_tol=1e-7)

    def test_fc_transform_is_not_holomorphic(self, rng):
        # eta = M(z + W zbar) depends on the conjugates; the gate must fire
        pt = sample_point("jacobi_ball", 2, rng)

        def fc_map(p):
            eta, W = fc_transform(p)
            return JacobiBallPoint.trusted(eta, W)

        with pytest.raises(NonHolomorphic):
            fd_jacobian(fc_map, pt, hol_tol=1e-7)


class TestVolumeInvariance:
    def test_identity_element(self, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        defect = volume_invariance_check("jacobi_ball", JacobiElementC.identity(2), pt)
        assert defect < 1e-12

    def test_scalar_moebius(self, rng):
        pt = sample_point("ball", 1, rng)
        h = random_jacobi_c(1, rng)
        assert volume_invariance_check("ball", h, pt) < 1e-6

    @pytest.mark.parametrize("domain", ["ball", "jacobi_ball"])
    def test_random_elements(self, rng, domain):
        for _ in range(5):
            pt = sample_point("jacobi_ball", 2, rng)
            h = random_jacobi_c(2, rng)
            assert volume_invariance_check(domain, h, pt) < 1e-5


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

    def test_corrupted_metric_detected(self):
        rep = fuzz_all(
            n=2, k=4.0, mu=1.0, trials=3, master_seed=7,
            properties="inverse", corruption="h4_scale",
        )
        by_name = {r.property: r for r in rep.results}
        assert not by_name["inverse_identity"].passed
        assert by_name["ball_pair_inverse"].passed
        assert by_name["inverse_identity"].worst is not None
        assert "seed" in by_name["inverse_identity"].worst

    def test_tolerance_override(self):
        rep = fuzz_all(
            n=1, k=4.0, mu=1.0, trials=2, master_seed=3,
            properties=["ball_pair_inverse"], tolerances={"ball_pair_inverse": 1e-30},
        )
        assert not rep.passed

    def test_report_schema(self):
        rep = fuzz_all(n=1, k=4.0, mu=1.0, trials=1, master_seed=0, properties="volume")
        data = rep.to_json()
        for entry in data["properties"]:
            assert set(entry) == {"property", "trials", "max_error", "tol", "pass", "worst"}

    def test_raised_check_reports_null_error(self):
        # a check that raised has an infinite error, which JSON cannot carry
        res = PropertyResult("p", 1, float("inf"), 1e-8, False, {"seed": 0, "point": None})
        assert res.to_json()["max_error"] is None
        assert serialize.dumps(res.to_json())

    def test_groups_cover_all_properties(self):
        names = set().union(*(set(v) for k, v in PROPERTY_GROUPS.items() if k != "all"))
        assert names == set(PROPERTY_GROUPS["all"])

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            fuzz_all(n=1, k=4.0, mu=1.0, properties="bogus")
