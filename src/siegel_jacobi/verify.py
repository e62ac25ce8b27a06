"""Seeded property fuzzer: every package invariant as a named check with a
documented tolerance, aggregated into a deterministic, JSON-serializable
report.

Per-trial RNG streams derive from (master seed, property name, trial index)
through SHA-256, so any reported worst case is reproducible in isolation.
Property failures are data, not exceptions: a check that raises records an
infinite error (``null`` in the JSON report) with the exception text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from . import serialize
from .domains import JacobiBallPoint, SiegelBallPoint, TangentVector, sample_point
from .errors import GeometryError, NonHolomorphic
from .groups import (
    act_ball,
    act_siegel_ball,
    act_upper,
    cayley_conjugate,
    compose_jacobi_c,
    compose_jacobi_r,
    fc_transform,
    inverse_fc_transform,
    inverse_cayley_conjugate,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
    random_symplectic_r,
    act_ball_differential,
    theta,
)
from .laplacian import (
    apply_laplacian,
    builtin_field,
    cayley_chain_rule_check,
    laplacian_coefficients,
    laplacian_correspondence_check,
)
from .metric import (
    MetricParams,
    ball_metric_pair,
    ds2_eval,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
)
from .oracle import (
    FdConfig,
    fd_jacobian,
    fd_wirtinger_hessian,
    volume_invariance_check,
)

__all__ = ["PropertyResult", "FuzzReport", "fuzz_all", "PROPERTY_GROUPS", "PROPERTIES"]

_RICCI_CFG = FdConfig(step=2e-3)  # larger step: the lnG z-block is exactly 0,
#                                   so roundoff, not truncation, sets the noise


@dataclass(frozen=True)
class PropertyResult:
    property: str
    trials: int
    max_error: float
    tol: float
    passed: bool
    worst: dict | None

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "trials": self.trials,
            # a trial that raised has an infinite error; JSON has no inf
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tol": self.tol,
            "pass": self.passed,
            "worst": self.worst,
        }


@dataclass(frozen=True)
class FuzzReport:
    master_seed: int
    n: int
    k: float
    mu: float
    results: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "n": self.n,
            "k": self.k,
            "mu": self.mu,
            "pass": self.passed,
            "properties": [r.to_json() for r in self.results],
        }


@dataclass
class _Ctx:
    params: MetricParams
    corruption: str | None = None


@dataclass(frozen=True)
class _Prop:
    name: str
    group: str
    tol: float
    fn: object
    once: bool = False  # deterministic single-shot checks ignore `trials`


PROPERTIES: dict[str, _Prop] = {}


def _register(name: str, group: str, tol: float, once: bool = False):
    def deco(fn):
        PROPERTIES[name] = _Prop(name, group, tol, fn, once)
        return fn

    return deco


def _pt(ctx: _Ctx, rng) -> JacobiBallPoint:
    return sample_point("jacobi_ball", ctx.params.n, rng)


def _pt_json(pt) -> dict:
    return serialize.point_to_json(pt)


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def _tangent(n: int, rng) -> TangentVector:
    dz = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return TangentVector(dz=dz, dW=0.5 * (A + A.T))


# --------------------------------------------------------------------------
# metric


@_register("metric_fd_match", "metric", 1e-6)
def _metric_fd_match(ctx, rng):
    pt = _pt(ctx, rng)
    ev = metric_blocks(ctx.params, pt)
    H = fd_wirtinger_hessian(lambda q: kahler_potential(ctx.params, q), pt, stacked=True)
    err = float(np.max(np.abs(H - ev.h)) / np.max(np.abs(ev.h)))
    return err, _pt_json(pt)


@_register("metric_positive_definite", "metric", 1e-12)
def _metric_posdef(ctx, rng):
    pt = _pt(ctx, rng)
    lam = float(np.linalg.eigvalsh(metric_blocks(ctx.params, pt).h)[0])
    return max(0.0, -lam), _pt_json(pt)


@_register("det_closed_form", "metric", 1e-10)
def _det_closed(ctx, rng):
    pt = _pt(ctx, rng)
    res = metric_det(ctx.params, pt)
    return abs(res.value / res.closed_form - 1.0), _pt_json(pt)


@_register("det_ratio_law", "metric", 1e-10)
def _det_ratio(ctx, rng):
    pt = _pt(ctx, rng)
    n = ctx.params.n
    origin = JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
    ratio = metric_det(ctx.params, pt).value / metric_det(ctx.params, origin).value
    sign, logdet = np.linalg.slogdet(pt.cross_gram())
    expected = float(np.exp(-(n + 2) * logdet))
    return abs(ratio / expected - 1.0), _pt_json(pt)


@_register("ds2_ball_consistency", "metric", 1e-10)
def _ds2_ball(ctx, rng):
    pt = _pt(ctx, rng).ball
    v = _tangent(ctx.params.n, rng)
    direct = ds2_eval("ball", ctx.params, pt, v)
    hk, _ = ball_metric_pair(pt)
    flat = v.flatten(ctx.params.pair_index)[ctx.params.n :]
    quad = 4.0 * float((flat @ hk @ flat.conj()).real)
    return _rel(abs(direct - quad), abs(quad)), _pt_json(pt)


@_register("cayley_pullback_ds2", "metric", 1e-8)
def _cayley_pullback(ctx, rng):
    pt = _pt(ctx, rng).ball
    v = _tangent(ctx.params.n, rng)
    upper = inverse_partial_cayley(pt)
    U = np.linalg.inv(np.eye(ctx.params.n) - pt.W)
    dV = 2j * U @ v.dW @ U
    ball_val = ds2_eval("ball", ctx.params, pt, v)
    upper_val = ds2_eval(
        "upper", ctx.params, upper, TangentVector(dz=None, dW=0.5 * (dV + dV.T))
    )
    return _rel(abs(upper_val - ball_val), abs(ball_val)), _pt_json(pt)


# --------------------------------------------------------------------------
# inverse


@_register("inverse_identity", "inverse", 1e-10)
def _inverse_identity(ctx, rng):
    pt = _pt(ctx, rng)
    ev = metric_blocks(ctx.params, pt)
    h = ev.h
    if ctx.corruption == "h4_scale":
        h = h.copy()
        h[ctx.params.n :, ctx.params.n :] *= 1.0 + 1e-3
    inv = metric_inverse(ctx.params, pt)
    err = float(np.max(np.abs(h @ inv.h_inv - np.eye(ctx.params.dim))))
    return err, _pt_json(pt)


@_register("ball_pair_inverse", "inverse", 1e-10)
def _ball_pair_inverse(ctx, rng):
    pt = _pt(ctx, rng).ball
    hk, kinv = ball_metric_pair(pt)
    err = float(np.max(np.abs(hk @ kinv - np.eye(hk.shape[0]))))
    return err, _pt_json(pt)


# --------------------------------------------------------------------------
# curvature


def _ricci_fd(ctx, pt):
    f = builtin_field("lnG", "jacobi_ball", ctx.params)
    return -fd_wirtinger_hessian(f, pt, _RICCI_CFG, stacked=f.stacked)


@_register("ricci_fd_match", "curvature", 1e-5)
def _ricci_match(ctx, rng):
    pt = _pt(ctx, rng)
    n = ctx.params.n
    ric = _ricci_fd(ctx, pt)[n:, n:]
    hk, _ = ball_metric_pair(pt.ball)
    closed = -(n + 2) * hk
    err = float(np.max(np.abs(ric - closed)) / np.max(np.abs(closed)))
    return err, _pt_json(pt)


@_register("ricci_z_block", "curvature", 1e-8)
def _ricci_zblock(ctx, rng):
    pt = _pt(ctx, rng)
    n = ctx.params.n
    ric = _ricci_fd(ctx, pt)
    err = max(float(np.max(np.abs(ric[:n, :]))), float(np.max(np.abs(ric[:, :n]))))
    return err, _pt_json(pt)


@_register("scalar_curvature_contraction", "curvature", 1e-5)
def _scalar_contraction(ctx, rng):
    pt = _pt(ctx, rng)
    ric = _ricci_fd(ctx, pt)
    hinv = metric_inverse(ctx.params, pt).h_inv
    s_num = float(np.trace(hinv @ ric).real)
    n = ctx.params.n
    s_closed = -(2.0 / ctx.params.k) * n * (n + 1) * (n + 2) / 2.0
    return abs(s_num / s_closed - 1.0), _pt_json(pt)


# --------------------------------------------------------------------------
# laplacian


@_register("laplacian_lng_identity", "laplacian", 1e-5)
def _lng_identity(ctx, rng):
    pt = _pt(ctx, rng)
    f = builtin_field("lnG", "jacobi_ball", ctx.params)
    val = apply_laplacian("jacobi_ball", ctx.params, f, pt, fd_step=_RICCI_CFG.step)
    n = ctx.params.n
    expected = (2.0 / ctx.params.k) * n * (n + 1) * (n + 2) / 2.0
    return abs(val.real / expected - 1.0) + abs(val.imag), _pt_json(pt)


@_register("laplacian_coeff_consistency", "laplacian", 1e-12)
def _coeff_consistency(ctx, rng):
    pt = _pt(ctx, rng)
    cj = laplacian_coefficients("jacobi_ball", ctx.params, pt).matrix
    err = float(np.max(np.abs(cj - metric_inverse(ctx.params, pt).h_inv)))
    cb = laplacian_coefficients("ball", None, pt.ball).matrix
    _, kinv = ball_metric_pair(pt.ball)
    err = max(err, float(np.max(np.abs(cb - kinv))))
    return err, _pt_json(pt)


@_register("ellipticity", "laplacian", 1e-12)
def _ellipticity(ctx, rng):
    pt = _pt(ctx, rng)
    worst = 0.0
    for domain, p in (
        ("jacobi_ball", pt),
        ("ball", pt.ball),
        ("upper", inverse_partial_cayley(pt.ball)),
    ):
        params = ctx.params if domain == "jacobi_ball" else None
        lam = float(np.linalg.eigvalsh(laplacian_coefficients(domain, params, p).matrix)[0])
        worst = max(worst, -lam)
    return max(0.0, worst), _pt_json(pt)


# --------------------------------------------------------------------------
# invariance


@_register("ds2_invariance", "invariance", 1e-7)
def _ds2_invariance(ctx, rng):
    pt = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    v = _tangent(ctx.params.n, rng)
    J = fd_jacobian(lambda q: act_ball(h, q), pt)
    flat = J @ v.flatten(ctx.params.pair_index)
    idx = ctx.params.pair_index
    moved_v = TangentVector(dz=flat[: ctx.params.n], dW=idx.unpack(flat[ctx.params.n :]))
    before = ds2_eval("jacobi_ball", ctx.params, pt, v)
    after = ds2_eval("jacobi_ball", ctx.params, act_ball(h, pt), moved_v)
    return _rel(abs(before - after), abs(before)), _pt_json(pt)


@_register("laplacian_equivariance", "invariance", 1e-5)
def _laplacian_equivariance(ctx, rng):
    domain = ("jacobi_ball", "ball", "upper")[int(rng.integers(3))]
    f = builtin_field(f"re_poly({int(rng.integers(10**6))})", domain)
    if domain == "jacobi_ball":
        pt = _pt(ctx, rng)
        h = random_jacobi_c(ctx.params.n, rng)
        action = lambda q: act_ball(h, q)
        params = ctx.params
    elif domain == "ball":
        pt = _pt(ctx, rng).ball
        g = random_jacobi_c(ctx.params.n, rng).g
        action = lambda q: SiegelBallPoint(act_siegel_ball(g, q.W))
        params = None
    else:
        pt = sample_point("upper", ctx.params.n, rng)
        h = random_jacobi_r(ctx.params.n, rng)
        action = lambda q: act_upper(h, q)
        params = None
    lhs = apply_laplacian(domain, params, lambda q: f(action(q)), pt)
    rhs = apply_laplacian(domain, params, f, action(pt))
    return _rel(abs(lhs - rhs), abs(rhs)), _pt_json(pt)


@_register("left_action_ball", "invariance", 1e-9)
def _left_action_ball(ctx, rng):
    pt = _pt(ctx, rng)
    h1 = random_jacobi_c(ctx.params.n, rng)
    h2 = random_jacobi_c(ctx.params.n, rng)
    a = act_ball(h1, act_ball(h2, pt))
    b = act_ball(compose_jacobi_c(h1, h2), pt)
    err = max(float(np.max(np.abs(a.z - b.z))), float(np.max(np.abs(a.W - b.W))))
    return err, _pt_json(pt)


@_register("left_action_upper", "invariance", 1e-9)
def _left_action_upper(ctx, rng):
    pt = sample_point("jacobi_upper", ctx.params.n, rng)
    h1 = random_jacobi_r(ctx.params.n, rng)
    h2 = random_jacobi_r(ctx.params.n, rng)
    a = act_upper(h1, act_upper(h2, pt))
    b = act_upper(compose_jacobi_r(h1, h2), pt)
    err = max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.V - b.V))))
    return err, _pt_json(pt)


@_register("action_domain_preservation", "invariance", 1e-14)
def _domain_preservation(ctx, rng):
    pt = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    moved = act_ball(h, pt)  # constructor re-validates
    lam = float(np.linalg.eigvalsh(moved.cross_gram())[0])
    return max(0.0, -lam), _pt_json(pt)


# --------------------------------------------------------------------------
# cayley


@_register("theta_homomorphism", "cayley", 1e-10)
def _theta_hom(ctx, rng):
    h1 = random_jacobi_r(ctx.params.n, rng)
    h2 = random_jacobi_r(ctx.params.n, rng)
    lhs = theta(compose_jacobi_r(h1, h2))
    rhs = compose_jacobi_c(theta(h1), theta(h2))
    err = max(
        float(np.max(np.abs(lhs.g.p - rhs.g.p))),
        float(np.max(np.abs(lhs.g.q - rhs.g.q))),
        float(np.max(np.abs(lhs.alpha - rhs.alpha))),
        abs(lhs.t - rhs.t),
    )
    return err, None


@_register("theta_equivariance", "cayley", 1e-10)
def _theta_equivariance(ctx, rng):
    h = random_jacobi_r(ctx.params.n, rng)
    pt = sample_point("jacobi_upper", ctx.params.n, rng)
    lhs = partial_cayley(act_upper(h, pt))
    rhs = act_ball(theta(h), partial_cayley(pt))
    err = max(float(np.max(np.abs(lhs.z - rhs.z))), float(np.max(np.abs(lhs.W - rhs.W))))
    return err, _pt_json(pt)


@_register("cayley_multiplicative", "cayley", 1e-10)
def _cayley_mult(ctx, rng):
    g1 = random_symplectic_r(ctx.params.n, rng)
    g2 = random_symplectic_r(ctx.params.n, rng)
    lhs = cayley_conjugate(g1 @ g2)
    rhs = cayley_conjugate(g1) @ cayley_conjugate(g2)
    err = max(float(np.max(np.abs(lhs.p - rhs.p))), float(np.max(np.abs(lhs.q - rhs.q))))
    return err, None


@_register("cayley_roundtrip", "cayley", 1e-12)
def _cayley_roundtrip(ctx, rng):
    g = random_symplectic_r(ctx.params.n, rng)
    back = inverse_cayley_conjugate(cayley_conjugate(g))
    err = max(
        float(np.max(np.abs(g.a - back.a))),
        float(np.max(np.abs(g.b - back.b))),
        float(np.max(np.abs(g.c - back.c))),
        float(np.max(np.abs(g.d - back.d))),
    )
    return err, None


@_register("partial_cayley_roundtrip", "cayley", 1e-12)
def _partial_cayley_roundtrip(ctx, rng):
    pt = _pt(ctx, rng)
    back = partial_cayley(inverse_partial_cayley(pt))
    err = max(float(np.max(np.abs(pt.z - back.z))), float(np.max(np.abs(pt.W - back.W))))
    return err, _pt_json(pt)


@_register("fc_roundtrip", "cayley", 1e-12)
def _fc_roundtrip(ctx, rng):
    pt = _pt(ctx, rng)
    eta, W = fc_transform(pt)
    back = inverse_fc_transform(eta, W)
    return float(np.max(np.abs(pt.z - back.z))), _pt_json(pt)


@_register("chain_rule_defect", "cayley", 1e-6)
def _chain_rule(ctx, rng):
    pt = sample_point("upper", ctx.params.n, rng)
    pick = int(rng.integers(3))
    if pick == 0:
        B = rng.standard_normal((ctx.params.n, ctx.params.n))
        B = B + B.T
        f = lambda p: complex(np.trace(B @ p.V))
    elif pick == 1:
        f = lambda p: complex(np.trace(p.V @ p.V))
    else:
        f = builtin_field(f"re_poly({int(rng.integers(10**6))})", "upper")
    return cayley_chain_rule_check(f, pt), _pt_json(pt)


@_register("laplacian_correspondence", "cayley", 1e-5)
def _correspondence(ctx, rng):
    pt = sample_point("upper", ctx.params.n, rng)
    pick = int(rng.integers(2))
    if pick == 0:
        f = builtin_field("trWWbar", "ball")
    else:
        f = builtin_field(f"re_poly({int(rng.integers(10**6))})", "ball")
    # composed rational pullback: roundoff dominates at the default step
    return laplacian_correspondence_check(f, pt, fd_step=3e-4), _pt_json(pt)


@_register("holomorphy_gates", "cayley", 1e-7, once=True)
def _holomorphy(ctx, rng):
    pt = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    worst = 0.0
    try:
        fd_jacobian(lambda q: act_ball(h, q), pt, hol_tol=1e-7)
        fd_jacobian(lambda q: partial_cayley(q), inverse_partial_cayley(pt), hol_tol=1e-7)
    except NonHolomorphic:
        worst = float("inf")
    return worst, _pt_json(pt)


@_register("action_differential_match", "cayley", 1e-6)
def _differential_match(ctx, rng):
    pt = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    v = _tangent(ctx.params.n, rng)
    push = act_ball_differential(h, pt, v)
    J = fd_jacobian(lambda q: act_ball(h, q), pt)
    flat = J @ v.flatten(ctx.params.pair_index)
    idx = ctx.params.pair_index
    err = max(
        float(np.max(np.abs(flat[: ctx.params.n] - push.dz))),
        float(np.max(np.abs(flat[ctx.params.n :] - idx.pack(push.dW)))),
    )
    return err, _pt_json(pt)


# --------------------------------------------------------------------------
# volume


@_register("volume_invariance_ball", "volume", 1e-5)
def _vol_ball(ctx, rng):
    pt = _pt(ctx, rng).ball
    h = random_jacobi_c(ctx.params.n, rng)
    return volume_invariance_check("ball", h, pt), _pt_json(pt)


@_register("volume_invariance_jacobi", "volume", 1e-5)
def _vol_jacobi(ctx, rng):
    pt = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    return volume_invariance_check("jacobi_ball", h, pt), _pt_json(pt)


# --------------------------------------------------------------------------
# kernels


@_register("kernel_potential_tie", "kernels", 1e-12)
def _kernel_tie(ctx, rng):
    pt = _pt(ctx, rng)
    _, kv = K.two_point_kernel(ctx.params, pt, pt)
    f = kahler_potential(ctx.params, pt)
    return _rel(abs(float(np.log(kv.real)) - f), abs(f)), _pt_json(pt)


@_register("kernel_hermitian", "kernels", 1e-12)
def _kernel_hermitian(ctx, rng):
    p1 = _pt(ctx, rng)
    p2 = _pt(ctx, rng)
    _, k12 = K.two_point_kernel(ctx.params, p1, p2)
    _, k21 = K.two_point_kernel(ctx.params, p2, p1)
    return _rel(abs(k12 - np.conj(k21)), abs(k12)), _pt_json(p1)


@_register("kernel_diagonal", "kernels", 1e-12)
def _kernel_diagonal(ctx, rng):
    pt = _pt(ctx, rng)
    kappa, b, D = K.normalized_kernels(ctx.params, pt, pt)
    return max(abs(kappa - 1.0), abs(b - 1.0), abs(D)), _pt_json(pt)


@_register("berezin_bounds", "kernels", 0.0)
def _berezin_bounds(ctx, rng):
    p1 = _pt(ctx, rng)
    p2 = _pt(ctx, rng)
    _, b, D = K.normalized_kernels(ctx.params, p1, p2)
    err = max(0.0, b - (1.0 - 1e-12)) + max(0.0, -b) + max(0.0, -D)
    return err, _pt_json(p1)


@_register("epsilon_balanced", "kernels", 1e-10)
def _epsilon_balanced(ctx, rng):
    pt = _pt(ctx, rng)
    return abs(K.epsilon_function(ctx.params, pt) - 1.0), _pt_json(pt)


@_register("diastasis_symmetry", "kernels", 1e-12)
def _diastasis_symmetry(ctx, rng):
    p1 = _pt(ctx, rng)
    p2 = _pt(ctx, rng)
    _, b12, d12 = K.normalized_kernels(ctx.params, p1, p2)
    _, b21, d21 = K.normalized_kernels(ctx.params, p2, p1)
    return max(abs(b12 - b21), _rel(abs(d12 - d21), abs(d12))), _pt_json(p1)


@_register("diastasis_invariance", "kernels", 1e-7)
def _diastasis_invariance(ctx, rng):
    p1 = _pt(ctx, rng)
    p2 = _pt(ctx, rng)
    h = random_jacobi_c(ctx.params.n, rng)
    _, _, before = K.normalized_kernels(ctx.params, p1, p2)
    _, _, after = K.normalized_kernels(ctx.params, act_ball(h, p1), act_ball(h, p2))
    return _rel(abs(before - after), abs(before)), _pt_json(p1)


# --------------------------------------------------------------------------
# parseval (always n = 1; not reproduced at desk scale for n >= 2)


@_register("parseval_n1", "parseval", 0.02, once=True)
def _parseval(ctx, rng):
    val = K.parseval_check_n1(ctx.params.k, ctx.params.mu)
    return abs(val - 1.0), None


@_register("parseval_mu_stability", "parseval", 1e-3, once=True)
def _parseval_mu(ctx, rng):
    v1 = K.parseval_check_n1(ctx.params.k, ctx.params.mu)
    v2 = K.parseval_check_n1(ctx.params.k, 2.0 * ctx.params.mu)
    return abs(v1 - v2) / abs(v1), None


PROPERTY_GROUPS: dict[str, tuple[str, ...]] = {}
for _p in PROPERTIES.values():
    PROPERTY_GROUPS.setdefault(_p.group, tuple())
    PROPERTY_GROUPS[_p.group] = PROPERTY_GROUPS[_p.group] + (_p.name,)
PROPERTY_GROUPS["all"] = tuple(PROPERTIES)


def _trial_seed(master_seed: int, prop: str, trial: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{prop}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _run_property(prop: _Prop, ctx: _Ctx, master_seed: int, trials: int, tol: float):
    count = 1 if prop.once else trials

    def one(trial: int):
        seed = _trial_seed(master_seed, prop.name, trial)
        rng = np.random.default_rng(seed)
        try:
            err, point = prop.fn(ctx, rng)
        except GeometryError as exc:
            err, point = float("inf"), {"error": f"{type(exc).__name__}: {exc}"}
        return seed, float(err), point

    outcomes = [one(t) for t in range(count)]
    worst_seed, max_err, worst_point = max(outcomes, key=lambda o: o[1])
    worst = None
    if max_err > 0.0 and worst_point is not None:
        worst = {"seed": worst_seed, "point": worst_point}
    elif max_err > 0.0:
        worst = {"seed": worst_seed, "point": None}
    return PropertyResult(
        property=prop.name,
        trials=count,
        max_error=max_err,
        tol=tol,
        passed=bool(max_err <= tol),
        worst=worst,
    )


def fuzz_all(
    n: int,
    k: float,
    mu: float,
    trials: int = 20,
    master_seed: int = 0,
    tolerances: dict[str, float] | None = None,
    properties: str | list[str] = "all",
    corruption: str | None = None,
) -> FuzzReport:
    """Run the named property group (or explicit list) and aggregate a
    deterministic report.  `corruption` enables negative-control hooks
    ("h4_scale" perturbs the metric before the inverse-identity check)."""
    if corruption not in (None, "h4_scale"):
        raise ValueError(f"unknown corruption hook {corruption!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if isinstance(properties, str):
        if properties not in PROPERTY_GROUPS:
            raise ValueError(
                f"unknown property group {properties!r}; "
                f"choose from {sorted(PROPERTY_GROUPS)}"
            )
        names = PROPERTY_GROUPS[properties]
    else:
        names = tuple(properties)
        for name in names:
            if name not in PROPERTIES:
                raise ValueError(f"unknown property {name!r}")
    tolerances = tolerances or {}
    ctx = _Ctx(params=MetricParams(n=n, k=k, mu=mu), corruption=corruption)
    results = []
    for name in names:
        prop = PROPERTIES[name]
        if trials == 0 and not prop.once:
            results.append(
                PropertyResult(name, 0, 0.0, tolerances.get(name, prop.tol), True, None)
            )
            continue
        results.append(
            _run_property(
                prop, ctx, master_seed, trials, tolerances.get(name, prop.tol)
            )
        )
    return FuzzReport(master_seed=master_seed, n=n, k=k, mu=mu, results=tuple(results))
