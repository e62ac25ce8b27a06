"""Seeded property fuzzer: every package invariant as a named check with a
documented tolerance, aggregated into a deterministic, JSON-serializable
report.

Per-trial RNG streams derive from (master seed, property name, trial index)
through SHA-256, so any reported worst case is reproducible in isolation.
Property failures are data, not exceptions: a check that raises a domain
error or ``LinAlgError`` records an infinite error (``null`` in the JSON
report) with the exception text, and a non-finite error fails its property,
whichever trial gives it.

A property that checks several laws lists each law's bound in its docstring
and returns, by ``_worst``, its largest defect weighted by its tolerance over
that law's bound: a trial fails exactly when one law fails or is NaN.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from . import serialize
from .domains import JacobiBallPoint, flatten_point, sample_point
from .errors import GeometryError
from .groups import (
    act_ball,
    act_upper,
    compose_jacobi_c,
    compose_jacobi_r,
    inverse_fc_transform,
    inverse_cayley_conjugate,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
    theta,
)
from .laplacian import builtin_field, laplacian_coefficients
from .metric import (
    MetricParams,
    _fold_pair_metric,
    curvature,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
)
from .oracle import fd_jacobian, fd_wirtinger_gradient, fd_wirtinger_hessian

__all__ = ["PropertyResult", "FuzzReport", "fuzz_all", "PROPERTY_GROUPS", "PROPERTIES"]

_RICCI_STEP = 2e-3  # larger step: the lnG z-block is exactly 0,
#                     so roundoff, not truncation, sets the noise


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
            # a trial that raised has an infinite error; JSON has no inf or NaN
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


def _pt(params: MetricParams, rng) -> JacobiBallPoint:
    return sample_point("jacobi_ball", params.n, rng)


def _worst(*errors: float) -> float:
    """The largest of several law defects, or NaN if any is NaN: the
    builtin ``max`` drops a NaN that does not come first."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def _rel(err: float, scale: float) -> float:
    return err / _worst(1.0, scale)


def _gap(a, b) -> float:
    """max |flatten_point(a) - flatten_point(b)| of two points of one type:
    their largest entry distance, as stored matrix parts are symmetric."""
    return float(np.max(np.abs(flatten_point(a) - flatten_point(b))))


# --------------------------------------------------------------------------
# metric (cayley_pullback_ds2 is the cayley group)


@_register("metric_fd_match", "metric", 1e-6)
def _metric_fd_match(params, rng):
    """h is the FD Wirtinger Hessian of the potential, relative, to 1e-6,
    and positive definite: its least eigenvalue is >= -1e-12."""
    pt = _pt(params, rng)
    ev = metric_blocks(params, pt)
    H = fd_wirtinger_hessian(lambda q: kahler_potential(params, q), pt)
    fd_err = float(np.max(np.abs(H - ev.h)) / np.max(np.abs(ev.h)))
    posdef_err = _worst(0.0, -float(np.linalg.eigvalsh(ev.h)[0]))
    return _worst(fd_err, (1e-6 / 1e-12) * posdef_err), pt


@_register("det_closed_form", "metric", 1e-10)
def _det_closed(params, rng):
    """det h equals its closed form, and its ratio to the origin's is
    det(N)^{-(n+2)}: each to a relative 1e-10."""
    pt = _pt(params, rng)
    n = params.n
    res = metric_det(params, pt)
    origin = JacobiBallPoint(z=np.zeros(n), W=np.zeros((n, n)))
    ratio = res.value / metric_det(params, origin).value
    expected = float(np.exp(-(n + 2) * pt.logdet_N))
    return _worst(abs(res.value / res.closed_form - 1.0), abs(ratio / expected - 1.0)), pt


@_register("cayley_pullback_ds2", "cayley", 1e-8)
def _cayley_pullback(params, rng):
    """The partial Cayley transform carries the upper half-plane's pair
    metric and Laplacian to the ball's.  C is the pair-coordinate matrix of
    the differential dV = 2i U dW U, U = (1 - W)^{-1}: its column j is the
    image of pair j's symmetric unit.  Two laws on that C:

    - pullback: C^T hk(V) conj(C) = hk(W), relative to max |hk(W)|, to
      1e-8; each hk is ``_fold_pair_metric`` of its own point's M;
    - transport: conj(C) Cb(W) C^T = Cu(V), relative to max |Cu(V)|, to
      1e-8; Cb and Cu are the ``laplacian_coefficients`` matrices of the
      ball and the upper half-plane.
    """
    pt = _pt(params, rng).ball
    idx = params.pair_index
    upper = inverse_partial_cayley(pt)
    U = np.linalg.inv(np.eye(params.n) - pt.W)
    C = idx.pack(2j * U @ idx.unpack(np.eye(idx.size)) @ U).T
    hk = _fold_pair_metric(pt.M, idx)
    pulled = C.T @ _fold_pair_metric(upper.M, idx) @ C.conj()
    Cu = laplacian_coefficients("upper", None, upper).matrix
    carried = C.conj() @ laplacian_coefficients("ball", None, pt).matrix @ C.T
    return _worst(
        float(np.max(np.abs(pulled - hk)) / np.max(np.abs(hk))),
        float(np.max(np.abs(carried - Cu)) / np.max(np.abs(Cu))),
    ), pt


# --------------------------------------------------------------------------
# inverse


@_register("inverse_identity", "inverse", 1e-10)
def _inverse_identity(params, rng):
    """h @ h_inv = 1, and the Laplacian coefficient matrices are h_inv on
    the Jacobi ball and (k/2) times its W block on the Siegel ball, each to
    a relative 1e-10: so h > 0 makes both positive definite."""
    pt = _pt(params, rng)
    n = params.n
    ev = metric_blocks(params, pt)
    inv = metric_inverse(params, pt)
    err = float(np.max(np.abs(ev.h @ inv.h_inv - np.eye(params.dim))))
    for C, expected in (
        (laplacian_coefficients("jacobi_ball", params, pt).matrix, inv.h_inv),
        (laplacian_coefficients("ball", params, pt.ball).matrix,
         0.5 * params.k * inv.h_inv[n:, n:]),
    ):
        err = _worst(err, _rel(float(np.max(np.abs(C - expected))), np.max(np.abs(expected))))
    return err, pt


# --------------------------------------------------------------------------
# curvature


@_register("ricci_fd_match", "curvature", 1e-5)
def _ricci_match(params, rng):
    """One FD Hessian H of ln det h checks every field of ``curvature``:

    - Ric = -H: the W-block to a relative 1e-5, and the z rows and columns,
      where Ric is exactly 0, to an absolute 1e-8;
    - trace(C H) = -scalar curvature, C the Laplacian coefficient matrix,
      to 1e-5 in |rel| + |imag|;
    - Q.-K. Lu form = ((n+1)(n+2)/2) h + H, to a relative 1e-5.
    """
    pt = _pt(params, rng)
    n = params.n
    H = fd_wirtinger_hessian(builtin_field("lnG", "jacobi_ball", params), pt, _RICCI_STEP)
    cd = curvature(params, pt)
    defect = np.abs(-H - cd.ric)
    w_err = float(np.max(defect[n:, n:]) / np.max(np.abs(cd.ric[n:, n:])))
    z_err = _worst(float(np.max(defect[:n, :])), float(np.max(defect[:, :n])))
    C = laplacian_coefficients("jacobi_ball", params, pt).matrix
    s = complex(np.trace(C @ H))
    s_err = abs(s.real / -cd.scalar_curvature - 1.0) + abs(s.imag)
    qk = ((n + 1) * (n + 2) / 2.0) * metric_blocks(params, pt).h + H
    q_err = float(np.max(np.abs(cd.qk_lu - qk)) / np.max(np.abs(cd.qk_lu)))
    return _worst(w_err, (1e-5 / 1e-8) * z_err, s_err, q_err), pt


# --------------------------------------------------------------------------
# invariance (action_jacobian's isometry law also carries the Laplacian's equivariance)


@_register("action_jacobian", "invariance", 1e-7)
def _action_jacobian(params, rng):
    """One FD Jacobian J of the action q -> h.q checks three laws of it:

    - isometry: J^T G(h.pt) conj(J) = G(pt), G the metric matrix
      ``metric_blocks(params, .).h``, relative to max |G(pt)|, to 1e-7, so
      the action keeps the metric in every direction;
    - Jacobi volume law: |det J|^2 Q_jacobi(h.pt) / Q_jacobi(pt) = 1, to 1e-5;
    - ball volume law: |det J[n:, n:]|^2 Q_ball(h.pt) / Q_ball(pt) = 1, to
      1e-5; J[n:, n:] is the Jacobian of the ball action W -> g.W, as W's
      image does not depend on z.

    With C = G^{-1} (``inverse_identity``) the isometry law gives
    C(h.pt) = conj(J) C(pt) J^T, and with the chain rule the Laplacian's
    equivariance Delta(f o h)(pt) = (Delta f)(h.pt), which no property
    re-checks.

    ``fd_jacobian`` raises NonHolomorphic when the action fails its
    holomorphy gate.
    """
    n = params.n
    pt = _pt(params, rng)
    h = random_jacobi_c(n, rng)
    J = fd_jacobian(lambda q: act_ball(h, q), pt)
    moved = act_ball(h, pt)
    before = metric_blocks(params, pt).h
    after = J.T @ metric_blocks(params, moved).h @ J.conj()
    law_err = float(np.max(np.abs(after - before)) / np.max(np.abs(before)))
    q, q_moved = K.volume_densities(pt), K.volume_densities(moved)
    jacobi_err = abs(abs(np.linalg.det(J)) ** 2 * q_moved.Q_jacobi / q.Q_jacobi - 1.0)
    ball_err = abs(abs(np.linalg.det(J[n:, n:])) ** 2 * q_moved.Q_ball / q.Q_ball - 1.0)
    return _worst(law_err, 0.01 * jacobi_err, 0.01 * ball_err), pt


@_register("left_action_ball", "invariance", 1e-9)
def _left_action_ball(params, rng):
    pt = _pt(params, rng)
    h1 = random_jacobi_c(params.n, rng)
    h2 = random_jacobi_c(params.n, rng)
    a = act_ball(h1, act_ball(h2, pt))
    b = act_ball(compose_jacobi_c(h1, h2), pt)
    return _gap(a, b), pt


# --------------------------------------------------------------------------
# cayley


@_register("theta_homomorphism", "cayley", 1e-10)
def _theta_hom(params, rng):
    """theta(h1 h2) = theta(h1) theta(h2) entrywise, to 1e-10: its (p, q)
    blocks are the Cayley conjugation's multiplicativity; and
    ``inverse_cayley_conjugate`` undoes the conjugation of h1's symplectic
    part entrywise, to 1e-12.  No realness law is checked: that map takes
    its blocks as Re and Im of p + q and p - q, real for any p and q."""
    h1 = random_jacobi_r(params.n, rng)
    h2 = random_jacobi_r(params.n, rng)
    t1 = theta(h1)
    lhs = theta(compose_jacobi_r(h1, h2))
    rhs = compose_jacobi_c(t1, theta(h2))
    hom_err = _worst(
        float(np.max(np.abs(lhs.g.p - rhs.g.p))),
        float(np.max(np.abs(lhs.g.q - rhs.g.q))),
        float(np.max(np.abs(lhs.alpha - rhs.alpha))),
        abs(lhs.t - rhs.t),
    )
    back = inverse_cayley_conjugate(t1.g)
    round_err = float(np.max(np.abs(h1.g.matrix() - back.matrix())))
    return _worst(hom_err, (1e-10 / 1e-12) * round_err), None


@_register("theta_equivariance", "cayley", 1e-10)
def _theta_equivariance(params, rng):
    h = random_jacobi_r(params.n, rng)
    pt = sample_point("jacobi_upper", params.n, rng)
    lhs = partial_cayley(act_upper(h, pt))
    rhs = act_ball(theta(h), partial_cayley(pt))
    return _gap(lhs, rhs), pt


@_register("partial_cayley_roundtrip", "cayley", 1e-12)
def _partial_cayley_roundtrip(params, rng):
    pt = _pt(params, rng)
    back = partial_cayley(inverse_partial_cayley(pt))
    return _gap(pt, back), pt


@_register("fc_roundtrip", "cayley", 1e-12)
def _fc_roundtrip(params, rng):
    pt = _pt(params, rng)
    return _gap(pt, inverse_fc_transform(pt.eta, pt.W)), pt


# --------------------------------------------------------------------------
# kernels


@_register("kernel_potential_tie", "kernels", 1e-12)
def _kernel_tie(params, rng):
    """ln K(x, x) = f(x), the complex log-kernel against the real potential,
    relative to 1e-12, so a phase of K on the diagonal fails it too.  It
    covers the balancedness witness: ln epsilon = Re ln K(x, x) - f."""
    pt = _pt(params, rng)
    f = kahler_potential(params, pt)
    return _rel(abs(K._log_kernel(params, pt, pt) - f), abs(f)), pt


@_register("berezin_bounds", "kernels", 0.0)
def _berezin_bounds(params, rng):
    """The Berezin kernel of two sampled points is b <= 1 - 1e-12 (tol 0),
    its one law: b = exp(2 Re ln kappa) > 0, and D = -ln b >= 0 is b <= 1."""
    p1 = _pt(params, rng)
    p2 = _pt(params, rng)
    _, b, _ = K.normalized_kernels(params, p1, p2)
    return _worst(0.0, b - (1.0 - 1e-12)), p1


def _sesquiholomorphy_defect(params, x, y) -> float:
    """The larger of max |d/dx ln K(x, y)| and max |d/dybar ln K(x, y)|,
    each from one stacked FD gradient and relative (``_rel``) to the
    largest entry of the half of its gradient that does not vanish."""
    dx, dxbar = fd_wirtinger_gradient(lambda q: K._log_kernel(params, q, y), x)
    dy, dybar = fd_wirtinger_gradient(lambda q: K._log_kernel(params, x, q), y)
    top = lambda a: float(np.max(np.abs(a)))
    return _worst(_rel(top(dx), top(dxbar)), _rel(top(dybar), top(dy)))


@_register("kernel_sesquiholomorphy", "kernels", 1e-8)
def _kernel_sesquiholomorphy(params, rng):
    """ln K(x, y) is antiholomorphic in x and holomorphic in y, to 1e-8
    (``_sesquiholomorphy_defect``).  A function holomorphic in (xbar, y)
    that vanishes on the diagonal vanishes everywhere (Calabi's polarisation
    lemma, Ann. of Math. 1953), so this law and ``kernel_potential_tie`` fix
    K everywhere, its Hermitian symmetry included.  Swapping the points
    leaves the Berezin kernel b and the diastasis D unchanged: b absolute
    and D relative, each to 1e-12."""
    x = _pt(params, rng)
    y = _pt(params, rng)
    _, b12, d12 = K.normalized_kernels(params, x, y)
    _, b21, d21 = K.normalized_kernels(params, y, x)
    swap_err = _worst(abs(b12 - b21), _rel(abs(d12 - d21), abs(d12)))
    return _worst(_sesquiholomorphy_defect(params, x, y), (1e-8 / 1e-12) * swap_err), x


# --------------------------------------------------------------------------
# parseval (always n = 1; n >= 2 waits for a ray-quadrature oracle, ROADMAP
# item 1): one property, each norm computed once


@_register("parseval_n1", "parseval", 0.02, once=True)
def _parseval(params, rng):
    """The n = 1 norm of the constant function is 1, to 0.02 absolute, and
    does not move when mu doubles, to 1e-3 relative: at mu = 1 a power of
    mu in Lambda_1 passes the first law and fails the second."""
    v1 = K.parseval_check_n1(params.k, params.mu)
    v2 = K.parseval_check_n1(params.k, 2.0 * params.mu)
    return _worst(abs(v1 - 1.0), (0.02 / 1e-3) * abs(v1 - v2) / abs(v1)), None


PROPERTY_GROUPS: dict[str, tuple[str, ...]] = {}
for _p in PROPERTIES.values():
    PROPERTY_GROUPS.setdefault(_p.group, tuple())
    PROPERTY_GROUPS[_p.group] = PROPERTY_GROUPS[_p.group] + (_p.name,)
PROPERTY_GROUPS["all"] = tuple(PROPERTIES)


def _trial_seed(master_seed: int, prop: str, trial: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{prop}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _run_property(prop: _Prop, params: MetricParams, master_seed: int, trials: int):
    count = 1 if prop.once else trials

    def one(trial: int):
        seed = _trial_seed(master_seed, prop.name, trial)
        rng = np.random.default_rng(seed)
        try:
            # a non-finite result fails the trial; numpy's warning adds nothing
            with np.errstate(all="ignore"):
                err, point = prop.fn(params, rng)
        except (GeometryError, np.linalg.LinAlgError) as exc:
            return seed, float("inf"), {"error": f"{type(exc).__name__}: {exc}"}
        return seed, float(err), point

    outcomes = [one(t) for t in range(count)]
    # a NaN error, which compares as nothing, ranks with inf above every finite one
    worst_seed, max_err, worst_point = max(
        outcomes, key=lambda o: math.inf if math.isnan(o[1]) else o[1], default=(None, 0.0, None)
    )
    worst = None
    if not max_err <= 0.0:  # NaN included
        if worst_point is not None and not isinstance(worst_point, dict):  # not an error record
            worst_point = serialize.point_to_json(worst_point)
        worst = {"seed": worst_seed, "point": worst_point}
    return PropertyResult(
        property=prop.name,
        trials=count,
        max_error=max_err,
        tol=prop.tol,
        passed=bool(max_err <= prop.tol),
        worst=worst,
    )


def fuzz_all(
    n: int,
    k: float,
    mu: float,
    trials: int = 20,
    master_seed: int = 0,
    properties: str | list[str] = "all",
) -> FuzzReport:
    """Run the named property group (or explicit list) and aggregate a
    deterministic report, each property at its registered tolerance."""
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
    params = MetricParams(n=n, k=k, mu=mu)
    results = tuple(_run_property(PROPERTIES[name], params, master_seed, trials) for name in names)
    return FuzzReport(master_seed=master_seed, n=n, k=k, mu=mu, results=results)
