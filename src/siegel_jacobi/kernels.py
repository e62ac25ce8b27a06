"""Reproducing kernel, normalized Bergman kernel, Berezin kernel, Calabi
diastasis, the epsilon-function witness of balancedness, volume densities,
the normalization constant, and the n = 1 Parseval quadrature check.

Scalar products are antilinear in the first argument: (x, A y) = xbar^t A y.
Fractional determinant powers use the principal logarithm with continuity
tracking along t -> det(1 - t W Vbar), t in [0, 1]; a path whose continuous
argument leaves (-pi, pi) is reported as BranchAmbiguity rather than being
assigned a branch silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import JacobiBallPoint, kept
from .errors import BranchAmbiguity, GammaPoleError, NotConverged, NumericalOverflow
from .metric import MetricParams, kahler_potential

__all__ = [
    "KernelEval",
    "VolumeData",
    "QuadratureSpec",
    "two_point_kernel",
    "normalized_kernels",
    "kernel_eval",
    "epsilon_function",
    "volume_densities",
    "normalization_constant",
    "parseval_check_n1",
]

_MAX_PATH_STEPS = 4096


def _tracked_logdet(W: np.ndarray, Vbar: np.ndarray) -> complex:
    """log det(1 - W Vbar) with the argument tracked continuously from the
    identity (t = 0) to t = 1; raises BranchAmbiguity if the running
    argument crosses +-pi, and NotConverged if a step still turns it by
    pi/2 or more at _MAX_PATH_STEPS steps."""
    eye = np.eye(W.shape[0])
    wv = W @ Vbar
    steps = 8
    while True:
        ts = np.linspace(0.0, 1.0, steps + 1)
        dets = np.linalg.det(eye - ts[:, None, None] * wv)
        if np.any(dets == 0):
            raise BranchAmbiguity("det(1 - t W Vbar) vanishes on the path")
        increments = np.angle(dets[1:] / dets[:-1])
        if np.max(np.abs(increments)) < 0.5 * np.pi:
            break
        if steps >= _MAX_PATH_STEPS:
            raise NotConverged(
                f"argument of det(1 - t W Vbar) still moves by >= pi/2 per step "
                f"after {steps} path steps; its branch cannot be tracked"
            )
        steps *= 2
    # the running argument, summed in order from +0.0 (0.0 + turns a
    # leading -0.0 into +0.0 and leaves every other sum as it is)
    args = 0.0 + np.cumsum(increments)
    crossed = np.flatnonzero(np.abs(args) > np.pi)
    if crossed.size:
        raise BranchAmbiguity(
            f"continuous argument reached {args[crossed[0]]:.4f}; det(1 - W Vbar) "
            "crossed the negative real axis"
        )
    return complex(np.log(abs(dets[-1])), float(args[-1]))


def _two_point_exponent(x, V, y, W) -> complex:
    """F with 2F = 2 (x, U y) + (V ybar, U y) + (x, U W xbar),
    U = (1 - W Vbar)^{-1}."""
    U = np.linalg.inv(np.eye(W.shape[0]) - W @ V.conj())
    two_f = (
        2.0 * np.vdot(x, U @ y)
        + y @ V.conj() @ U @ y
        + np.vdot(x, U @ W @ x.conj())
    )
    return 0.5 * complex(two_f)


@dataclass(frozen=True)
class KernelEval:
    """The kernel quantities at a point pair, as ``sjk eval kernel`` prints
    them; the densities are those of the first point, and Lambda_n is None
    where ``normalization_constant`` raises GammaPoleError."""

    F: complex
    K: complex
    kappa: complex
    berezin: float
    diastasis: float
    epsilon: float
    Q_ball: float
    Q_jacobi: float
    Lambda_n: float | None


def _diagonal_exponent(pt: JacobiBallPoint) -> complex:
    """F(pt, pt), kept on the point.  It takes _two_point_exponent's own
    path, not pt.M or pt.eta: the fuzz checks it against kahler_potential,
    which reads those."""
    return kept(pt, "F_diag", lambda p: _two_point_exponent(p.z, p.W, p.z, p.W))


def _pair_terms(zeta: JacobiBallPoint, zeta2: JacobiBallPoint) -> tuple[complex, complex]:
    """(F(zeta, zeta2), the tracked log det(1 - W2 Wbar1)): the data of a
    point pair that the kernels share."""
    if zeta2 is zeta:
        F = _diagonal_exponent(zeta)
    else:
        F = _two_point_exponent(zeta.z, zeta.W, zeta2.z, zeta2.W)
    return F, _tracked_logdet(zeta2.W, zeta.W.conj())


def _kernel(params: MetricParams, F: complex, ld_mixed: complex) -> complex:
    """K = det(1 - W Vbar)^{-k/2} exp(mu F) from the pair data."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = complex(np.exp(0.5 * params.k * -ld_mixed + params.mu * F))
    if not np.isfinite(K):
        raise NumericalOverflow(f"K at k={params.k}, mu={params.mu} exceeds the float range")
    return K


def two_point_kernel(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint
) -> tuple[complex, complex]:
    """(F, K) with K = det(U)^{k/2} exp(mu F); raises NumericalOverflow
    where K leaves the float range."""
    F, ld_mixed = _pair_terms(zeta, zeta2)
    return F, _kernel(params, F, ld_mixed)


def _normalized(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint,
    F12: complex, ld_mixed: complex,
) -> tuple[complex, float, float]:
    F1, F2 = _diagonal_exponent(zeta), _diagonal_exponent(zeta2)
    log_ball_kappa = 0.5 * params.k * (zeta.logdet_N + zeta2.logdet_N - 2.0 * ld_mixed)
    log_kappa = log_ball_kappa + params.mu * (2.0 * F12 - F1 - F2)
    kappa = complex(np.exp(log_kappa))
    berezin = float(np.exp(2.0 * log_kappa.real))
    diastasis = float(-2.0 * log_kappa.real)
    return kappa, berezin, diastasis


def normalized_kernels(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint
) -> tuple[complex, float, float]:
    """(kappa, berezin, diastasis):

    kappa = kappa_ball(V, W) exp mu [2 F(z,z') - F(z) - F(z')]
    b     = |kappa|^2 in (0, 1], 1 iff the points coincide
    D     = -ln b >= 0, symmetric in its arguments,

    with kappa_ball = det^{k/2}[(1 - V Vbar)(1 - W Wbar) / (1 - W Vbar)^2].
    """
    return _normalized(params, zeta, zeta2, *_pair_terms(zeta, zeta2))


def epsilon_function(params: MetricParams, pt: JacobiBallPoint) -> float:
    """exp(-f) K(z, z); identically 1 exactly because the metric is balanced
    (f = ln K on the diagonal).  Evaluated in log space for stability."""
    F = _diagonal_exponent(pt)
    log_k = -0.5 * params.k * pt.logdet_N + params.mu * F.real
    f = kahler_potential(params, pt)
    return float(np.exp(log_k - f))


def kernel_eval(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint | None = None
) -> KernelEval:
    """Bundle of all two-point quantities (diagonal when zeta2 is omitted);
    the pair data are computed once and shared."""
    other = zeta if zeta2 is None else zeta2
    F, ld_mixed = _pair_terms(zeta, other)
    K = _kernel(params, F, ld_mixed)
    kappa, berezin, diastasis = _normalized(params, zeta, other, F, ld_mixed)
    eps = epsilon_function(params, zeta)
    vol = volume_densities(zeta)
    try:
        lam = normalization_constant(params)
    except GammaPoleError:
        lam = None
    return KernelEval(
        F=F, K=K, kappa=kappa, berezin=berezin, diastasis=diastasis, epsilon=eps,
        Q_ball=vol.Q_ball, Q_jacobi=vol.Q_jacobi, Lambda_n=lam,
    )


@dataclass(frozen=True)
class VolumeData:
    Q_ball: float      # det(1 - W Wbar)^{-(n+1)}
    Q_jacobi: float    # det(1 - W Wbar)^{-(n+2)}


def _finite_exp(x: float, name: str) -> float:
    """float(exp(x)), or NumericalOverflow where it leaves the float range."""
    with np.errstate(over="ignore"):
        value = float(np.exp(x))
    if value == math.inf:
        raise NumericalOverflow(f"{name} = exp({x:.6g}) exceeds the float range")
    return value


def volume_densities(pt) -> VolumeData:
    """The invariant densities at a ball or Jacobi-ball point, n = pt.n;
    raises NumericalOverflow where either leaves the float range."""
    n, logdet = pt.n, pt.logdet_N
    return VolumeData(
        Q_ball=_finite_exp(-(n + 1) * logdet, "Q_ball"),
        Q_jacobi=_finite_exp(-(n + 2) * logdet, "Q_jacobi"),
    )


def normalization_constant(params: MetricParams) -> float:
    """Lambda_n = mu^n (k-3) / (2 pi^{n(n+3)/2})
                  prod_{i=1}^{n-1} ((k-3)/2 - n + i) Gamma(k+i-2)
                                   / Gamma(k + 2(i-n-1)).

    Requires k > 3 (norm integrability), every Gamma argument positive and
    every factor (k-3)/2 - n + i positive: for n >= 2 the smallest factor
    (i = 1) rules out 2n < k <= 2n + 1, where the constant would be <= 0.
    Raises NumericalOverflow where the constant leaves the float range.
    """
    # imported where used: scipy.special adds ~4 MB resident to every process
    from scipy.special import gammaln

    n, k, mu = params.n, params.k, params.mu
    if k <= 3:
        raise GammaPoleError(f"k = {k} <= 3: squared norms are not integrable")
    log_prod = 0.0
    for i in range(1, n):
        for arg in (k + i - 2, k + 2 * (i - n - 1)):
            if arg <= 0:
                raise GammaPoleError(f"Gamma argument {arg} <= 0 (i = {i})")
        factor = (k - 3) / 2.0 - n + i
        if factor <= 0:
            raise GammaPoleError(f"factor (k-3)/2 - n + i = {factor} <= 0 (i = {i})")
        log_prod += np.log(factor) + gammaln(k + i - 2) - gammaln(k + 2 * (i - n - 1))
    log_lambda = (
        n * np.log(mu)
        + np.log(k - 3)
        - np.log(2.0)
        - (n * (n + 3) / 2.0) * np.log(np.pi)
        + log_prod
    )
    return _finite_exp(log_lambda, "Lambda_n")


@dataclass(frozen=True)
class QuadratureSpec:
    """Disk-quadrature resolution.  Radial panels shrink geometrically toward
    the boundary, so the reachable sliver is ~2^-(radial_panels-1) (capped by
    float spacing near 1); its analytic bound ~delta^{(k-3)/2} enters the
    error estimate, so weights close to the k = 3 integrability threshold
    need a looser rtol."""

    radial_panels: int = 48
    radial_order: int = 16
    angular_points: int = 16
    rtol: float = 1e-6

    def __post_init__(self):
        # 1 - 0.5^47 is the last panel edge still < 1 in floats
        if not 2 <= self.radial_panels <= 48:
            raise ValueError(f"radial_panels must be in 2..48, got {self.radial_panels}")
        # the error estimate reruns each panel with radial_order // 2 nodes
        if self.radial_order < 2 or self.radial_order % 2:
            raise ValueError(f"radial_order must be even and >= 2, got {self.radial_order}")
        if self.angular_points < 1:
            raise ValueError(f"angular_points must be >= 1, got {self.angular_points}")
        if not self.rtol > 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")


def _ring_average(u: np.ndarray, k: float, mu: float, angular_points: int) -> np.ndarray:
    """Angle average of Q K^{-1} after the z-integral, at every u = |w|^2."""
    P = 1.0 - u
    # scalar powers: NumPy's array power may differ from them in the last bit
    radial = np.array([p ** (0.5 * k - 3.0) for p in P.ravel()]).reshape(P.shape)
    phis = np.linspace(0.0, 2.0 * np.pi, angular_points, endpoint=False)
    # w[angle, panel, node]
    w = np.sqrt(u) * np.exp(1j * phis)[:, None, None]
    a, b = w.real, w.imag
    # completed square of 2F = (2|z|^2 + z^2 wbar + zbar^2 w)/P: the 2 x 2
    # form [[q00, q01], [q01, q11]], its determinant written out
    q00 = (1.0 + a) / P
    q01 = b / P
    q11 = (1.0 - a) / P
    gaussian = np.pi / (mu * np.sqrt(q00 * q11 - q01 * q01))
    # axis 0 is outermost, so the angles are added in sequence
    return np.sum(gaussian * radial, axis=0) / angular_points


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    # imported where used: scipy.special adds ~4 MB resident to every process
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def parseval_check_n1(k: float, mu: float, spec: QuadratureSpec | None = None) -> float:
    """Norm of the constant function in the weighted Bergman space for n = 1:

        Lambda_1 * Integral_{C x D_1} Q K^{-1} dRe z dIm z dRe w dIm w.

    The z-integral is a 2D Gaussian exp(-mu [x y] Q2 [x y]^t) with
    w-dependent covariance and is done analytically (pi / (mu sqrt(det Q2)));
    the disk integral uses panel-adaptive Gauss-Legendre in u = r^2 and a
    trapezoid average in angle.  Expected value 1.

    All angles, panels and nodes are evaluated as one array, with the 2 x 2
    determinant written out; angles, nodes and panels are each summed in
    sequence, so the result rounds like a scalar loop over them.  Raises
    NotConverged unless the result is finite and positive and its error
    estimate is at most rtol times the result.
    """
    spec = spec or QuadratureSpec()
    lam = normalization_constant(MetricParams(n=1, k=k, mu=mu))

    nodes, weights = _legendre(spec.radial_order)
    nodes_lo, weights_lo = _legendre(spec.radial_order // 2)

    # geometric panels accumulating toward the boundary u = 1; the final
    # sliver [1 - delta, 1) is bounded analytically via P^{(k-5)/2}
    edges = [0.0] + [1.0 - 0.5**j for j in range(1, spec.radial_panels)]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # ring[panel, node]: the high-order nodes, then the low-order ones
    u = mid[:, None] + half[:, None] * np.concatenate([nodes, nodes_lo])
    ring = _ring_average(u, k, mu, spec.angular_points)
    hi_sums = sum(w * col for w, col in zip(weights, ring[:, : len(nodes)].T))
    lo_sums = sum(w * col for w, col in zip(weights_lo, ring[:, len(nodes) :].T))
    value = 0.0
    err_est = 0.0
    for hw, hi_sum, lo_sum in zip(half, hi_sums, lo_sums):
        value += hw * hi_sum
        err_est += hw * abs(hi_sum - lo_sum)
    delta = 1.0 - edges[-1]
    err_est += (np.pi / mu) * delta ** (0.5 * (k - 3.0)) * 2.0 / (k - 3.0)
    value *= 0.5  # dA = r dr dphi = du dphi / 2
    err_est *= 0.5

    result = float(lam * 2.0 * np.pi * value)
    err = err_est * lam * 2.0 * np.pi
    # relative to the result, so a norm that underflows toward 0 cannot pass
    if not (0.0 < result < math.inf and err <= spec.rtol * result):
        rel = err / result if result > 0.0 else math.inf
        raise NotConverged(
            f"quadrature relative error estimate {rel:.3e} (value {result:.3e}) "
            f"exceeds rtol {spec.rtol:.1e}"
        )
    return result
