"""Reproducing kernel, normalized Bergman kernel, Berezin kernel, Calabi
diastasis, the epsilon-function witness of balancedness, volume densities,
the normalization constant, and the n = 1 Parseval quadrature check (one
Gauss-Jacobi rule in u = |w|^2 with the weight (1 - u)^{(k-5)/2}, its nodes
computed once per (order, weight), and an equally spaced angle average).

Scalar products are antilinear in the first argument: (x, A y) = xbar^t A y.
Fractional determinant powers take the one branch of log det(1 - W Vbar)
continuous on D x D and 0 at the origin (Faraut & Koranyi, J. Funct. Anal.
1990, define h(z, w)^{-nu} so), in closed form: sum_i Log(1 - lam_i) over
the eigenvalues of W Vbar, exact because |lam_i| < 1 on ball points keeps
every factor 1 - t lam_i in the right half-plane.

Every kernel quantity comes from the one log-kernel (``_log_kernel``)
ln K(x, y) = mu F(x, y) - (k/2) log det(1 - W_y Wbar_x): K = exp ln K;
kappa = exp(2 ln K(x, y) - ln K(x, x) - ln K(y, y)) = K(x, y)^2 / (K(x, x)
K(y, y)), the square of the textbook normalized kernel K(x, y) / sqrt(K(x, x)
K(y, y)), with the Berezin kernel and the diastasis from its real part; and
epsilon = exp(Re ln K(x, x) - f).  The kernels broadcast over the leading
axes of stacked points, each stacked value equal to its pair's to the bit.

The data of a point pair that do not depend on (k, mu), the exponent
F(x, y) and the tracked log det(1 - W_y Wbar_x), are computed once and kept
on x (``domains.kept_pair``, for the last partner y only; ``domains.kept``
for the diagonal pair), so the kernels at the same ordered pair of point
objects, at any (k, mu), only scale and exponentiate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import JacobiBallPoint, _dot, _item, _matvec, _vecmat, kept, kept_pair
from .errors import DimensionMismatch, GammaPoleError, NotConverged, NumericalOverflow
from .metric import MetricParams, kahler_potential

__all__ = [
    "KernelEval",
    "VolumeData",
    "two_point_kernel",
    "normalized_kernels",
    "kernel_eval",
    "epsilon_function",
    "volume_densities",
    "normalization_constant",
    "parseval_check_n1",
]


def _tracked_logdet(W: np.ndarray, Vbar: np.ndarray):
    """The branch of log det(1 - t W Vbar) continuous in t from 0 (the
    identity) to 1, in closed form: sum_i Log(1 - lam_i) over the
    eigenvalues lam_i of W Vbar.  On ball points |W|_op, |V|_op < 1, so
    |lam_i| < 1 and every factor 1 - t lam_i stays in the right half-plane,
    where the principal Log is continuous.  Its imaginary part may leave
    [-pi, pi]: it is then not the principal log of det(1 - W Vbar), but it
    is still the one branch that makes K continuous and sesqui-holomorphic."""
    return np.sum(np.log(1.0 - np.linalg.eigvals(W @ Vbar)), axis=-1)


def _two_point_exponent(x, V, y, W):
    """F with 2F = 2 (x, U y) + (V ybar, U y) + (x, U W xbar),
    U = (1 - W Vbar)^{-1}."""
    xbar, Vbar = x.conj(), V.conj()
    U = np.linalg.inv(np.eye(W.shape[-1]) - W @ Vbar)
    two_f = (
        2.0 * _dot(xbar, _matvec(U, y))
        + _dot(_vecmat(_vecmat(y, Vbar), U), y)
        + _dot(xbar, _matvec(U @ W, xbar))
    )
    return 0.5 * two_f


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


def _diagonal_exponent(pt: JacobiBallPoint):
    """F(pt, pt) on _two_point_exponent's own path, not pt.M or pt.eta: the
    fuzz checks it against kahler_potential, which reads those."""
    return _two_point_exponent(pt.z, pt.W, pt.z, pt.W)


def _pair_data(zeta: JacobiBallPoint, zeta2: JacobiBallPoint):
    if zeta.n != zeta2.n:
        raise DimensionMismatch("points of different dimension")
    return (
        _two_point_exponent(zeta.z, zeta.W, zeta2.z, zeta2.W),
        _tracked_logdet(zeta2.W, zeta.W.conj()),
    )


def _pair_terms(zeta: JacobiBallPoint, zeta2: JacobiBallPoint):
    """(F(zeta, zeta2), the tracked log det(1 - W2 Wbar1)): the data of a
    point pair that the kernels share, kept on zeta for its last partner
    (``kept_pair``); those of the diagonal pair depend on zeta alone and are
    kept like its Gram data."""
    if zeta2 is zeta:
        return kept(
            zeta, "diag_terms", lambda p: (_diagonal_exponent(p), _tracked_logdet(p.W, p.W.conj()))
        )
    return kept_pair(zeta, zeta2, "pair_terms", _pair_data)


def _log_kernel(params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint):
    """ln K = mu F - (k/2) log det(1 - W2 Wbar1) from the kept pair data:
    the one log-kernel that every kernel quantity is formed from.  Raises
    DimensionMismatch unless all three n agree (the pair data check the
    points' n once, when they are formed)."""
    if params.n != zeta.n:
        raise DimensionMismatch("params and points of different dimension")
    F, ld = _pair_terms(zeta, zeta2)
    return params.mu * F - 0.5 * params.k * ld


def two_point_kernel(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint
) -> tuple[complex, complex]:
    """(F, K) with K = exp ln K = det(U)^{k/2} exp(mu F); raises
    NumericalOverflow where K leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.exp(_log_kernel(params, zeta, zeta2))
    F, _ = _pair_terms(zeta, zeta2)
    if not all(np.isfinite(K).flat):
        raise NumericalOverflow(f"K at k={params.k}, mu={params.mu} exceeds the float range")
    return _item(F), _item(K)


def normalized_kernels(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint
) -> tuple[complex, float, float]:
    """(kappa, berezin, diastasis):

    ln kappa = 2 ln K(z, z') - ln K(z, z) - ln K(z', z'),
               so kappa = K(z, z')^2 / (K(z, z) K(z', z'))
    b        = |kappa|^2 in (0, 1], 1 iff the points coincide
    D        = -ln b >= 0, symmetric in its arguments.

    kappa is the square of the textbook normalized kernel
    K(z, z') / sqrt(K(z, z) K(z', z')); at z' = z it is exactly 1.
    """
    log_kappa = (
        2.0 * _log_kernel(params, zeta, zeta2)
        - _log_kernel(params, zeta, zeta)
        - _log_kernel(params, zeta2, zeta2)
    )
    log_b = 2.0 * log_kappa.real
    # 0 - log_b, not -log_b: D = +0.0 where log_b is exactly 0 (a diagonal pair)
    return _item(np.exp(log_kappa)), _item(np.exp(log_b)), _item(0.0 - log_b)


def epsilon_function(params: MetricParams, pt: JacobiBallPoint) -> float:
    """exp(-f) K(z, z) = exp(Re ln K(z, z) - f); identically 1 exactly
    because the metric is balanced (f = ln K on the diagonal)."""
    return _item(np.exp(_log_kernel(params, pt, pt).real - kahler_potential(params, pt)))


def kernel_eval(
    params: MetricParams, zeta: JacobiBallPoint, zeta2: JacobiBallPoint | None = None
) -> KernelEval:
    """Bundle of all two-point quantities (diagonal when zeta2 is omitted);
    the pair data are computed once and kept."""
    other = zeta if zeta2 is None else zeta2
    F, K = two_point_kernel(params, zeta, other)
    kappa, berezin, diastasis = normalized_kernels(params, zeta, other)
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
    """float(exp(x)), or NumericalOverflow where it is not finite: where it
    leaves the float range, or where x is NaN."""
    with np.errstate(over="ignore"):
        value = float(np.exp(x))
    if not value < math.inf:
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
        # at k >~ 2.5e305 both gammaln are inf: a NaN, which _finite_exp reports
        with np.errstate(invalid="ignore"):
            log_prod += np.log(factor) + gammaln(k + i - 2) - gammaln(k + 2 * (i - n - 1))
    log_lambda = (
        n * np.log(mu)
        + np.log(k - 3)
        - np.log(2.0)
        - (n * (n + 3) / 2.0) * np.log(np.pi)
        + log_prod
    )
    return _finite_exp(log_lambda, "Lambda_n")


# the n = 1 Parseval rule: Gauss-Jacobi nodes in u = |w|^2 (the error
# estimate reruns it at half the order), equally spaced angles, and the
# largest error estimate accepted, relative to the norm
RADIAL_ORDER = 24
ANGLES = 16
RTOL = 1e-6


@lru_cache(maxsize=32)
def _jacobi_rule(order: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes u in [0, 1] and weights for the weight (1 - u)^s,
    computed once per (order, s)."""
    # imported where used: scipy.special adds ~4 MB resident to every process
    from scipy.special import roots_jacobi

    try:
        x, weights = roots_jacobi(order, s, 0.0)
    except ValueError:  # at k >~ 1e190 its Jacobi matrix holds infs: no rule, so a NaN norm
        x = weights = np.full(order, math.nan)
    # u = (1 + x)/2 maps [-1, 1] onto [0, 1]: (1 - x)^s dx = 2^{s+1} (1 - u)^s du
    u, weights = 0.5 * (1.0 + x), weights * 0.5 ** (s + 1.0)
    u.flags.writeable = weights.flags.writeable = False
    return u, weights


def _ring_average(u: np.ndarray, k: float, mu: float, s: float) -> np.ndarray:
    """Angle average of Q K^{-1} after the z-integral, divided by the weight
    (1 - u)^s, at every u = |w|^2."""
    P = 1.0 - u
    # w[angle, node]
    w = np.sqrt(u) * np.exp(1j * np.arange(ANGLES) * (2.0 * np.pi / ANGLES))[:, None]
    a, b = w.real, w.imag
    # completed square of 2F = (2|z|^2 + z^2 wbar + zbar^2 w)/P: the 2 x 2
    # form [[q00, q01], [q01, q11]], its determinant written out
    q00 = (1.0 + a) / P
    q01 = b / P
    q11 = (1.0 - a) / P
    gaussian = np.pi / (mu * np.sqrt(q00 * q11 - q01 * q01))
    # the radial factor P^{k/2-3} over the weight as one power, so neither underflows
    return gaussian.mean(axis=0) * P ** (0.5 * k - 3.0 - s)


def parseval_check_n1(k: float, mu: float) -> float:
    """Norm of the constant function in the weighted Bergman space for n = 1:

        Lambda_1 * Integral_{C x D_1} Q K^{-1} dRe z dIm z dRe w dIm w.

    The z-integral is a 2D Gaussian exp(-mu [x y] Q2 [x y]^t) with
    w-dependent covariance and is done analytically (pi / (mu sqrt(det Q2)));
    the disk integral is a Gauss-Jacobi rule in u = |w|^2 with the weight
    (1 - u)^s, s = (k - 5)/2, and a trapezoid average in angle.  Expected
    value 1.

    Raises NotConverged unless the result is finite and positive and the
    difference from the rule at half the order is at most RTOL times the
    result; above k ~ 2070 the Gauss-Jacobi weights leave the float range
    (above ~1e190 scipy forms no rule), and that is reported the same way.
    """
    lam = normalization_constant(MetricParams(n=1, k=k, mu=mu))
    s = 0.5 * (k - 5.0)
    with np.errstate(all="ignore"):
        # dA = r dr dphi = du dphi / 2; the angle average carries the 2 pi
        value, value_lo = (
            float(lam * np.pi * (weights @ _ring_average(u, k, mu, s)))
            for u, weights in (_jacobi_rule(RADIAL_ORDER, s), _jacobi_rule(RADIAL_ORDER // 2, s))
        )
        err = abs(value - value_lo)
    # relative to the result, which must be finite and positive
    if not (0.0 < value < math.inf and err <= RTOL * value):
        rel = err / value if 0.0 < value < math.inf else math.inf
        raise NotConverged(
            f"quadrature relative error estimate {rel:.3e} (value {value:.3e}) "
            f"exceeds rtol {RTOL:.1e}"
        )
    return value
