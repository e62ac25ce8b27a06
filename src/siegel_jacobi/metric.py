"""Balanced metric of the Siegel-Jacobi ball: Kaehler potential, the four
closed-form blocks, their closed-form inverse, determinant, the Siegel-ball
sub-metric with its paired inverse, curvature data, and metric evaluation on
tangent vectors.

Block layout over the coordinates (z_1..z_n, ordered pairs of W):

    h = [[h1, h2],     h1: n x n        h2: n x m     (m = n(n+1)/2)
         [h3, h4]]     h3 = h2*         h4: m x m

with auxiliary data M = (1 - W Wbar)^{-1}, eta = M (z + W zbar), and the
half-weights f_pq = 1 - delta_pq / 2 that absorb the symmetric double
counting.  Each pair block is a single expression over the index arrays
``PairIndex.P, Q, f``; the Siegel-ball block is

    hk_pq,mn = 2 f_pq f_mn (M_mp M_nq + M_mq M_np).

N, M and eta are the point's own Gram data (see ``domains``); the metric
keeps its own point data on the point by ``domains.kept`` too, one entry per
family of closed forms: the (k, mu)-free terms ``h_terms`` (hk, Mbar, the h2
core and hmu) and ``inv_terms`` (alpha, Nbar, Sbar S^t, the hinv2 core and
k_inv), so that each closed form only scales and assembles them.  Nothing
that depends on (k, mu) is kept, and every result is a new, writable array.
``h @ metric_inverse(...).h_inv`` is the literal identity in this
ordered-pair indexing.

``kahler_potential``, ``metric_det``, ``ball_metric_pair``
and ``upper_metric_pair`` broadcast over leading axes of a trusted point
(z of shape (..., n), W of shape (..., n, n)), so a finite-difference
stencil is evaluated in one call.  A single point is the case with no
leading axis; each stacked value equals the single-point value to the last
bit, because every product, matrix product and factorisation runs per
point exactly as it does alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import JacobiBallPoint, PairIndex, SiegelBallPoint, SiegelUpperPoint, TangentVector
from .domains import _dot, _item, _matvec, _vecmat, flatten_point, kept
from .errors import DimensionMismatch, NumericalOverflow

__all__ = [
    "MetricParams",
    "MetricEval",
    "MetricInverse",
    "DetResult",
    "CurvatureData",
    "kahler_potential",
    "metric_blocks",
    "metric_inverse",
    "metric_det",
    "ball_metric_pair",
    "upper_metric_pair",
    "curvature",
    "ds2_eval",
]


@dataclass(frozen=True)
class MetricParams:
    """Dimension and the two positive weights of the balanced metric."""

    n: int
    k: float
    mu: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0 < self.k < math.inf and 0 < self.mu < math.inf):
            raise ValueError(
                f"weights k and mu must be positive and finite, got k={self.k!r}, mu={self.mu!r}"
            )
        if self.nonintegral_weight:
            warnings.warn(
                "2k is not a non-negative integer; the geometry is well "
                "defined but outside the discrete-series weight range",
                stacklevel=2,
            )

    @property
    def nonintegral_weight(self) -> bool:
        return abs(2 * self.k - round(2 * self.k)) > 1e-9

    @property
    def pair_index(self) -> PairIndex:
        return PairIndex(self.n)

    @property
    def dim(self) -> int:
        return self.pair_index.total_dim


def _kept(params: MetricParams, pt: JacobiBallPoint, key: str, compute):
    """compute(pt), kept on pt (``domains.kept``); the dimension check runs
    on every call."""
    if params.n != pt.n:
        raise DimensionMismatch("params and point of different dimension")
    return kept(pt, key, compute)


def _assemble(h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, h4: np.ndarray) -> np.ndarray:
    """[[h1, h2], [h3, h4]] written into one new array, which costs less than
    a general block builder at these sizes; broadcasts over leading axes."""
    n = h1.shape[-1]
    h = np.empty(h4.shape[:-2] + (n + h4.shape[-1],) * 2, dtype=complex)
    h[..., :n, :n] = h1
    h[..., :n, n:] = h2
    h[..., n:, :n] = h3
    h[..., n:, n:] = h4
    return h


def kahler_potential(params: MetricParams, pt: JacobiBallPoint) -> float:
    """f = -(k/2) log det(1 - W Wbar)
          + mu [ zbar^t M z + Re(z^t Wbar M z) ]."""
    if params.n != pt.n:
        raise DimensionMismatch("params and point of different dimension")
    z = pt.z
    quad = _dot(z.conj(), _matvec(pt.M, z)).real + _dot(_vecmat(z, pt.W.conj() @ pt.M), z).real
    return _item(-0.5 * params.k * pt.logdet_N + params.mu * quad)


def _grid(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The pair x pair matrix A[..., rows[i], cols[j]] (two gathers, which
    cost less than one fancy index over leading axes)."""
    return A.take(rows, -2).take(cols, -1)


def _fold_pair_metric(M: np.ndarray, idx: PairIndex) -> np.ndarray:
    """Ordered-pair matrix of the quadratic form Tr(M dW Mbar dWbar):
    entry[(p,q),(m,n)] = 2 f_pq f_mn (M_mp M_nq + M_mq M_np)."""
    P, Q, f = idx.P, idx.Q, idx.f
    A = M.swapaxes(-1, -2)
    return 2.0 * f[:, None] * f * (
        _grid(A, P, P) * _grid(A, Q, Q) + _grid(A, Q, P) * _grid(A, P, Q)
    )


def _pair_metric_inverse(N: np.ndarray, idx: PairIndex) -> np.ndarray:
    """entry[(m,n),(u,v)] = (N_vn Nbar_mu + N_vm Nbar_nu) / 2."""
    P, Q = idx.P, idx.Q
    A, Nb = N.swapaxes(-1, -2), N.conj()
    return 0.5 * (
        _grid(A, Q, Q) * _grid(Nb, P, P) + _grid(A, P, Q) * _grid(Nb, Q, P)
    )


def ball_metric_pair(W) -> tuple[np.ndarray, np.ndarray]:
    """Siegel-ball pair metric h^k and its inverse k_inv over ordered pairs;
    h^k @ k_inv is the identity."""
    pt = W if isinstance(W, SiegelBallPoint) else SiegelBallPoint(W)
    idx = PairIndex(pt.n)
    return _fold_pair_metric(pt.M, idx), _pair_metric_inverse(pt.N, idx)


def upper_metric_pair(pt: SiegelUpperPoint) -> tuple[np.ndarray, np.ndarray]:
    """Upper-half-plane analogue: the pair form of (1/4) Tr(R^{-1} dV R^{-1}
    dVbar) and its inverse 2(R_vn R_mu + R_vm R_nu)."""
    return _upper_pair_metric(pt), _upper_pair_inverse(pt)


def _upper_pair_metric(pt: SiegelUpperPoint) -> np.ndarray:
    """The first half of ``upper_metric_pair``: its callers that read only
    the metric build no inverse."""
    return _fold_pair_metric((0.5 * np.linalg.inv(pt.R)).astype(complex), PairIndex(pt.n))


def _upper_pair_inverse(pt: SiegelUpperPoint) -> np.ndarray:
    """The second half of ``upper_metric_pair``."""
    return _pair_metric_inverse((2.0 * pt.R).astype(complex), PairIndex(pt.n))


@dataclass(frozen=True)
class MetricEval:
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    h: np.ndarray


def metric_blocks(params: MetricParams, pt: JacobiBallPoint) -> MetricEval:
    """Closed-form blocks of the balanced metric.

    h1_ij      = mu Mbar_ij
    h2_i,pq    = mu (eta_q Mbar_ip + eta_p Mbar_iq) f_pq
    h3         = h2*
    h4_pq,mn   = (k/2) hk_pq,mn + mu hmu_pq,mn with
    hmu_pq,mn  = [etab_p (eta_n Mbar_qm + eta_m Mbar_qn)
                  + etab_q (eta_n Mbar_pm + eta_m Mbar_pn)] f_pq f_mn.
    """
    return _blocks(params, pt)


def _h_terms(
    pt: JacobiBallPoint, idx: PairIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (k, mu)-free parts of h1, h2 and h4: the Siegel-ball pair form
    hk of M, Mbar, X_i,pq = eta_q Mbar_ip + eta_p Mbar_iq and hmu."""
    P, Q, f = idx.P, idx.Q, idx.f
    Mb = pt.M.conj()
    eta = pt.eta
    etab = eta.conj()
    eQ, eP = eta.take(Q, -1)[..., None, :], eta.take(P, -1)[..., None, :]
    MP, MQ = Mb.take(P, -1), Mb.take(Q, -1)
    X = eQ * MP + eP * MQ
    # hmu_pq,mn = (etab_p X_q,mn + etab_q X_p,mn) f_pq f_mn
    hmu = f[:, None] * f * (
        etab.take(P, -1)[..., None] * X.take(Q, -2) + etab.take(Q, -1)[..., None] * X.take(P, -2)
    )
    return _fold_pair_metric(pt.M, idx), Mb, X, hmu


def _blocks(params: MetricParams, pt: JacobiBallPoint) -> MetricEval:
    hk, Mb, X, hmu = _kept(params, pt, "h_terms", lambda p: _h_terms(p, params.pair_index))
    mu, k = params.mu, params.k

    h1 = mu * Mb
    h2 = mu * params.pair_index.f * X
    h3 = h2.conj().swapaxes(-1, -2)
    h4 = 0.5 * k * hk + mu * hmu
    return MetricEval(h1=h1, h2=h2, h3=h3, h4=h4, h=_assemble(h1, h2, h3, h4))


@dataclass(frozen=True)
class MetricInverse:
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    h_inv: np.ndarray


def _inv_terms(
    pt: JacobiBallPoint, idx: PairIndex
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (k, mu)-free parts of the inverse blocks, with S_n = sum_q eta_q
    Nbar_qn: alpha = eta^t Nbar conj(eta) >= 0, Nbar, Sbar_i S_j,
    Y_i,mn = S_n Nbar_im + S_m Nbar_in and the Siegel-ball pair inverse
    k_inv."""
    P, Q = idx.P, idx.Q
    Nb = pt.N.conj()
    S = _vecmat(pt.eta, Nb)
    alpha = _item(_dot(S, pt.eta.conj()).real)
    Y = S[Q] * Nb[:, P] + S[P] * Nb[:, Q]
    return alpha, Nb, np.outer(S.conj(), S), Y, _pair_metric_inverse(pt.N, idx)


def metric_inverse(params: MetricParams, pt: JacobiBallPoint) -> MetricInverse:
    """Closed-form inverse blocks.

    hinv1_ij    = (1/mu + alpha/k) Nbar_ij + Sbar_i S_j / k
    hinv2_i,mn  = -(S_n Nbar_im + S_m Nbar_in) / k
    hinv3       = hinv2*
    hinv4_pq,mn = (Nbar_qn Nbar_pm + Nbar_pn Nbar_qm) / k

    The rank-one term in hinv1 comes from hinv2 @ h3 =
    -(mu/k)(alpha delta_ik + Sbar_i eta_k); for n = 1 it collapses into the
    scalar and hinv1 reduces to (1/mu + 2 alpha/k) Nbar.
    hinv4 is the Siegel-ball pair inverse scaled by 2/k.
    """
    alpha, Nb, SS, Y, k_inv = _kept(
        params, pt, "inv_terms", lambda p: _inv_terms(p, params.pair_index)
    )
    k = params.k

    i1 = (1.0 / params.mu + alpha / k) * Nb + SS / k
    i2 = -Y / k
    i3 = i2.conj().T
    i4 = k_inv / (0.5 * k)

    return MetricInverse(h1=i1, h2=i2, h3=i3, h4=i4, h_inv=_assemble(i1, i2, i3, i4))


@dataclass(frozen=True)
class DetResult:
    value: float        # determinant of the assembled matrix
    closed_form: float  # C(n) (k/2)^{n(n+1)/2} mu^n det(N)^{-(n+2)}
    constant_C: float   # 2^{n(n-1)/2}


def metric_det(params: MetricParams, pt: JacobiBallPoint) -> DetResult:
    """Determinant of the assembled metric and its closed form.

    Raises NumericalOverflow when either value leaves the float range, e.g.
    at the origin for n >= 32 with k = 4, mu = 1, where both equal 2^{n^2}.
    """
    n = params.n
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.linalg.det(_blocks(params, pt).h).real
        logdet_n = pt.logdet_N
        try:
            const = 2.0 ** (n * (n - 1) // 2)
            closed = (
                const
                * (0.5 * params.k) ** (n * (n + 1) / 2.0)
                * params.mu**n
                * np.exp(-(n + 2) * logdet_n)
            )
        except OverflowError:  # a Python float power beyond the range
            const = closed = math.inf
    if not (np.isfinite(value).all() and np.isfinite(closed).all()):
        raise NumericalOverflow(
            f"metric determinant at n={n}, k={params.k}, mu={params.mu} "
            "exceeds the float range"
        )
    return DetResult(value=_item(value), closed_form=_item(closed), constant_C=const)


@dataclass(frozen=True)
class CurvatureData:
    ric: np.ndarray
    scalar_curvature: float
    qk_lu: np.ndarray


def curvature(params: MetricParams, pt: JacobiBallPoint) -> CurvatureData:
    """Ricci matrix (nonzero only on the W block, equal to -(n+2) h^k),
    the constant scalar curvature -(2/k) n(n+1)(n+2)/2 and the Q.-K. Lu
    matrix ((n+1)(n+2)/2) h - Ric."""
    n = params.n
    d = params.dim
    ric = np.zeros((d, d), dtype=complex)
    hk = _kept(params, pt, "h_terms", lambda p: _h_terms(p, params.pair_index))[0]
    ric[n:, n:] = -(n + 2) * hk
    scalar = -(2.0 / params.k) * n * (n + 1) * (n + 2) / 2.0
    qk = ((n + 1) * (n + 2) / 2.0) * _blocks(params, pt).h - ric
    return CurvatureData(ric=ric, scalar_curvature=scalar, qk_lu=qk)


def ds2_eval(domain: str, params: MetricParams, pt, tangent: TangentVector) -> float:
    """Squared length of a tangent vector.

    upper:       Tr(R^{-1} dV R^{-1} dVbar)
    ball:        4 Tr(M dW Mbar dWbar)
    jacobi_ball: quadratic form of the assembled metric on (dz, dW-pairs)
    """
    if tangent.n != pt.n:
        raise DimensionMismatch("tangent and point of different dimension")
    if domain == "upper":
        Rinv = np.linalg.inv(pt.R)
        dV = tangent.dW
        return float(np.trace(Rinv @ dV @ Rinv @ dV.conj()).real)
    if domain == "ball":
        M = pt.M
        dW = tangent.dW
        return float(4.0 * np.trace(M @ dW @ M.conj() @ dW.conj()).real)
    if domain == "jacobi_ball":
        t = flatten_point(tangent)
        return float((t @ metric_blocks(params, pt).h @ t.conj()).real)
    raise ValueError(f"unknown domain {domain!r}")
