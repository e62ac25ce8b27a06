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

    hk_pq,mn = 2 f_pq f_mn (M_mp M_nq + M_mq M_np),

and the upper half-plane's pair metric is the same form of its own
M = (2 Im V)^{-1}.  N, M and eta are the point's own Gram data (see
``domains``).  The metric and its inverse are linear in the weights,
h = mu A + (k/2) B and h^{-1} = C/mu + D/k, with B zero but for hk and C
zero but for its z block Nbar; the metric
keeps ``h_terms`` (A, hk) and ``inv_terms`` (Nbar, D) on the point by
``domains.kept``, so each closed form scales one and adds the other into one
block.  Nothing that depends on (k, mu) is kept; every result is a new,
writable array, and the blocks h1..h4 of a result are views of its h.
``h @ metric_inverse(...).h_inv`` is the literal identity in this
ordered-pair indexing.

``kahler_potential``, ``metric_det`` and ``ball_metric_pair`` (on a ball or
an upper-half-plane point) broadcast over leading axes of a trusted point
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
        # |2k - round(2k)| > 1e-9 without forming 2k, which overflows above ~9e307
        return abs(math.remainder(self.k, 0.5)) > 0.5e-9

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


def _split(h: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four blocks [[h1, h2], [h3, h4]] of h, as views."""
    return h[..., :n, :n], h[..., :n, n:], h[..., n:, :n], h[..., n:, n:]


def _assemble(h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, h4: np.ndarray) -> np.ndarray:
    """[[h1, h2], [h3, h4]] written into one new array, which costs less than
    a general block builder at these sizes; broadcasts over leading axes."""
    n = h1.shape[-1]
    h = np.empty(h4.shape[:-2] + (n + h4.shape[-1],) * 2, dtype=complex)
    for view, block in zip(_split(h, n), (h1, h2, h3, h4)):
        view[...] = block
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
    """Pair metric h^k of a Siegel-ball point (or of W) or of an
    upper-half-plane point, and its inverse k_inv, over ordered pairs; h^k @
    k_inv is the identity."""
    pt = W if isinstance(W, (SiegelBallPoint, SiegelUpperPoint)) else SiegelBallPoint(W)
    idx = PairIndex(pt.n)
    return _fold_pair_metric(pt.M, idx), _pair_metric_inverse(pt.N, idx)


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


def _h_terms(pt: JacobiBallPoint, idx: PairIndex) -> tuple[np.ndarray, np.ndarray]:
    """The (k, mu)-free parts of h = mu A + (k/2) B: the assembled
    A = [[Mbar, f X], [(f X)*, hmu]] with X_i,pq = eta_q Mbar_ip + eta_p Mbar_iq,
    and the Siegel-ball pair form hk of M, the one non-zero block of B."""
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
    fX = f * X
    return _assemble(Mb, fX, fX.conj().swapaxes(-1, -2), hmu), _fold_pair_metric(pt.M, idx)


def _blocks(params: MetricParams, pt: JacobiBallPoint) -> MetricEval:
    A, hk = _kept(params, pt, "h_terms", lambda p: _h_terms(p, params.pair_index))
    n = params.n
    h = params.mu * A
    h[..., n:, n:] += (0.5 * params.k) * hk
    return MetricEval(*_split(h, n), h=h)


@dataclass(frozen=True)
class MetricInverse:
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    h_inv: np.ndarray


def _inv_terms(pt: JacobiBallPoint, idx: PairIndex) -> tuple[np.ndarray, np.ndarray]:
    """The (k, mu)-free parts of h^{-1} = C/mu + D/k: Nbar, the one non-zero
    block of C, and the assembled D = [[alpha Nbar + Sbar S^t, -Y], [-Y*, 2 k_inv]]
    with S_n = sum_q eta_q Nbar_qn, alpha = eta^t Nbar conj(eta) >= 0,
    Y_i,mn = S_n Nbar_im + S_m Nbar_in and the Siegel-ball pair inverse k_inv."""
    P, Q = idx.P, idx.Q
    Nb = pt.N.conj()
    S = _vecmat(pt.eta, Nb)
    alpha = _item(_dot(S, pt.eta.conj()).real)
    Y = S[Q] * Nb[:, P] + S[P] * Nb[:, Q]
    D1 = alpha * Nb + np.outer(S.conj(), S)
    return Nb, _assemble(D1, -Y, -Y.conj().T, 2.0 * _pair_metric_inverse(pt.N, idx))


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
    Nb, D = _kept(params, pt, "inv_terms", lambda p: _inv_terms(p, params.pair_index))
    n = params.n
    h_inv = D / params.k
    h_inv[:n, :n] += Nb / params.mu
    return MetricInverse(*_split(h_inv, n), h_inv=h_inv)


@dataclass(frozen=True)
class DetResult:
    value: float        # determinant of the assembled matrix
    closed_form: float  # C(n) (k/2)^{n(n+1)/2} mu^n det(N)^{-(n+2)}
    constant_C: float   # 2^{n(n-1)/2}


def metric_det(params: MetricParams, pt: JacobiBallPoint) -> DetResult:
    """Determinant of the assembled metric and its closed form.

    Raises NumericalOverflow when either value leaves the normal float range,
    e.g. 2^{n^2} at the origin for n >= 32 with k = 4, mu = 1, or mu = 1e-300.
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
    tiny = np.finfo(float).tiny
    if not all(tiny <= abs(v) < math.inf for x in (value, closed) for v in np.ravel(x).tolist()):
        raise NumericalOverflow(
            f"metric determinant at n={n}, k={params.k}, mu={params.mu} "
            "leaves the normal float range"
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
    hk = _kept(params, pt, "h_terms", lambda p: _h_terms(p, params.pair_index))[1]
    ric[n:, n:] = -(n + 2) * hk
    scalar = -(2.0 / params.k) * n * (n + 1) * (n + 2) / 2.0
    qk = ((n + 1) * (n + 2) / 2.0) * _blocks(params, pt).h
    qk[n:, n:] -= ric[n:, n:]
    return CurvatureData(ric=ric, scalar_curvature=scalar, qk_lu=qk)


def ds2_eval(domain: str, params: MetricParams, pt, tangent: TangentVector) -> float:
    """Squared length of a tangent vector.

    ball, upper: 4 Tr(M dX Mbar dXbar), dX = dW or dV, M the point's own
                 (1 - W Wbar)^{-1} or (2 Im V)^{-1}
    jacobi_ball: quadratic form of the assembled metric on (dz, dW-pairs)
    """
    if tangent.n != pt.n:
        raise DimensionMismatch("tangent and point of different dimension")
    if domain in ("ball", "upper"):
        M, dX = pt.M, tangent.dW
        return float(4.0 * np.trace(M @ dX @ M.conj() @ dX.conj()).real)
    if domain == "jacobi_ball":
        t = flatten_point(tangent)
        return float((t @ metric_blocks(params, pt).h @ t.conj()).real)
    raise ValueError(f"unknown domain {domain!r}")
