"""Point types for the Siegel ball, Siegel upper half-plane and their Jacobi
extensions, plus the symmetric-pair index bookkeeping everything else uses.

Conventions fixed here and relied on package-wide:

* ``W`` (and ``V``) are complex symmetric n x n matrices.  The off-diagonal
  entries ``(p, q)`` and ``(q, p)`` are one coordinate: perturbing the
  coordinate moves both entries.
* Ordered pairs ``(p, q)`` with ``p <= q`` are enumerated lexicographically
  ``(1,1), (1,2), ..., (n,n)``; the full coordinate order on the Jacobi ball
  is ``(z_1 .. z_n, pairs)``, total dimension ``d = n(n+3)/2``.
* ``PairIndex.P``, ``PairIndex.Q`` and ``PairIndex.f`` (rows, columns and
  half weights of the pairs) are the one source of that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidInput,
    NonSymmetric,
    NotInBall,
    NotInUpperHalfPlane,
    RejectionLimit,
)

__all__ = [
    "PairIndex",
    "SiegelBallPoint",
    "SiegelUpperPoint",
    "JacobiBallPoint",
    "TangentVector",
    "BallDiagnostics",
    "validate_ball_point",
    "sample_point",
    "delta_symbol",
]

_REJECTION_LIMIT = 1000
_MIN_EIG_MARGIN = 1e-3


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} has non-finite entries")
    return a


def _as_complex_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return _finite(m, name)


def _as_complex_vector(a, name: str, n: int) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{name} must have length n")
    return _frozen(_finite(v, name))


def cross_gram(W: np.ndarray) -> np.ndarray:
    """N = 1 - W Wbar, hermitized exactly against roundoff; broadcasts over
    leading axes of W."""
    N = np.eye(W.shape[-1]) - W @ W.conj()
    return 0.5 * (N + N.conj().swapaxes(-1, -2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    P, Q = np.triu_indices(n)
    return _frozen(P), _frozen(Q), _frozen(1.0 - 0.5 * (P == Q))


@dataclass(frozen=True)
class PairIndex:
    """Lexicographic enumeration of ordered pairs (p, q), 0-based p <= q < n.

    Pair i sits at row ``P[i]``, column ``Q[i]`` and carries the half weight
    ``f[i] = 1 - delta_pq / 2``; every ordered-pair expression in the package
    indexes through these three arrays.
    """

    n: int
    P: np.ndarray = field(init=False, repr=False, compare=False)
    Q: np.ndarray = field(init=False, repr=False, compare=False)
    f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P, Q, f = _pair_layout(self.n)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "f", f)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.P.tolist(), self.Q.tolist()))

    @property
    def size(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def total_dim(self) -> int:
        """Dimension of the Jacobi ball chart: n z-coordinates then pairs."""
        return self.n + self.size

    def flatten(self, p: int, q: int) -> int:
        p, q = min(p, q), max(p, q)
        if p < 0 or q >= self.n:
            raise IndexError(f"pair ({p}, {q}) outside 0..{self.n - 1}")
        return p * self.n - p * (p - 1) // 2 + q - p

    def unflatten(self, i: int) -> tuple[int, int]:
        return int(self.P[i]), int(self.Q[i])

    def pack(self, sym: np.ndarray) -> np.ndarray:
        """Extract the ordered-pair entries of a symmetric matrix (the last
        two axes of sym; leading axes are kept).  The result is C-ordered
        over a stack as well, so that each row takes the same BLAS path as
        a single point's vector (a fancy index over leading axes returns
        the pair axis outermost in memory)."""
        return np.ascontiguousarray(sym[..., self.P, self.Q])

    def unpack(self, vec: np.ndarray) -> np.ndarray:
        """Rebuild a symmetric matrix from ordered-pair coordinates (the last
        axis of vec; leading axes are kept)."""
        m = np.zeros(vec.shape[:-1] + (self.n, self.n), dtype=complex)
        m[..., self.P, self.Q] = vec
        m[..., self.Q, self.P] = vec
        return m


def delta_symbol(i: int, j: int, p: int, q: int, n: int) -> int:
    """Derivative of the symmetric-matrix entry w_ij by the coordinate w_pq.

    Indices are 1-based.  Equals ``d_ip d_jq + d_iq d_jp - d_ij d_pq d_ip``,
    i.e. 1 whenever {i,j} == {p,q} and 0 otherwise.
    """
    for name, v in (("i", i), ("j", j), ("p", p), ("q", q)):
        if not 1 <= v <= n:
            raise IndexOutOfRange(f"index {name}={v} outside 1..{n}")

    def d(a, b):
        return 1 if a == b else 0

    return d(i, p) * d(j, q) + d(i, q) * d(j, p) - d(i, j) * d(p, q) * d(i, p)


@dataclass(frozen=True)
class BallDiagnostics:
    symmetry_defect: float
    min_eigenvalue: float


def validate_ball_point(W, tol: float = 1e-12) -> BallDiagnostics:
    """Check W = W^t and 1 - W Wbar > 0; return the measured margins.

    Raises NonSymmetric / NotInBall with the offending value on failure.
    """
    W = _as_complex_matrix(W, "W")
    sym_defect = float(np.max(np.abs(W - W.T))) if W.size else 0.0
    if sym_defect > tol:
        raise NonSymmetric(f"max |W - W^t| = {sym_defect:.3e} exceeds tol {tol:.3e}")
    lam_min = float(np.linalg.eigvalsh(cross_gram(W))[0])
    if lam_min <= tol:
        raise NotInBall(f"smallest eigenvalue of 1 - W Wbar is {lam_min:.3e}")
    return BallDiagnostics(symmetry_defect=sym_defect, min_eigenvalue=lam_min)


@dataclass(frozen=True)
class SiegelBallPoint:
    """Symmetric complex W with 1 - W Wbar positive definite."""

    W: np.ndarray

    def __post_init__(self):
        W = _as_complex_matrix(self.W, "W")
        validate_ball_point(W, tol=1e-10)
        W = 0.5 * (W + W.T)  # store exactly symmetric
        object.__setattr__(self, "W", _frozen(W))

    @property
    def n(self) -> int:
        return self.W.shape[-1]

    def cross_gram(self) -> np.ndarray:
        """N = 1 - W Wbar, hermitized."""
        return cross_gram(self.W)

    @classmethod
    def trusted(cls, W: np.ndarray) -> "SiegelBallPoint":
        """Skip validation; caller guarantees the invariants (used by
        finite-difference stencils whose margin was checked up front).
        The arrays may carry leading axes, e.g. W of shape (S, n, n) for S
        stencil points; the closed forms that broadcast (metric_det,
        kahler_potential, ball_metric_pair, upper_metric_pair) then return
        one value per leading index, and the group maps (act_ball,
        act_upper, partial_cayley, ...) one trusted stacked point."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "W", W)
        return obj


@dataclass(frozen=True)
class SiegelUpperPoint:
    """Symmetric complex V with Im V positive definite; optional u in C^n."""

    V: np.ndarray
    u: np.ndarray | None = None

    def __post_init__(self):
        V = _as_complex_matrix(self.V, "V")
        defect = float(np.max(np.abs(V - V.T))) if V.size else 0.0
        if defect > 1e-10:
            raise NonSymmetric(f"max |V - V^t| = {defect:.3e}")
        V = 0.5 * (V + V.T)
        R = V.imag
        lam_min = float(np.linalg.eigvalsh(0.5 * (R + R.T))[0])
        if lam_min <= 0:
            raise NotInUpperHalfPlane(f"smallest eigenvalue of Im V is {lam_min:.3e}")
        object.__setattr__(self, "V", _frozen(V))
        if self.u is not None:
            object.__setattr__(self, "u", _as_complex_vector(self.u, "u", V.shape[0]))

    @property
    def n(self) -> int:
        return self.V.shape[-1]

    @property
    def S(self) -> np.ndarray:
        return self.V.real

    @property
    def R(self) -> np.ndarray:
        return self.V.imag

    @classmethod
    def trusted(cls, V: np.ndarray, u: np.ndarray | None = None) -> "SiegelUpperPoint":
        """Skip validation; see SiegelBallPoint.trusted."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "V", V)
        object.__setattr__(obj, "u", u)
        return obj


@dataclass(frozen=True)
class JacobiBallPoint:
    """A pair (z, W) in C^n x D_n."""

    z: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        W = _as_complex_matrix(self.W, "W")
        validate_ball_point(W, tol=1e-10)
        W = 0.5 * (W + W.T)
        object.__setattr__(self, "z", _as_complex_vector(self.z, "z", W.shape[0]))
        object.__setattr__(self, "W", _frozen(W))

    @property
    def n(self) -> int:
        return self.W.shape[-1]

    @property
    def ball(self) -> SiegelBallPoint:
        """The W part; the constructor already validated and symmetrised it
        (a trusted stacked point gives a trusted stacked ball point)."""
        return SiegelBallPoint.trusted(self.W)

    def cross_gram(self) -> np.ndarray:
        return cross_gram(self.W)

    @classmethod
    def trusted(cls, z: np.ndarray, W: np.ndarray) -> "JacobiBallPoint":
        """Skip validation; see SiegelBallPoint.trusted."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "z", z)
        object.__setattr__(obj, "W", W)
        return obj


@dataclass(frozen=True)
class TangentVector:
    """Tangent data: dz in C^n and symmetric dW (dV/du for upper points)."""

    dz: np.ndarray | None
    dW: np.ndarray

    def __post_init__(self):
        dW = _as_complex_matrix(self.dW, "dW")
        defect = float(np.max(np.abs(dW - dW.T))) if dW.size else 0.0
        if defect > 1e-12:
            raise NonSymmetric(f"max |dW - dW^t| = {defect:.3e}")
        object.__setattr__(self, "dW", _frozen(0.5 * (dW + dW.T)))
        if self.dz is not None:
            object.__setattr__(self, "dz", _as_complex_vector(self.dz, "dz", dW.shape[0]))

    @property
    def n(self) -> int:
        return self.dW.shape[0]

    def flatten(self, idx: PairIndex | None = None) -> np.ndarray:
        """(dz, dW) -> C^d in the (z, pairs) coordinate order."""
        idx = idx or PairIndex(self.n)
        w = idx.pack(self.dW)
        if self.dz is None:
            return w
        return np.concatenate([self.dz, w])


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _sample_ball_matrix(n: int, rng: np.random.Generator, radius: float) -> np.ndarray:
    if not 0 <= radius < 1:
        raise ValueError(f"radius must lie in [0, 1), got {radius}")
    for _ in range(_REJECTION_LIMIT):
        A = _complex_gaussian(rng, (n, n))
        S = A + A.T
        norm = np.linalg.norm(S, 2)
        if norm == 0.0:
            continue
        W = radius * S / (2.0 * norm) if radius > 0 else np.zeros((n, n), dtype=complex)
        if np.linalg.eigvalsh(cross_gram(W))[0] > _MIN_EIG_MARGIN:
            return W
    raise RejectionLimit(f"no interior point after {_REJECTION_LIMIT} tries")


def sample_point(domain: str, n: int, rng: np.random.Generator, radius: float = 0.4):
    """Draw a random interior point of the requested domain.

    The ball part is a normalized symmetric Gaussian matrix of spectral norm
    radius/2, rejected until 1 - W Wbar has eigenvalues > 1e-3 (a guard that
    is unreachable for radius < 1); z and u entries are standard complex
    Gaussians.  Upper-half-plane points come from the inverse partial Cayley
    transform of a ball sample, so they inherit the same interior margin.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if domain == "ball":
        return SiegelBallPoint(_sample_ball_matrix(n, rng, radius))
    if domain == "jacobi_ball":
        W = _sample_ball_matrix(n, rng, radius)
        z = _complex_gaussian(rng, n)
        return JacobiBallPoint(z=z, W=W)
    if domain in ("upper", "jacobi_upper"):
        from .groups import inverse_partial_cayley

        W = _sample_ball_matrix(n, rng, radius)
        z = _complex_gaussian(rng, n)
        pt = inverse_partial_cayley(JacobiBallPoint(z=z, W=W))
        if domain == "upper":
            return SiegelUpperPoint(V=pt.V)
        return pt
    raise ValueError(f"unknown domain {domain!r}")
