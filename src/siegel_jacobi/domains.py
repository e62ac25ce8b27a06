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
* A point is its vector part (``z``, ``u`` or none) and its matrix part
  (``W`` or ``V``), named once per type and read as ``pt.vector`` and
  ``pt.matrix``; ``pt.margin()`` is its distance proxy to the boundary.
  A tangent is a point of the same kind (``dz`` and ``dW``).
  The constructors validate a single point: one symmetry check for W, V
  and dW, then the stored (symmetrised) matrix part must pass
  ``_check_margin()``, a positive ``margin()``, which is kept, so
  validating costs no second eigendecomposition.  ``assemble`` is the one
  trusted constructor, whose arrays may carry leading stencil axes, and
  ``image`` is the one rule for a map's image: ``assemble`` plus, when
  single, the same ``_check_margin()`` (a map's image is finite and
  exactly symmetric by construction), trusted when stacked.
* The chart is ``flatten_point`` (vector part, then the pairs of the matrix
  part) and its inverse ``from_chart``; ``pt.at_offset(delta)`` is the
  point at chart coordinates ``flatten_point(pt) + delta``.  Every
  finite-difference oracle moves a point this way.
* The Gram data of a ball-model point, ``N = 1 - W Wbar``, ``M = N^{-1}``,
  ``logdet_N = ln det N`` and (Jacobi ball) ``eta = M (z + W zbar)``, and
  the upper half-plane's Gram pair ``N = 2 Im V``, ``M = N^{-1}`` (the same
  pair metric is the same form of M in both models), are
  formed only here, once per point object, and kept on it read-only by
  ``kept``, the one store of data derived from a point (``metric`` and
  ``kernels`` keep their own there too).  A validated ball point forms N
  once, for its margin check, and every later read of N or the margin finds
  it kept; ``JacobiBallPoint.from_ball`` puts it under a zero-z Jacobi-ball
  point that shares its store.
* ``kept_pair`` is the same store for data of an ordered point pair
  (``kernels`` keeps its (k, mu)-free pair data there): one entry per key,
  for the last partner only, held by a weak reference and matched by
  identity.
* The store is the point's ``__dict__`` (named nowhere else in the
  package), where an entry shadows a method of the same name (a property
  such as ``N`` is a data descriptor and is not shadowed): no key may be the
  name of a method, so the margin is kept as ``lam_min``, not ``margin``.
* ``sample_point`` checks each sample's margin once, as a map's image.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import (
    InvalidInput,
    NonSymmetric,
    NotInBall,
    NotInUpperHalfPlane,
)

__all__ = [
    "PairIndex",
    "SiegelBallPoint",
    "SiegelUpperPoint",
    "JacobiBallPoint",
    "TangentVector",
    "flatten_point",
    "sample_point",
]


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} has non-finite entries")
    return a


def _as_complex_vector(a, name: str, n: int) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{name} must have length n")
    return _frozen(_finite(v, name))


def _symmetric(a, name: str, tol: float) -> np.ndarray:
    """a as a finite nonempty complex square matrix: the one symmetry check
    of W, V and dW.  Raises NonSymmetric when max |a - a^t| exceeds tol."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {m.shape}")
    _finite(m, name)
    defect = float(np.max(np.abs(m - m.T)))
    if defect > tol:
        raise NonSymmetric(f"max |{name} - {name}^t| = {defect:.3e} exceeds tol {tol:.3e}")
    return m


def _frozen_symmetric(m: np.ndarray) -> np.ndarray:
    """(m + m^t) / 2, read-only: the stored form of every symmetric part."""
    s = 0.5 * (m + m.T)
    s.setflags(write=False)
    return s


def _hermitized(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2 over the last two axes: exactly hermitian."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def cross_gram(W: np.ndarray) -> np.ndarray:
    """N = 1 - W Wbar, hermitized exactly against roundoff; broadcasts over
    leading axes of W."""
    return _hermitized(np.eye(W.shape[-1]) - W @ W.conj())


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _read_only(value):
    """value, its arrays (a bare array, a tuple's items or a dataclass's
    fields) made read-only."""
    if is_dataclass(value):
        parts = vars(value).values()
    else:
        parts = value if isinstance(value, tuple) else (value,)
    for a in parts:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def kept(pt, key: str, compute):
    """compute(pt), computed at the first call for key on the point object pt
    and kept on it, its arrays read-only: a point's parts never change (see
    ``assemble``), so neither does this."""
    data = pt.__dict__
    if key not in data:
        data[key] = _read_only(compute(pt))
    return data[key]


def kept_pair(pt, other, key: str, compute):
    """compute(pt, other), kept on pt like ``kept`` but for the last partner
    only: the one entry for key holds a weak reference to the partner object,
    matched by identity, so no partner is kept alive, no reference cycle
    forms, and a new object that reuses a freed id never gets the old
    value.  Another partner replaces the entry."""
    data = pt.__dict__
    entry = data.get(key)
    if entry is None or entry[0]() is not other:
        entry = data[key] = (weakref.ref(other), _read_only(compute(pt, other)))
    return entry[1]


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


class _Point:
    """A symmetric matrix part named by ``_MATRIX`` (W or V) and a vector
    part named by ``_VECTOR`` (z, u, or None for a type without one).  A
    stacked point is a trusted one whose arrays carry leading axes (W of
    shape (S, n, n) for S stencil points); the closed forms and group maps
    that broadcast give one value, or one stacked image, per leading index.
    """

    _MATRIX: ClassVar[str]
    _VECTOR: ClassVar[str | None] = None

    @property
    def matrix(self) -> np.ndarray:
        return getattr(self, self._MATRIX)

    @property
    def vector(self) -> np.ndarray | None:
        return None if self._VECTOR is None else getattr(self, self._VECTOR)

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def assemble(cls, vector: np.ndarray | None, matrix: np.ndarray):
        """A trusted point, the only one built without validation: the
        caller guarantees the invariants (finite-difference stencils, whose
        margin was checked up front, the images of the group maps (see
        ``image``), and parts of a point that was validated already), and
        that the arrays do not change afterwards: data derived from a point
        is kept on the point (``kept``).  vector is ignored by a type without
        a vector part."""
        obj = object.__new__(cls)
        object.__setattr__(obj, cls._MATRIX, matrix)
        if cls._VECTOR is not None:
            object.__setattr__(obj, cls._VECTOR, vector)
        return obj

    @classmethod
    def image(cls, vector: np.ndarray | None, matrix: np.ndarray):
        """The image point of a map, whose parts are the map's own new
        arrays, set read-only here: finite (``groups._solve`` checks that)
        and with the matrix part exactly symmetric (``_right_divide``
        symmetrises it), so only the margin, which rounding near the
        boundary can still fail, is checked, on a single image; a stacked
        one is trusted."""
        pt = cls.assemble(_read_only(vector), _read_only(matrix))
        if matrix.ndim == 2:
            pt._check_margin()
        return pt

    @classmethod
    def from_chart(cls, coords: np.ndarray, n: int):
        """Inverse of ``flatten_point``: the point at chart coordinates
        coords (last axis), validated when single (the coordinates are no
        map's output), trusted when stacked.  The coordinates hold a vector
        part when they are longer than the n(n+1)/2 pairs."""
        idx = PairIndex(n)
        k = coords.shape[-1] - idx.size
        # C-ordered like the pairs of PairIndex.pack, so that each row of a
        # stack takes the BLAS path of a single point's vector
        vector = np.ascontiguousarray(coords[..., :k]) if k else None
        matrix = idx.unpack(coords[..., k:])
        if matrix.ndim > 2:
            return cls.assemble(vector, matrix)
        parts = {cls._MATRIX: matrix}
        if cls._VECTOR is not None:
            parts[cls._VECTOR] = vector
        return cls(**parts)

    def at_offset(self, delta: np.ndarray):
        """The point at chart coordinates flatten_point(self) + delta: a
        validated point for a 1-d delta, one trusted point stacked over S
        for delta of shape (S, d).  The chart reads each pair (p, q),
        p <= q, from the upper triangle, so this moves both entries of a
        pair by delta only when the matrix part is exactly symmetric, as
        validated points (which store (M + M^t)/2) and the symmetrised
        images of the group maps are."""
        return type(self).from_chart(flatten_point(self) + delta, self.n)


def flatten_point(pt) -> np.ndarray:
    """Chart coordinates of a point or tangent: its vector part, then the
    pairs of its matrix part; a stacked point gives one row per leading
    index."""
    w = PairIndex(pt.n).pack(pt.matrix)
    return w if pt.vector is None else np.concatenate([pt.vector, w], axis=-1)


class _BallPart(_Point):
    """The W part shared by the Siegel-ball and Jacobi-ball points, with its
    Gram data, each kept at its first read (stacked on a stacked point).
    The Gram data live on ``self.ball``, so a Jacobi-ball point and its
    ball part share one copy."""

    _MATRIX = "W"

    @property
    def N(self) -> np.ndarray:
        """1 - W Wbar, hermitized."""
        return kept(self.ball, "N", lambda pt: cross_gram(pt.W))

    @property
    def M(self) -> np.ndarray:
        """N^{-1}, hermitized."""
        return kept(self.ball, "M", lambda pt: _hermitized(np.linalg.inv(pt.N)))

    @property
    def logdet_N(self):
        """ln det N: a float at one point, an array over a stack."""
        return kept(self.ball, "logdet_N", lambda pt: np.linalg.slogdet(pt.N)[1])

    def margin(self) -> float:
        """Smallest eigenvalue of N: the distance proxy to the boundary,
        kept like N."""
        return kept(self.ball, "lam_min", lambda pt: float(np.linalg.eigvalsh(pt.N)[0]))

    def _check_margin(self) -> None:
        """Require 1 - W Wbar > 0 (at tol 1e-10); a NaN margin fails."""
        lam_min = self.margin()
        if not lam_min > 1e-10:
            raise NotInBall(f"smallest eigenvalue of 1 - W Wbar is {lam_min:.3e}")

    def _check_ball(self) -> None:
        """Store W symmetrised and check the margin of the stored W; the
        constructors' one ball check."""
        W = _symmetric(self.W, "W", 1e-10)
        object.__setattr__(self, "W", _frozen_symmetric(W))
        self._check_margin()


def _item(x):
    """A numpy result as a Python scalar at one point; the array over a
    stack of points."""
    return x.item() if x.ndim == 0 else x


# Matrix-vector products over the leading axes of stacked points.  Each is
# one matmul with the same core shapes as the 1-d form (gemv, or dot for
# vector @ vector), so a stacked point rounds exactly as it does alone.
def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (A @ v[..., None])[..., 0]


def _vecmat(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    return (v[..., None, :] @ A)[..., 0, :]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


@dataclass(frozen=True)
class SiegelBallPoint(_BallPart):
    """Symmetric complex W with 1 - W Wbar positive definite."""

    W: np.ndarray

    def __post_init__(self):
        self._check_ball()

    @property
    def ball(self) -> "SiegelBallPoint":
        return self


@dataclass(frozen=True)
class SiegelUpperPoint(_Point):
    """Symmetric complex V with Im V positive definite; optional u in C^n."""

    V: np.ndarray
    u: np.ndarray | None = None
    _MATRIX = "V"
    _VECTOR = "u"

    def __post_init__(self):
        V = _symmetric(self.V, "V", 1e-10)
        object.__setattr__(self, "V", _frozen_symmetric(V))
        self._check_margin()
        if self.u is not None:
            object.__setattr__(self, "u", _as_complex_vector(self.u, "u", V.shape[0]))

    @property
    def R(self) -> np.ndarray:
        return self.V.imag

    @property
    def N(self) -> np.ndarray:
        """2 Im V, the ball's 1 - W Wbar in this model, kept like N there."""
        return kept(self, "N", lambda pt: (2.0 * pt.R).astype(complex))

    @property
    def M(self) -> np.ndarray:
        """N^{-1} = (Im V)^{-1} / 2, kept like N."""
        return kept(self, "M", lambda pt: (0.5 * np.linalg.inv(pt.R)).astype(complex))

    def margin(self) -> float:
        """Smallest eigenvalue of Im V: the distance proxy to the boundary,
        kept (``lam_min``)."""
        return kept(self, "lam_min", lambda pt: float(np.linalg.eigvalsh(pt.R)[0]))

    def _check_margin(self) -> None:
        """Require Im V > 0; a NaN margin fails."""
        lam_min = self.margin()
        if not lam_min > 0:
            raise NotInUpperHalfPlane(f"smallest eigenvalue of Im V is {lam_min:.3e}")


@dataclass(frozen=True)
class JacobiBallPoint(_BallPart):
    """A pair (z, W) in C^n x D_n."""

    z: np.ndarray
    W: np.ndarray
    _VECTOR = "z"

    def __post_init__(self):
        self._check_ball()
        object.__setattr__(self, "z", _as_complex_vector(self.z, "z", self.n))

    @property
    def eta(self) -> np.ndarray:
        """The FC coordinate M (z + W zbar), kept like N;
        ``groups.inverse_fc_transform`` inverts it."""
        return kept(self, "eta", lambda pt: _matvec(pt.M, pt.z + _matvec(pt.W, pt.z.conj())))

    @property
    def ball(self) -> SiegelBallPoint:
        """The W part, kept like N; the constructor already validated and
        symmetrised it (a trusted stacked point gives a trusted stacked ball
        point)."""
        return kept(self, "ball", lambda pt: SiegelBallPoint.assemble(None, pt.W))

    @classmethod
    def from_ball(cls, ball: SiegelBallPoint) -> "JacobiBallPoint":
        """The point (0, W) over a validated ball point, whose ``ball`` is
        that very object: the two share one store, so the Gram data and
        margin kept by the ball point's validation are not formed again."""
        pt = cls.assemble(_frozen(np.zeros(ball.n, dtype=complex)), ball.W)
        kept(pt, "ball", lambda _: ball)
        return pt


@dataclass(frozen=True)
class TangentVector(_Point):
    """Tangent data: dz in C^n and symmetric dW (dV/du for upper points),
    in the chart of its base point.  No package module uses it: the metric
    laws are checked as matrix identities.  It stays until the benchmark's
    tracer stops wrapping its constructor by name (ROADMAP item 3)."""

    dz: np.ndarray | None
    dW: np.ndarray
    _MATRIX = "dW"
    _VECTOR = "dz"

    def __post_init__(self):
        dW = _symmetric(self.dW, "dW", 1e-12)
        object.__setattr__(self, "dW", _frozen_symmetric(dW))
        if self.dz is not None:
            object.__setattr__(self, "dz", _as_complex_vector(self.dz, "dz", dW.shape[0]))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _sample_W(n: int, rng: np.random.Generator, radius: float) -> np.ndarray:
    """A normalized symmetric Gaussian matrix of spectral norm radius/2 < 1/2,
    so 1 - W Wbar >= 3/4, exactly symmetric (A + A^t, scaled entrywise) and
    finite: an all-zero draw, with no direction to scale, raises InvalidInput."""
    if not 0 <= radius < 1:
        raise ValueError(f"radius must lie in [0, 1), got {radius}")
    A = _complex_gaussian(rng, (n, n))  # drawn at radius 0 too: same later draws
    if radius == 0:
        return np.zeros((n, n), dtype=complex)
    S = A + A.T
    sigma = np.linalg.svd(S, compute_uv=False)[0]  # norm(S, 2), without its wrapper
    if not sigma > 0:
        raise InvalidInput("the sampled W is zero and has no direction to scale")
    return radius * S / (2.0 * sigma)


def sample_point(domain: str, n: int, rng: np.random.Generator, radius: float = 0.4):
    """Draw a random interior point of the requested domain, as the
    sampler's image (see ``_Point.image``): its margin is checked once.

    The ball part comes from ``_sample_W``; z and u entries are
    standard complex Gaussians.  Upper-half-plane points are the image of
    the inverse partial Cayley transform of a trusted Jacobi-ball sample
    (z is drawn for "upper" too, so every seed gives the same points).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if domain not in ("ball", "jacobi_ball", "upper", "jacobi_upper"):
        raise ValueError(f"unknown domain {domain!r}")
    W = _sample_W(n, rng, radius)
    if domain == "ball":
        return SiegelBallPoint.image(None, W)
    z = _complex_gaussian(rng, n)
    if domain == "jacobi_ball":
        return JacobiBallPoint.image(z, W)
    from .groups import inverse_partial_cayley

    pt = inverse_partial_cayley(JacobiBallPoint.assemble(z, W))
    return SiegelUpperPoint.assemble(None, pt.V) if domain == "upper" else pt
