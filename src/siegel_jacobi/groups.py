"""Symplectic and Jacobi group elements, their actions on the four domains,
Cayley conjugation, the partial Cayley transform and the inverse of the FC
change of coordinates (the FC coordinate itself is a point's ``eta``, see
``domains``).

The complexified symplectic element is the block matrix ``[[p, q], [qbar,
pbar]]``; the real one is ``[[a, b], [c, d]]``.  Jacobi elements extend these
by a translation (``alpha`` in C^n, resp. a real 2n-vector) and a central
coordinate that composes but never enters the actions.

Every symplectic element goes through its model's one constructor, which
checks one identity on its 2n x 2n matrix G, G^t J G = J (real) or
G^* K G = K (complex, K = diag(1, -1)), to a bound times max(1, max |G_ij|)^2:
the rounding of a product grows as the square of its entries, so a product
of valid elements is valid at any size.

Each point map (``act_ball``, ``act_upper``, ``partial_cayley`` and
``inverse_partial_cayley``) takes both points of its model, with or without
the vector part, and its image has a vector part when the point has one.
These maps broadcast over leading axes of a trusted point (z of shape
(..., n), W of shape (..., n, n)), so a finite-difference stencil is mapped
in one call.  Each point map factorises its denominator once
(``_right_divide``, which solves for the vector part in the same call) and
builds its image with the point type's ``image`` (see ``domains``): a single
image is checked for its margin, a stacked one trusted.  Each stacked image
equals the single-point image to the last bit: every matrix product and
solve runs per point exactly as it does alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import JacobiBallPoint, SiegelBallPoint, SiegelUpperPoint, _frozen
from .errors import DimensionMismatch, InvalidInput, SingularDenominator

__all__ = [
    "SymplecticC",
    "SymplecticR",
    "JacobiElementC",
    "JacobiElementR",
    "compose_jacobi_c",
    "compose_jacobi_r",
    "cayley_conjugate",
    "inverse_cayley_conjugate",
    "theta",
    "act_ball",
    "act_upper",
    "partial_cayley",
    "inverse_partial_cayley",
    "inverse_fc_transform",
    "random_symplectic_r",
    "random_jacobi_c",
    "random_jacobi_r",
]


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} B with singularity mapped to SingularDenominator.

    Broadcasts over leading axes of A and B (B a matrix per point, or one
    vector for a single A).  One singular matrix fails the whole stack."""
    try:
        out = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularDenominator(str(exc)) from exc
    if not np.isfinite(out).all():
        raise SingularDenominator("non-finite entries in solve result")
    return out


def _right_divide(
    num: np.ndarray, den: np.ndarray, v: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(num den^{-1}, (den^t)^{-1} v) for a symmetric quotient, exactly
    symmetrised, from one factorisation: the quotient is solved as its
    transpose (den^t)^{-1} num^t, whose symmetrisation is the same sum, and v
    (a vector per point, or None) rides as one more column of that solve."""
    rhs = num.swapaxes(-1, -2)
    if v is not None:
        rhs = np.concatenate([rhs, v[..., None]], axis=-1)
    X = _solve(den.swapaxes(-1, -2), rhs)
    n = num.shape[-1]
    quotient = X[..., :n]
    # the vector C-ordered, so that it takes the BLAS path of a new vector
    vector = None if v is None else np.ascontiguousarray(X[..., n])
    return 0.5 * (quotient.swapaxes(-1, -2) + quotient), vector


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _block(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[[a, b], [c, d]] of n x n blocks, as one new C-ordered array."""
    n = a.shape[0]
    G = np.empty((2 * n, 2 * n), dtype=np.result_type(a, b, c, d))
    G[:n, :n], G[:n, n:], G[n:, :n], G[n:, n:] = a, b, c, d
    return G


# The complex bound holds every Cayley image of a real element that passes:
# G_C = U G U^* with U = [[1, -i], [1, i]] / sqrt(2), and U^* K U = -i J, so
# G_C^* K G_C - K = -i U (G^t J G - J) U^*, whose entries are at most twice
# the real defect's; and max |G| <= 2 max |G_C| (a = Re(p + q), b = Im(p - q),
# c = -Im(p + q), d = Re(p - q)).  That is 2 * 4 = 8 real bounds; 1e-9 leaves
# room for rounding.
_REAL_BOUND = 1e-10
_COMPLEX_BOUND = 1e-9


def _check_form(G: np.ndarray, F: np.ndarray, bound: float, what: str) -> None:
    """Require G finite, then max |G^* F G - F| <= bound max(1, max |G_ij|)^2;
    a NaN defect, from a product that overflows, fails."""
    if not np.isfinite(G).all():
        raise InvalidInput(f"{what} blocks must be finite")
    size = max(1.0, _max_abs(G))
    defect = _max_abs(G.conj().T @ F @ G - F)
    if not defect <= bound * size * size:
        raise InvalidInput(f"{what} relations violated by {defect:.3e} at size {size:.3e}")


@lru_cache(maxsize=64)
def _forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """J = [[0, 1], [-1, 0]] and K = [[1, 0], [0, -1]] of size 2n, read-only:
    the forms that the real and the complex elements keep."""
    z, e = np.zeros((n, n)), np.eye(n)
    return _frozen(_block(z, e, -e, z)), _frozen(_block(e, z, z, -e))


@dataclass(frozen=True)
class SymplecticC:
    """Blocks (p, q) of G = [[p, q], [qbar, pbar]] with G^* K G = K:
    p* p - q^t qbar = 1, p^t qbar = q* p.  G K G^* = K (p p* - q q* = 1,
    p q^t = q p^t) follows, as G^{-1} = K G^* K."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        q = np.asarray(self.q, dtype=complex)
        if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch("p and q must be square of equal size")
        G = _block(p, q, q.conj(), p.conj())
        _check_form(G, _forms(len(p))[1], _COMPLEX_BOUND, "symplectic")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymplecticC":
        return cls(np.eye(n), np.zeros((n, n)))

    def __matmul__(self, other: "SymplecticC") -> "SymplecticC":
        if self.n != other.n:
            raise DimensionMismatch("group elements of different size")
        p = self.p @ other.p + self.q @ other.q.conj()
        q = self.p @ other.q + self.q @ other.p.conj()
        return SymplecticC(p, q)

    def act_inverse(self, alpha: np.ndarray) -> np.ndarray:
        """g^{-1} x alpha = p* alpha - q^t conj(alpha)."""
        return self.p.conj().T @ alpha - self.q.T @ alpha.conj()


@dataclass(frozen=True)
class SymplecticR:
    """Real blocks (a, b, c, d) of G = [[a, b], [c, d]] with G^t J G = J; G
    is formed once, read-only, and the blocks are views of it."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        blocks = [np.asarray(getattr(self, name), dtype=float) for name in "abcd"]
        shape = blocks[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in blocks):
            raise DimensionMismatch("a, b, c and d must be square of equal size")
        G = _block(*blocks)
        G.setflags(write=False)
        n = shape[0]
        _check_form(G, _forms(n)[0], _REAL_BOUND, "real symplectic")
        object.__setattr__(self, "_G", G)
        for name, m in zip("abcd", (G[:n, :n], G[:n, n:], G[n:, :n], G[n:, n:])):
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymplecticR":
        z = np.zeros((n, n))
        return cls(np.eye(n), z, z, np.eye(n))

    def matrix(self) -> np.ndarray:
        """G, read-only."""
        return self._G

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "SymplecticR":
        n = M.shape[0] // 2
        return cls(M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:])

    def __matmul__(self, other: "SymplecticR") -> "SymplecticR":
        if self.n != other.n:
            raise DimensionMismatch("group elements of different size")
        return SymplecticR.from_matrix(self.matrix() @ other.matrix())


@dataclass(frozen=True)
class JacobiElementC:
    """(g, alpha, t): complexified symplectic part plus Heisenberg data."""

    g: SymplecticC
    alpha: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex).reshape(-1)
        if alpha.shape[0] != self.g.n:
            raise DimensionMismatch("alpha must have length n")
        if not (np.isfinite(alpha).all() and math.isfinite(self.t)):
            raise InvalidInput("alpha and t must be finite")
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.g.n

    @classmethod
    def identity(cls, n: int) -> "JacobiElementC":
        return cls(SymplecticC.identity(n), np.zeros(n, dtype=complex), 0.0)


@dataclass(frozen=True)
class JacobiElementR:
    """(g, X, kappa): real symplectic part, translation X = (lam, mu) in
    R^{2n} and central coordinate.  The complex translation of the Cayley
    image is alpha = X[n:] + i X[:n]."""

    g: SymplecticR
    lambda_mu: np.ndarray
    k_center: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.lambda_mu, dtype=float).reshape(-1)
        if x.shape[0] != 2 * self.g.n:
            raise DimensionMismatch("lambda_mu must have length 2n")
        if not (np.isfinite(x).all() and math.isfinite(self.k_center)):
            raise InvalidInput("lambda_mu and k_center must be finite")
        object.__setattr__(self, "lambda_mu", x)

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def alpha_im(self) -> np.ndarray:
        return self.lambda_mu[: self.n]

    @property
    def alpha_re(self) -> np.ndarray:
        return self.lambda_mu[self.n :]

    @classmethod
    def identity(cls, n: int) -> "JacobiElementR":
        return cls(SymplecticR.identity(n), np.zeros(2 * n), 0.0)


def compose_jacobi_c(h1: JacobiElementC, h2: JacobiElementC) -> JacobiElementC:
    """(g1, a1, t1)(g2, a2, t2) = (g1 g2, g2^{-1} x a1 + a2,
    t1 + t2 + Im(g2^{-1} x a1 . conj(a2)))."""
    if h1.n != h2.n:
        raise DimensionMismatch("elements of different size")
    moved = h2.g.act_inverse(h1.alpha)
    alpha = moved + h2.alpha
    t = h1.t + h2.t + float(np.sum(moved * h2.alpha.conj()).imag)
    return JacobiElementC(h1.g @ h2.g, alpha, t)


def compose_jacobi_r(h1: JacobiElementR, h2: JacobiElementR) -> JacobiElementR:
    """(M, X, k)(M', X', k') = (M M', X M' + X', k + k' + X M' J X'^t)."""
    if h1.n != h2.n:
        raise DimensionMismatch("elements of different size")
    xm = h1.lambda_mu @ h2.g.matrix()
    k = h1.k_center + h2.k_center + float(xm @ _forms(h1.n)[0] @ h2.lambda_mu)
    return JacobiElementR(h1.g @ h2.g, xm + h2.lambda_mu, k)


def cayley_conjugate(g: SymplecticR) -> SymplecticC:
    """2p = a + d + i(b - c), 2q = a - d - i(b + c), checked like every
    complex element (see ``_COMPLEX_BOUND``)."""
    return SymplecticC(0.5 * (g.a + g.d + 1j * (g.b - g.c)), 0.5 * (g.a - g.d - 1j * (g.b + g.c)))


def inverse_cayley_conjugate(gc: SymplecticC) -> SymplecticR:
    """a = Re(p + q), b = Im(p - q), c = -Im(p + q), d = Re(p - q), the
    real image checked to the real bound.  These blocks are real for any
    p and q, so no realness test is left: the imaginary parts that the
    complex formulas 2a = p + q + cc etc. would leave are rounding alone."""
    p, q = gc.p, gc.q
    return SymplecticR((p + q).real, (p - q).imag, -(p + q).imag, (p - q).real)


def theta(h: JacobiElementR) -> JacobiElementC:
    """Group isomorphism onto the complexified realization:
    (g, lam, mu, k) -> (g_C, mu + i lam, k)."""
    alpha = h.alpha_re + 1j * h.alpha_im
    return JacobiElementC(cayley_conjugate(h.g), alpha, h.k_center)


def act_ball(
    h: JacobiElementC, pt: JacobiBallPoint | SiegelBallPoint
) -> JacobiBallPoint | SiegelBallPoint:
    """Holomorphic action on C^n x D_n, or on D_n alone (the image of W does
    not depend on z):
    W1 = (p W + q)(qbar W + pbar)^{-1},
    z1 = (W q* + p*)^{-1} (z + alpha - W conj(alpha)),
    with one factorisation: W q* + p* is (qbar W + pbar)^t, W being
    symmetric."""
    if h.n != pt.n:
        raise DimensionMismatch("element and point of different size")
    g, W = h.g, pt.W
    v = None if pt.vector is None else pt.z + h.alpha - W @ h.alpha.conj()
    W1, z1 = _right_divide(g.p @ W + g.q, g.q.conj() @ W + g.p.conj(), v)
    return type(pt).image(z1, W1)


def act_upper(h: JacobiElementR, pt: SiegelUpperPoint) -> SiegelUpperPoint:
    """V1 = (a V + b)(c V + d)^{-1}; u1 = (V c^t + d^t)^{-1}(u + V lam + mu),
    where V c^t + d^t is (c V + d)^t."""
    if h.n != pt.n:
        raise DimensionMismatch("element and point of different size")
    g, V = h.g, pt.V
    v = None if pt.u is None else pt.u + V @ h.alpha_im + h.alpha_re
    V1, u1 = _right_divide(g.a @ V + g.b, g.c @ V + g.d, v)
    return SiegelUpperPoint.image(u1, V1)


def partial_cayley(pt: SiegelUpperPoint) -> JacobiBallPoint | SiegelBallPoint:
    """Biholomorphism onto the ball model:
    W = (V - i)(V + i)^{-1}, z = 2i (V + i)^{-1} u."""
    eye = np.eye(pt.n)
    W, u = _right_divide(pt.V - 1j * eye, pt.V + 1j * eye, pt.u)
    if pt.u is None:
        return SiegelBallPoint.image(None, W)
    return JacobiBallPoint.image(2j * u, W)


def inverse_partial_cayley(pt: JacobiBallPoint | SiegelBallPoint) -> SiegelUpperPoint:
    """V = i (1 + W)(1 - W)^{-1}, u = (1 - W)^{-1} z: the two factors of V
    commute, and 1 - W is its own transpose."""
    eye = np.eye(pt.n)
    X, u = _right_divide(eye + pt.W, eye - pt.W, pt.vector)
    return SiegelUpperPoint.image(u, 1j * X)


def inverse_fc_transform(eta: np.ndarray, W: np.ndarray) -> JacobiBallPoint:
    """z = eta - W conj(eta), the inverse of a point's FC coordinate
    ``eta = (1 - W Wbar)^{-1}(z + W zbar)``."""
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    W = np.asarray(W, dtype=complex)
    if eta.shape != W.shape[-1:]:
        raise ValueError("eta must have length n")
    return JacobiBallPoint(z=eta - W @ eta.conj(), W=W)


def random_symplectic_r(n: int, rng: np.random.Generator) -> SymplecticR:
    """exp of a random sp(n, R) element with Frobenius norm capped at 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
    X = _block(a, 0.5 * (b + b.T), 0.5 * (c + c.T), -a.T)
    norm = np.linalg.norm(X)
    if norm > 1.0:
        X *= 1.0 / norm
    # imported where used: scipy.linalg is over half of a cold package import
    from scipy.linalg import expm

    return SymplecticR.from_matrix(expm(X))


def random_jacobi_r(n: int, rng: np.random.Generator) -> JacobiElementR:
    g = random_symplectic_r(n, rng)
    return JacobiElementR(g, rng.standard_normal(2 * n), float(rng.standard_normal()))


def random_jacobi_c(n: int, rng: np.random.Generator) -> JacobiElementC:
    return theta(random_jacobi_r(n, rng))
