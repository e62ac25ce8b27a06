"""Symplectic and Jacobi group elements, their actions on the four domains,
Cayley conjugation, the partial Cayley transform and the FC change of
coordinates.

The complexified symplectic element is the block matrix ``[[p, q], [qbar,
pbar]]``; the real one is ``[[a, b], [c, d]]``.  Jacobi elements extend these
by a translation (``alpha`` in C^n, resp. a real 2n-vector) and a central
coordinate that composes but never enters the actions.

Each point map (``act_ball``, ``act_upper``, ``partial_cayley`` and
``inverse_partial_cayley``) takes both points of its model, with or without
the vector part, and its image has a vector part when the point has one.
These maps and ``fc_transform`` broadcast over leading axes of a trusted
point (z of shape (..., n), W of shape (..., n, n)), so a finite-difference
stencil is mapped in one call (for ``fc_transform``, to stacked ``eta`` and
``W``).  Each point map factorises its denominator once (``_right_divide``,
which solves for the vector part in the same call) and builds its image with
the point type's ``image`` (see ``domains``): a single image is checked for
its margin, a stacked one trusted.  Each stacked image equals the
single-point image to the last bit: every matrix product and solve runs per
point exactly as it does alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import JacobiBallPoint, SiegelBallPoint, SiegelUpperPoint, TangentVector, _frozen
from .errors import DimensionMismatch, InvalidInput, SingularDenominator

__all__ = [
    "SymplecticC",
    "SymplecticR",
    "JacobiElementC",
    "JacobiElementR",
    "compose_jacobi_c",
    "compose_jacobi_r",
    "inverse_jacobi_c",
    "inverse_jacobi_r",
    "cayley_conjugate",
    "inverse_cayley_conjugate",
    "theta",
    "act_ball",
    "act_upper",
    "partial_cayley",
    "inverse_partial_cayley",
    "fc_transform",
    "inverse_fc_transform",
    "act_ball_differential",
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
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class SymplecticC:
    """Blocks (p, q) of [[p, q], [qbar, pbar]] with p p* - q q* = 1,
    p q^t = q p^t, p* p - q^t qbar = 1, p^t qbar = q* p."""

    p: np.ndarray
    q: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        q = np.asarray(self.q, dtype=complex)
        if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch("p and q must be square of equal size")
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise InvalidInput("p and q must be finite")
        n = p.shape[0]
        eye = np.eye(n)
        defect = float(np.max([
            _max_abs(p @ p.conj().T - q @ q.conj().T - eye),
            _max_abs(p @ q.T - q @ p.T),
            _max_abs(p.conj().T @ p - q.T @ q.conj() - eye),
            _max_abs(p.T @ q.conj() - q.conj().T @ p),
        ]))
        if not defect <= self.tol:  # a product that overflows gives a NaN defect
            raise InvalidInput(f"symplectic relations violated by {defect:.3e}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymplecticC":
        return cls(np.eye(n), np.zeros((n, n)))

    def inverse(self) -> "SymplecticC":
        return SymplecticC(self.p.conj().T, -self.q.T)

    def __matmul__(self, other: "SymplecticC") -> "SymplecticC":
        if self.n != other.n:
            raise DimensionMismatch("group elements of different size")
        p = self.p @ other.p + self.q @ other.q.conj()
        q = self.p @ other.q + self.q @ other.p.conj()
        return SymplecticC(p, q)

    def act(self, alpha: np.ndarray) -> np.ndarray:
        """g x alpha = p alpha + q conj(alpha)."""
        return self.p @ alpha + self.q @ alpha.conj()

    def act_inverse(self, alpha: np.ndarray) -> np.ndarray:
        """g^{-1} x alpha = p* alpha - q^t conj(alpha)."""
        return self.p.conj().T @ alpha - self.q.T @ alpha.conj()


@dataclass(frozen=True)
class SymplecticR:
    """Real blocks (a, b, c, d) with g^t J g = J."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        blocks = {}
        shape = None
        for name in "abcd":
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"{name} must be square")
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise DimensionMismatch("blocks of different size")
            blocks[name] = m
        if not all(np.isfinite(m).all() for m in blocks.values()):
            raise InvalidInput("a, b, c and d must be finite")
        a, b, c, d = blocks["a"], blocks["b"], blocks["c"], blocks["d"]
        eye = np.eye(shape[0])
        defect = float(np.max([
            _max_abs(a.T @ c - c.T @ a),
            _max_abs(b.T @ d - d.T @ b),
            _max_abs(a.T @ d - c.T @ b - eye),
        ]))
        if not defect <= self.tol:  # a product that overflows gives a NaN defect
            raise InvalidInput(f"real symplectic relations violated by {defect:.3e}")
        for name, m in blocks.items():
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymplecticR":
        z = np.zeros((n, n))
        return cls(np.eye(n), z, z.copy(), np.eye(n))

    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = 1e-10) -> "SymplecticR":
        n = M.shape[0] // 2
        return cls(M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:], tol=tol)

    def inverse(self) -> "SymplecticR":
        return SymplecticR(self.d.T, -self.b.T, -self.c.T, self.a.T)

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


def inverse_jacobi_c(h: JacobiElementC) -> JacobiElementC:
    return JacobiElementC(h.g.inverse(), -h.g.act(h.alpha), -h.t)


@lru_cache(maxsize=64)
def _sp_form(n: int) -> np.ndarray:
    """J = [[0, 1], [-1, 0]] of size 2n, read-only."""
    z, e = np.zeros((n, n)), np.eye(n)
    return _frozen(np.block([[z, e], [-e, z]]))


def compose_jacobi_r(h1: JacobiElementR, h2: JacobiElementR) -> JacobiElementR:
    """(M, X, k)(M', X', k') = (M M', X M' + X', k + k' + X M' J X'^t)."""
    if h1.n != h2.n:
        raise DimensionMismatch("elements of different size")
    M2 = h2.g.matrix()
    xm = h1.lambda_mu @ M2
    k = h1.k_center + h2.k_center + float(xm @ _sp_form(h1.n) @ h2.lambda_mu)
    return JacobiElementR(h1.g @ h2.g, xm + h2.lambda_mu, k)


def inverse_jacobi_r(h: JacobiElementR) -> JacobiElementR:
    ginv = h.g.inverse()
    x = -h.lambda_mu @ ginv.matrix()
    # central part: -k - (X M^{-1}) J (-X M^{-1})^t = -k, since v J v^t = 0
    return JacobiElementR(ginv, x, -h.k_center)


def _cayley_image(g: SymplecticR) -> SymplecticC:
    """2p = a + d + i(b - c), 2q = a - d - i(b + c), trusted: the image of
    a validated real element, which satisfies the complex relations up to
    roundoff."""
    gc = object.__new__(SymplecticC)
    object.__setattr__(gc, "p", 0.5 * (g.a + g.d + 1j * (g.b - g.c)))
    object.__setattr__(gc, "q", 0.5 * (g.a - g.d - 1j * (g.b + g.c)))
    object.__setattr__(gc, "tol", 1e-8)
    return gc


def cayley_conjugate(g: SymplecticR) -> SymplecticC:
    """2p = a + d + i(b - c), 2q = a - d - i(b + c), checked at tol 1e-8."""
    gc = _cayley_image(g)
    return SymplecticC(gc.p, gc.q, tol=gc.tol)


def inverse_cayley_conjugate(gc: SymplecticC) -> SymplecticR:
    """2a = p + q + cc, 2b = i(pbar - qbar - p + q), 2c = i(p + q - cc),
    2d = p - q + cc."""
    p, q = gc.p, gc.q
    a = (p + q + p.conj() + q.conj()) / 2.0
    b = 1j * (p.conj() - q.conj() - p + q) / 2.0
    c = 1j * (p + q - p.conj() - q.conj()) / 2.0
    d = (p - q + p.conj() - q.conj()) / 2.0
    for name, m in (("a", a), ("b", b), ("c", c), ("d", d)):
        if _max_abs(m.imag) > 1e-8:
            raise InvalidInput(f"block {name} of the real image is not real")
    return SymplecticR(a.real, b.real, c.real, d.real, tol=1e-8)


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


def fc_transform(pt: JacobiBallPoint) -> tuple[np.ndarray, np.ndarray]:
    """Kaehler-product coordinates: eta = (1 - W Wbar)^{-1}(z + W zbar), the
    point's own (see ``domains``), returned as new arrays."""
    return np.array(pt.eta), np.array(pt.W)


def inverse_fc_transform(eta: np.ndarray, W: np.ndarray) -> JacobiBallPoint:
    """z = eta - W conj(eta)."""
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    W = np.asarray(W, dtype=complex)
    return JacobiBallPoint(z=eta - W @ eta.conj(), W=W)


def act_ball_differential(
    h: JacobiElementC, pt: JacobiBallPoint, tangent: TangentVector
) -> TangentVector:
    """Pushforward of a tangent under act_ball, in closed form.

    With L = W q* + p*, which is (qbar W + pbar)^t, differentiating
    W1 = (p W + q) (L^t)^{-1} and z1 = L^{-1} (z + alpha - W conj(alpha))
    gives

        dW1 = L^{-1} dW (L^{-1})^t,
        dz1 = L^{-1} (dz - dW (conj(alpha) + q* z1)),

    from one factorisation of L.
    """
    if tangent.dz is None:
        raise ValueError("jacobi-ball tangent needs a dz component")
    if h.n != pt.n:
        raise DimensionMismatch("element and point of different size")
    g, W = h.g, pt.W
    q_star = g.q.conj().T
    alpha_bar = h.alpha.conj()
    Linv = _solve(W @ q_star + g.p.conj().T, np.eye(pt.n))
    z1 = Linv @ (pt.z + h.alpha - W @ alpha_bar)
    dW1 = Linv @ tangent.dW @ Linv.T
    dz1 = Linv @ (tangent.dz - tangent.dW @ (alpha_bar + q_star @ z1))
    return TangentVector(dz=dz1, dW=0.5 * (dW1 + dW1.T))


def random_symplectic_r(n: int, rng: np.random.Generator) -> SymplecticR:
    """exp of a random sp(n, R) element with Frobenius norm capped at 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    b = 0.5 * (b + b.T)
    c = 0.5 * (c + c.T)
    X = np.block([[a, b], [c, -a.T]])
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
    """theta(random_jacobi_r(n, rng)), the same bits, with the symplectic
    relations checked once: on the real element, not again on its image."""
    h = random_jacobi_r(n, rng)
    return JacobiElementC(_cayley_image(h.g), h.alpha_re + 1j * h.alpha_im, h.k_center)
