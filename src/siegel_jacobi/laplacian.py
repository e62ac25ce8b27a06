"""Laplace-Beltrami operators on the ball, the upper half-plane and the
Jacobi ball, the Cayley chain rule for symmetric-matrix derivatives, and the
operator-transport check across the Cayley map.

Convention: a coefficient matrix C acts on a scalar field f as

    (Delta f)(p) = trace(C @ H),   H[a, b] = d^2 f / dz_a dzbar_b,

equivalently sum_{a,b} C[a, b] d^2 f / dzbar_a dz_b.  C is the right inverse
of the domain's metric matrix in ordered-pair coordinates; the orientation is
pinned by the identity Delta(ln G) = (2/k) n(n+1)(n+2)/2, which fails for the
conjugated alternative.  ``apply_laplacian`` never forms H: it sums the line
Laplacians of f along the eigenframe of C (``oracle.fd_laplacian``), with
1 + 8d evaluations of f instead of the Hessian's 1 + 8d + 16d(d-1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import PairIndex, SiegelUpperPoint, _dot, _item, _vecmat, flatten_point
from .groups import inverse_partial_cayley, partial_cayley
from .metric import (
    MetricParams,
    _fold_pair_metric,
    _pair_metric_inverse,
    metric_blocks,
    metric_inverse,
)
from .oracle import fd_laplacian, fd_wirtinger_gradient

__all__ = [
    "LaplacianCoefficients",
    "laplacian_coefficients",
    "apply_laplacian",
    "cayley_chain_rule_check",
    "laplacian_correspondence_check",
    "builtin_field",
    "BUILTIN_FIELDS",
]


@dataclass(frozen=True)
class LaplacianCoefficients:
    matrix: np.ndarray  # hermitian positive definite over the domain chart


def laplacian_coefficients(
    domain: str, params: MetricParams | None, pt
) -> LaplacianCoefficients:
    """Coefficient matrix of the Laplace-Beltrami operator.

    ball, upper: k_inv[(m,n),(u,v)] = (N_vn Nbar_mu + N_vm Nbar_nu) / 2 over
                 the point's own N = 1 - W Wbar or N = 2 Im V
    jacobi_ball: the assembled closed-form metric inverse (d x d)
    """
    if domain in ("ball", "upper"):
        return LaplacianCoefficients(_pair_metric_inverse(pt.N, PairIndex(pt.n)))
    if domain == "jacobi_ball":
        if params is None:
            raise ValueError("jacobi_ball coefficients need metric parameters")
        return LaplacianCoefficients(metric_inverse(params, pt).h_inv)
    raise ValueError(f"unknown domain {domain!r}")


def apply_laplacian(
    domain: str,
    params: MetricParams | None,
    f: Callable,
    pt,
    fd_step: float = 1e-4,
) -> complex:
    """trace(C H) for the coefficient matrix C and the Wirtinger Hessian H
    of f, by ``oracle.fd_laplacian``: 1 + 8d evaluations of f along the
    lines of C's eigenframe.  The callback receives the perturbed points as
    stacked points of the same type as pt; symmetric-matrix coordinates are
    perturbed jointly."""
    return fd_laplacian(f, pt, laplacian_coefficients(domain, params, pt).matrix, fd_step)


def _sym_derivative_matrix(f: Callable, pt) -> np.ndarray:
    """G[a, b] = e_ab df/dz_ab over a symmetric-matrix chart, as an n x n
    symmetric matrix; e_ab = (1 + delta_ab) / 2."""
    idx = PairIndex(pt.n)
    hol, _ = fd_wirtinger_gradient(f, pt)
    return idx.unpack(0.5 * hol / idx.f)  # e_ab = 1 / (2 f_ab)


def cayley_chain_rule_check(f: Callable, pt: SiegelUpperPoint) -> float:
    """Defect of the symmetric-derivative chain rule across the Cayley map:

        e_ab df/dv_ab  =  -(i/2) [(1 - W) G_W (1 - W)]_ab,

    where W is the Cayley image of V, G_W the weighted w-derivative matrix of
    f expressed in W, and f a scalar field on the upper half-plane.  The
    Cayley maps broadcast, so f expressed in W takes stacked points as f
    does.
    """
    if pt.u is not None:
        pt = SiegelUpperPoint(V=pt.V)
    G_V = _sym_derivative_matrix(f, pt)
    ball = partial_cayley(pt)

    def f_in_w(b):
        return f(inverse_partial_cayley(b))

    G_W = _sym_derivative_matrix(f_in_w, ball)
    A = np.eye(pt.n) - ball.W
    rhs = -0.5j * (A @ G_W @ A)
    return float(np.max(np.abs(G_V - rhs)))


def laplacian_correspondence_check(
    f: Callable, pt: SiegelUpperPoint, fd_step: float = 1e-4
) -> float:
    """|Delta_upper(f o Phi)(V) - Delta_ball(f)(Phi(V))| for a scalar field f
    on the ball: the operator is transported by the Cayley biholomorphism.
    Phi broadcasts, so f o Phi takes stacked points as f does."""
    if pt.u is not None:
        pt = SiegelUpperPoint(V=pt.V)
    ball = partial_cayley(pt)

    def pulled_back(v):
        return f(partial_cayley(v))

    upper_val = apply_laplacian("upper", None, pulled_back, pt, fd_step)
    ball_val = apply_laplacian("ball", None, f, ball, fd_step)
    return float(abs(upper_val - ball_val))


def _ln_g(domain: str, params: MetricParams | None):
    """ln det of the domain's assembled metric matrix, by ``slogdet`` (never
    the closed form of the determinant, which the lnG checks verify; a
    determinant beyond the float range keeps a finite log)."""
    if domain == "jacobi_ball":
        if params is None:
            raise ValueError("lnG on the jacobi ball needs metric parameters")
        metric = lambda pt: metric_blocks(params, pt).h
    elif domain in ("ball", "upper"):
        metric = lambda pt: _fold_pair_metric(pt.M, PairIndex(pt.n))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return lambda pt: _item(np.linalg.slogdet(metric(pt))[1])


def _re_poly(seed: int):
    """Seeded smooth real test field |c0 + c.zeta + zeta^t Q zeta|^2 over the
    chart coordinates; its mixed Hessian is nonconstant and nonzero.  The
    coefficients are drawn once per chart dimension d."""
    coefficients = {}

    def f(pt):
        zeta = flatten_point(pt)
        d = zeta.shape[-1]
        if d not in coefficients:
            rng = np.random.default_rng(seed + 7919 * d)
            c0 = complex(rng.standard_normal(), rng.standard_normal())
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            Q = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
            coefficients[d] = c0, c, Q
        c0, c, Q = coefficients[d]
        val = c0 + _dot(c, zeta) + _dot(_vecmat(zeta, Q), zeta)
        # |val|^2 rounded as libm hypot and pow round it at one point: numpy's
        # array abs and square take SIMD paths that differ in the last bit
        return _item(np.float_power(np.hypot(val.real, val.imag), 2.0))

    return f


BUILTIN_FIELDS = ("const", "lnG", "trWWbar", "normz2", "re_poly(seed)")


def builtin_field(name: str, domain: str, params: MetricParams | None = None):
    """CLI-facing test fields, keyed by name.  Every one broadcasts over a
    leading stencil axis (one value per stacked point) and gives a Python
    float at a single point."""
    if name == "const":
        return lambda pt: _item(np.ones(pt.matrix.shape[:-2]))
    if name == "lnG":
        return _ln_g(domain, params)
    if name == "trWWbar":

        def f(pt):
            m = pt.matrix
            return _item(np.trace(m @ m.conj(), axis1=-2, axis2=-1).real)

        return f
    if name == "normz2":

        def f(pt):
            vec = pt.vector
            if vec is None:
                raise ValueError("normz2 needs a point with a vector part")
            return _item(_dot(vec.conj(), vec).real)

        return f
    m = re.fullmatch(r"re_poly\((\d+)\)", name)
    if m:
        return _re_poly(int(m.group(1)))
    raise ValueError(f"unknown field {name!r}; available: {BUILTIN_FIELDS}")
