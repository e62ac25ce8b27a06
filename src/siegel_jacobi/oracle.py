"""Independent numerical ground truth: Wirtinger finite-difference gradients
and Hessians, numerical Jacobians of holomorphic maps with a holomorphy gate,
and the volume-density invariance check.

Each oracle builds all of its stencil offsets first and hands them to the
field or map as stacked points: one trusted point whose arrays carry a
leading stencil axis, in chunks of at most ``STACK_ENTRIES // d^2`` points.
The field returns one value per point (a map, one stacked image point).
Offsets are chart coordinates: ``pt.at_offset`` and ``flatten_point`` (see
``domains``) move and read every point type the same way.

The finite-difference oracles never call the closed forms they are used
to verify; perturbations of symmetric-matrix coordinates always move the
(p, q) and (q, p) entries jointly, matching the package-wide symmetric-pair
convention.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .domains import SiegelBallPoint, flatten_point
from .errors import NonHolomorphic, StepTooLarge
from .groups import JacobiElementC, act_ball, act_siegel_ball
from .kernels import volume_densities

__all__ = [
    "fd_wirtinger_gradient",
    "fd_wirtinger_hessian",
    "fd_jacobian",
    "volume_invariance_check",
]


# smallest fd_step accepted: a second difference at step h rounds by about
# eps |f| / h^2.  The Laplacian of lnG at the n = 1 origin (exactly 3) comes
# out as 3.00027 at 1e-6, 3.20 at 1e-7, -1.85 at 1e-8 and 0 at 1e-9.
MIN_FD_STEP = 1e-6


def _steps(pt, fd_step: float) -> np.ndarray:
    """Per-coordinate steps fd_step * (1 + |coordinate|) over the chart of
    pt; every oracle takes its steps here, before it builds a stencil."""
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"fd_step must be a positive finite number, got {fd_step!r}")
    if fd_step < MIN_FD_STEP:
        raise ValueError(
            f"fd_step {fd_step!r} is below {MIN_FD_STEP:g}, where rounding swamps the differences"
        )
    h = fd_step * (1.0 + np.abs(flatten_point(pt)))
    # one stencil point moves at most two coordinates by h each; a coordinate
    # move of size h shifts the relevant Gram spectrum by at most ~4h
    worst = 4.0 * float(np.max(h)) * (1.0 + float(np.max(h)))
    margin = pt.margin()
    if worst >= margin:
        raise StepTooLarge(f"stencil excursion {worst:.3e} exceeds domain margin {margin:.3e}")
    return h


def _stencil(s: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Offsets of the Hessian stencil at step vector s, one row per point.

    First 4 rows per coordinate a (the diagonal entry): +-s_a e_a and
    +-i s_a e_a.  Then 16 rows per pair (A[p], B[p]): for the directions
    (sa, sb) = (s_a, s_b), (i s_a, i s_b), (s_a, i s_b), (i s_a, s_b), the
    points sa e_a + sb e_b, sa e_a - sb e_b, -sa e_a + sb e_b, -sa e_a - sb e_b.
    Each row is built with the products and sums of the scalar expressions
    in ``_diagonal_entry``/``_pair_entries``, so it is the same offset to the
    last bit (signed zeros included).
    """
    E = np.eye(s.shape[0], dtype=complex)
    x, y = s[:, None], 1j * s[:, None]
    diag = np.stack([x * E, -x * E, y * E, -y * E], axis=1)

    def four(sa, sb):
        ta, tb, ma = sa * E[A], sb * E[B], -sa * E[A]
        return [ta + tb, ta - tb, ma + tb, ma - tb]

    pair = np.stack(
        four(x[A], x[B]) + four(y[A], y[B]) + four(x[A], y[B]) + four(y[A], x[B]), axis=1
    )
    return np.concatenate([diag.reshape(-1, s.shape[0]), pair.reshape(-1, s.shape[0])])


def _diagonal_entry(v, ha, f0):
    """H[a, a] = (Dxx + Dyy) / 4 from the 4 values of f at +-ha e_a,
    +-i ha e_a (the order of ``_stencil``)."""

    def second(s, up, dn):
        return (up - 2.0 * f0 + dn) / (s.real**2 + s.imag**2)

    return 0.25 * (second(ha, v[0], v[1]) + second(1j * ha, v[2], v[3]))


def _pair_entries(v, ha, hb):
    """(H[a, b], H[b, a]) for a != b, d^2 f / dz_a dzbar_b = (Dxx + Dyy +
    i (Dxy - Dyx)) / 4, from the 16 values of f at sa e_a + sb e_b (the order
    of ``_stencil``).  Both entries difference the same values; each keeps
    its own difference order and divisor, so it rounds as if computed
    alone."""

    def second(sa, sb, pp, pm, mp, mm):
        """Mixed second difference along (sa e_a, sb e_b), and along
        (sb e_b, sa e_a) from the same four values."""
        na = abs(sa)
        nb = abs(sb)
        return (pp - pm - mp + mm) / (4.0 * na * nb), (pp - mp - pm + mm) / (4.0 * nb * na)

    dxx, dxx_t = second(ha, hb, *v[0:4])
    dyy, dyy_t = second(1j * ha, 1j * hb, *v[4:8])
    dxy, dyx_t = second(ha, 1j * hb, *v[8:12])   # x along a, y along b
    dyx, dxy_t = second(1j * ha, hb, *v[12:16])  # y along a, x along b
    return (
        0.25 * (dxx + dyy + 1j * (dxy - dyx)),
        0.25 * (dxx_t + dyy_t + 1j * (dxy_t - dyx_t)),
    )


# A field gets at most STACK_ENTRIES // d^2 stencil points per call.
# A point's metric has d^2 entries, so the field's arrays stay near
# STACK_ENTRIES complex entries (8 MiB) whatever n is: at n = 8 (d = 44) the
# 30625-point Richardson stencil goes in chunks of 270, while every stencil
# up to n = 3 (d = 9, 1225 points) is a single call.
STACK_ENTRIES = 2**19


def _evaluate(fn: Callable, pt, offsets: np.ndarray, scalar: bool):
    """fn at ``pt.at_offset`` of every offset row, in row order.

    fn gets consecutive chunks of at most STACK_ENTRIES // d^2 points as one
    point with a leading stencil axis, and must return one value per point.
    A scalar field's values come back as a list of Python scalars (for a
    complex field, numpy complex scalars would divide by the real step with
    a different rounding than Python complex numbers do); any other fn's
    values come back as one array with a row per point."""
    size = max(1, STACK_ENTRIES // offsets.shape[1] ** 2)
    parts = []
    for start in range(0, offsets.shape[0], size):
        chunk = offsets[start : start + size]
        vals = np.asarray(fn(pt.at_offset(chunk)))
        if vals.shape[:1] != chunk.shape[:1] or (scalar and vals.ndim != 1):
            raise ValueError(
                f"field returned shape {vals.shape}, "
                f"expected one value per stencil point ({chunk.shape[0]},)"
            )
        parts.append(vals)
    values = np.concatenate(parts)
    return values.tolist() if scalar else values


def fd_wirtinger_hessian(f: Callable, pt, fd_step: float = 1e-4) -> np.ndarray:
    """Mixed Wirtinger Hessian H[a, b] = d^2 f / dz_a dzbar_b over the
    point's chart, via central differences at the steps h of ``_steps`` and
    h / 2, Richardson-combined for O(h^4) truncation.

    All stencil offsets are built first.  H[a, b] and H[b, a] share their 16
    stencil points per step size, so each unordered pair a < b is evaluated
    once and both entries are differenced from the shared values.  H[b, a]
    is not taken as conj(H[a, b]): that holds only for real f, and each entry
    keeps the arithmetic it would have on its own.

    The stencil has 1 + 8d + 16d(d-1) points, d = chart dimension.  f is
    called on points whose arrays carry a leading stencil axis of at most
    STACK_ENTRIES // d^2 points, and must return one value per stencil
    point: once per Hessian when the stencil fits (every stencil up to
    n = 3), else once per consecutive chunk of it.
    """
    h = _steps(pt, fd_step)
    d = h.shape[0]
    A, B = np.triu_indices(d, 1)
    offsets = np.concatenate(
        [np.zeros((1, d), dtype=complex), _stencil(h, A, B), _stencil(h / 2, A, B)]
    )
    values = _evaluate(f, pt, offsets, scalar=True)
    f0 = values[0]
    per_level = 4 * d + 16 * len(A)
    coarse = values[1 : 1 + per_level]
    fine = values[1 + per_level :]
    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        aa = _diagonal_entry(coarse[4 * a : 4 * a + 4], h[a], f0)
        out[a, a] = (4.0 * _diagonal_entry(fine[4 * a : 4 * a + 4], h[a] / 2, f0) - aa) / 3.0
    for p, (a, b) in enumerate(zip(A.tolist(), B.tolist())):
        i = 4 * d + 16 * p
        ab, ba = _pair_entries(coarse[i : i + 16], h[a], h[b])
        ab2, ba2 = _pair_entries(fine[i : i + 16], h[a] / 2, h[b] / 2)
        out[a, b], out[b, a] = (4.0 * ab2 - ab) / 3.0, (4.0 * ba2 - ba) / 3.0
    return out


def _first_derivatives(fn: Callable, pt, fd_step: float, scalar: bool):
    """(d/dz_a, d/dzbar_a) of fn's values for every chart coordinate a, as
    two lists over a: central differences along +-h_a e_a and +-i h_a e_a,
    Richardson-refined with the h_a / 2 stencil.  All 8d offsets are built
    first and evaluated as in ``_evaluate``."""
    h = _steps(pt, fd_step)
    d = h.shape[0]
    E = np.eye(d, dtype=complex)
    # row 4a + k of a level: step k (h_a, -h_a, i h_a, -i h_a) along e_a
    offsets = np.concatenate(
        [(np.stack([s, -s, 1j * s, -1j * s], axis=1)[..., None] * E[:, None]).reshape(-1, d)
         for s in (h, h / 2)]
    )
    values = _evaluate(fn, pt, offsets, scalar)

    def central(v, ha):
        dx = (v[0] - v[1]) / (2 * ha)
        dy = (v[2] - v[3]) / (2 * ha)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    hol, ahol = [], []
    for a in range(d):
        g, gb = central(values[4 * a : 4 * a + 4], h[a])
        i = 4 * d + 4 * a
        g2, gb2 = central(values[i : i + 4], h[a] / 2)
        hol.append((4 * g2 - g) / 3.0)
        ahol.append((4 * gb2 - gb) / 3.0)
    return hol, ahol


def fd_wirtinger_gradient(
    f: Callable, pt, fd_step: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dz_a, df/dzbar_a) over the chart coordinates.  f is called on the
    8d stencil points as stacked points, as in ``fd_wirtinger_hessian``."""
    hol, ahol = _first_derivatives(f, pt, fd_step, scalar=True)
    return np.array(hol, dtype=complex), np.array(ahol, dtype=complex)


# largest dbar-block entry that fd_jacobian accepts as a holomorphic map
HOL_TOL = 1e-7


def fd_jacobian(map_fn: Callable, pt, fd_step: float = 1e-4) -> np.ndarray:
    """Holomorphic Jacobian J[out, in] of a point-to-point map over ordered
    coordinates.  The dbar block is measured as well; if its largest entry
    exceeds HOL_TOL the map is flagged NonHolomorphic.  map_fn is called on
    stacked points, as in ``fd_wirtinger_hessian``, and must return one
    stacked image point (the group maps do).
    """
    cols, bar_cols = _first_derivatives(
        lambda q: flatten_point(map_fn(q)), pt, fd_step, scalar=False
    )
    J = np.stack(cols, axis=1)
    Jbar = np.stack(bar_cols, axis=1)
    worst = float(np.max(np.abs(Jbar))) if Jbar.size else 0.0
    if worst > HOL_TOL:
        raise NonHolomorphic(f"dbar block has max entry {worst:.3e} > {HOL_TOL:.3e}")
    return J


def volume_invariance_check(
    domain: str,
    h: JacobiElementC,
    pt,
) -> float:
    """|det J|^2 Q(h.pt) / Q(pt) - 1 for the invariant densities of
    ``kernels.volume_densities``, Q = det(1 - W Wbar)^{-(n+1)} on the ball
    and ^{-(n+2)} on the Jacobi ball, with J the finite-difference Jacobian
    of the action.  Zero exactly when the density transforms by the squared
    Jacobian.
    """
    if domain == "ball":
        pt = pt.ball
        action = lambda x: SiegelBallPoint.assemble(None, act_siegel_ball(h.g, x.W))
        density = lambda x: volume_densities(x).Q_ball
    elif domain == "jacobi_ball":
        action = lambda x: act_ball(h, x)
        density = lambda x: volume_densities(x).Q_jacobi
    else:
        raise ValueError(f"unknown domain {domain!r}")
    J = fd_jacobian(action, pt)
    ratio = abs(np.linalg.det(J)) ** 2 * density(action(pt)) / density(pt)
    return abs(ratio - 1.0)
