"""Independent numerical ground truth: Wirtinger finite-difference gradients,
Hessians and Laplacians trace(C H), and numerical Jacobians of holomorphic
maps with a holomorphy gate.

Every derivative comes from one stencil, the line stencil: for each row v
of a direction array, the values at p + s w v for w = 1, -1, i, -i and the
Richardson levels s = 1, 1/2.  First derivatives take the lines along the
coordinate axes; the Hessian polarises line Laplacians along the axes and
along h_a e_a + i^k h_b e_b; ``fd_laplacian`` takes d lines along the
eigenframe of C.

Each oracle builds all of its stencil offsets first and hands them to the
field or map as stacked points: one trusted point whose arrays carry a
leading stencil axis, in chunks of at most ``STACK_ENTRIES // d^2`` points.
The field returns one value per point (a map, one stacked image point).
Offsets are chart coordinates: ``pt.at_offset`` and ``flatten_point`` (see
``domains``) move and read every point type the same way.

The oracles never call the closed forms they are used to verify: this
module imports nothing from ``groups``, ``metric`` or ``kernels``, and the
laws that combine an oracle with a closed form live in ``verify``.
Perturbations of symmetric-matrix coordinates always move the (p, q) and
(q, p) entries jointly, matching the package-wide symmetric-pair convention.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .domains import flatten_point
from .errors import DimensionMismatch, NonHolomorphic, StepTooLarge

__all__ = [
    "fd_wirtinger_gradient",
    "fd_wirtinger_hessian",
    "fd_laplacian",
    "fd_jacobian",
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
    return fd_step * (1.0 + np.abs(flatten_point(pt)))


# A field gets at most STACK_ENTRIES // d^2 stencil points per call.
# A point's metric has d^2 entries, so the field's arrays stay near
# STACK_ENTRIES complex entries (8 MiB) whatever n is: at n = 8 (d = 44) the
# 30625-point Richardson Hessian stencil goes in chunks of 270, while every
# stencil up to n = 3 (d = 9, 1225 points) is a single call.
STACK_ENTRIES = 2**19


def _evaluate(fn: Callable, pt, offsets: np.ndarray, scalar: bool) -> np.ndarray:
    """fn at ``pt.at_offset`` of every offset row, as one array with a row
    per point.

    fn gets consecutive chunks of at most STACK_ENTRIES // d^2 points as one
    point with a leading stencil axis, and must return one value per point
    (a scalar field one number each)."""
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
    return np.concatenate(parts)


# The line stencil: the four points w = 1, -1, i, -i of each complex line
# p + s w v, at the levels s = 1 and 1/2 that Richardson combines.
LINE = np.array([1.0, -1.0, 1j, -1j])
LEVELS = np.array([1.0, 0.5])


def _line_values(fn: Callable, pt, V: np.ndarray, center: bool, scalar: bool = True):
    """(fn(p) or None, values): fn at p + s w v for every row v of V, as one
    array indexed (w, level, row) and then by the shape of one value.  The
    w axis leads, so that ``sum`` adds a line's four values in one fixed
    order.

    Before any evaluation the rows' excursion is bounded: a chart offset of
    l1 norm e moves the matrix part by at most e in spectral norm, which
    shifts the spectrum behind ``pt.margin()`` by at most e (2 + e)."""
    excursion = float(np.max(np.sum(np.abs(V), axis=1)))
    worst = excursion * (2.0 + excursion)
    margin = pt.margin()
    if worst >= margin:
        raise StepTooLarge(f"stencil excursion {worst:.3e} exceeds domain margin {margin:.3e}")
    d = V.shape[1]
    offsets = (LINE[:, None, None, None] * LEVELS[:, None, None] * V).reshape(-1, d)
    if center:
        offsets = np.concatenate([np.zeros((1, d), dtype=complex), offsets])
    values = _evaluate(fn, pt, offsets, scalar)
    lines = values[1:] if center else values
    return (values[0] if center else None), lines.reshape((4, 2) + V.shape[:1] + values.shape[1:])


def _richardson(per_level: np.ndarray) -> np.ndarray:
    """(4 x(s/2) - x(s)) / 3 over the leading level axis: the O(s^2) terms
    of a central difference cancel."""
    return (4.0 * per_level[1] - per_level[0]) / 3.0


def _line_laplacians(f0, lines: np.ndarray) -> np.ndarray:
    """d^2 f(p + w v) / dw dwbar at w = 0 for every row v of the stencil:
    sum_w (f(p + s w v) - f(p)) / (4 s^2) at each level, Richardson-combined."""
    return _richardson(sum(lines - f0) / (4.0 * LEVELS[:, None] ** 2))


def fd_wirtinger_hessian(f: Callable, pt, fd_step: float = 1e-4) -> np.ndarray:
    """Mixed Wirtinger Hessian H[a, b] = d^2 f / dz_a dzbar_b over the
    point's chart, by polarisation of line Laplacians at the steps h of
    ``_steps`` and h / 2, Richardson-combined for O(h^4) truncation.

    H[a, a] is the line Laplacian along h_a e_a over h_a^2.  A pair a < b
    takes the four lines along h_a e_a + i^k h_b e_b, k = 0..3; with
    Re = sum_w (f_0 - f_2) and Im = sum_w (f_1 - f_3) over their values,
    H[a, b] = (Re + i Im) / (16 h_a h_b) and H[b, a] = (Re - i Im) /
    (16 h_a h_b).  The differences come before the sums, so that the large
    common part of the values cancels first.  H[b, a] is not taken as
    conj(H[a, b]): that holds only for real f.

    The stencil has 1 + 8d + 16d(d-1) points, d = chart dimension.  f is
    called on points whose arrays carry a leading stencil axis of at most
    STACK_ENTRIES // d^2 points, and must return one value per stencil
    point: once per Hessian when the stencil fits (every stencil up to
    n = 3), else once per consecutive chunk of it.
    """
    h = _steps(pt, fd_step)
    d = h.shape[0]
    A, B = np.triu_indices(d, 1)
    # pair lines h_a e_a + LINE[j] h_b e_b: i^k for k = 0, 2, 1, 3
    pairs = np.zeros((4, len(A), d), dtype=complex)
    pairs[:, np.arange(len(A)), A] = h[A]
    pairs[:, np.arange(len(A)), B] = LINE[:, None] * h[B]
    f0, lines = _line_values(f, pt, np.concatenate([np.diag(h), pairs.reshape(-1, d)]), True)
    out = np.diag(_line_laplacians(f0, lines[:, :, :d]) / (h * h)).astype(complex)
    quad = lines[:, :, d:].reshape(4, 2, 4, len(A))  # (w, level, j, pair)
    re = sum(quad[:, :, 0] - quad[:, :, 1])
    im = sum(quad[:, :, 2] - quad[:, :, 3])
    den = 16.0 * LEVELS[:, None] ** 2 * (h[A] * h[B])
    out[A, B] = _richardson((re + 1j * im) / den)
    out[B, A] = _richardson((re - 1j * im) / den)
    return out


def fd_laplacian(f: Callable, pt, C: np.ndarray, fd_step: float = 1e-4) -> complex:
    """trace(C H) for the Wirtinger Hessian H of f and a hermitian C over
    the point's chart, from 1 + 8d evaluations of f.

    With D = diag(h) for the steps h of ``_steps`` and eigh(D^-1 C D^-1) =
    U diag(lam) U*, trace(C H) = sum_i lam_i L_i, where L_i is the line
    Laplacian of f along v_i = D conj(u_i).  Each line is scaled by
    t_i = 1 / max|u_i| (and lam_i by t_i^2), so that its largest coordinate
    moves by exactly that coordinate's step: a unit u_i would take steps
    up to sqrt(d) times shorter, with more rounding.  C enters only through
    the contraction, so no closed form reaches f; f is called on stacked
    points, as in ``fd_wirtinger_hessian``.
    """
    h = _steps(pt, fd_step)
    if C.shape != (h.shape[0], h.shape[0]):
        raise DimensionMismatch("field chart and coefficient matrix disagree")
    lam, U = np.linalg.eigh(C / np.outer(h, h))
    top = np.max(np.abs(U), axis=0)
    f0, lines = _line_values(f, pt, h * (U / top).conj().T, True)
    return complex((lam * top**2) @ _line_laplacians(f0, lines))


def _first_derivatives(fn: Callable, pt, fd_step: float, scalar: bool):
    """(d/dz_a, d/dzbar_a) of fn's values for every chart coordinate a, as
    two arrays with a row per a: central differences along the lines
    h_a e_a, Richardson-refined with the h_a / 2 level.  The 8d points
    exclude p itself."""
    h = _steps(pt, fd_step)
    _, lines = _line_values(fn, pt, np.diag(h), False, scalar)
    lines = lines.reshape(lines.shape[:3] + (-1,))  # one column per value entry
    den = (2.0 * LEVELS[:, None] * h)[..., None]
    dx = (lines[0] - lines[1]) / den
    dy = (lines[2] - lines[3]) / den
    return _richardson(0.5 * (dx - 1j * dy)), _richardson(0.5 * (dx + 1j * dy))


def fd_wirtinger_gradient(
    f: Callable, pt, fd_step: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dz_a, df/dzbar_a) over the chart coordinates.  f is called on the
    8d stencil points as stacked points, as in ``fd_wirtinger_hessian``."""
    hol, ahol = _first_derivatives(f, pt, fd_step, scalar=True)
    return hol[:, 0], ahol[:, 0]


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
    # row-major, as a caller's J @ x rounds differently on a transposed view
    J, Jbar = np.ascontiguousarray(cols.T), bar_cols.T
    worst = float(np.max(np.abs(Jbar))) if Jbar.size else 0.0
    if worst > HOL_TOL:
        raise NonHolomorphic(f"dbar block has max entry {worst:.3e} > {HOL_TOL:.3e}")
    return J
