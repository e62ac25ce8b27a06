"""Independent numerical ground truth: Wirtinger finite-difference gradients
and Hessians, numerical Jacobians of holomorphic maps with a holomorphy gate,
and the volume-density invariance check.

Nothing here calls the closed forms it is used to verify; perturbations of
symmetric-matrix coordinates always move the (p, q) and (q, p) entries
jointly, matching the package-wide symmetric-pair convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
)
from .errors import NonHolomorphic, StepTooLarge
from .groups import JacobiElementC, act_ball, act_siegel_ball

__all__ = [
    "FdConfig",
    "Chart",
    "chart_for",
    "flatten_point",
    "fd_wirtinger_gradient",
    "fd_wirtinger_hessian",
    "fd_jacobian",
    "volume_invariance_check",
]


@dataclass(frozen=True)
class FdConfig:
    """Step control for the finite-difference oracles.

    step is scaled per coordinate by (1 + |coordinate|) when scale_step is
    set; richardson combines h and h/2 stencils for O(h^4) truncation.
    """

    step: float = 1e-4
    scheme: str = "richardson"  # "central" | "richardson"
    scale_step: bool = True

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.scheme not in ("central", "richardson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class Chart:
    """Complex coordinates around a point: (z-block then ordered W-pairs)."""

    dim: int
    coords: np.ndarray                       # base coordinates, complex
    at_offset: Callable[[np.ndarray], object]  # offset (..., dim) -> point
    margin: float                            # distance proxy to the boundary


def _parts(pt):
    """(vector part or None, symmetric matrix part, rebuild(vec, mat))."""
    if isinstance(pt, JacobiBallPoint):
        return pt.z, pt.W, JacobiBallPoint.trusted
    if isinstance(pt, SiegelBallPoint):
        return None, pt.W, lambda _, W: SiegelBallPoint.trusted(W)
    if isinstance(pt, SiegelUpperPoint):
        return pt.u, pt.V, lambda u, V: SiegelUpperPoint.trusted(V, u)
    raise TypeError(f"no chart for {type(pt).__name__}")


def chart_for(pt) -> Chart:
    """Coordinate chart for a domain point (see the module docstring)."""
    vec0, mat0, rebuild = _parts(pt)
    idx = PairIndex(pt.n)
    k = 0 if vec0 is None else pt.n

    def at_offset(delta: np.ndarray):
        # delta of shape (S, dim) gives one trusted point whose arrays carry
        # the leading stencil axis S
        vec = None if vec0 is None else vec0 + delta[..., :k]
        return rebuild(vec, mat0 + idx.unpack(delta[..., k:]))

    if isinstance(pt, SiegelUpperPoint):
        margin = float(np.linalg.eigvalsh(0.5 * (pt.R + pt.R.T))[0])
    else:
        margin = float(np.linalg.eigvalsh(pt.cross_gram())[0])
    return Chart(k + idx.size, flatten_point(pt), at_offset, margin)


def flatten_point(pt) -> np.ndarray:
    """Complex coordinate vector of a point in its chart."""
    vec, mat, _ = _parts(pt)
    w = PairIndex(pt.n).pack(mat)
    return w if vec is None else np.concatenate([vec, w])


def _steps(chart: Chart, cfg: FdConfig) -> np.ndarray:
    if cfg.scale_step:
        h = cfg.step * (1.0 + np.abs(chart.coords))
    else:
        h = np.full(chart.dim, cfg.step)
    # one stencil point moves at most two coordinates by h each; a coordinate
    # move of size h shifts the relevant Gram spectrum by at most ~4h
    worst = 4.0 * float(np.max(h)) * (1.0 + float(np.max(h)))
    if worst >= chart.margin:
        raise StepTooLarge(
            f"stencil excursion {worst:.3e} exceeds domain margin {chart.margin:.3e}"
        )
    return h


def _unit(dim: int, a: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[a] = 1.0
    return e


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


# A stacked field gets at most STACK_ENTRIES // d^2 stencil points per call.
# A point's metric has d^2 entries, so the field's arrays stay near
# STACK_ENTRIES complex entries (8 MiB) whatever n is: at n = 8 (d = 44) the
# 30625-point Richardson stencil goes in chunks of 270, while every stencil
# up to n = 3 (d = 9, 1225 points) is a single call.
STACK_ENTRIES = 2**19


def fd_wirtinger_hessian(
    f: Callable, pt, cfg: FdConfig | None = None, *, stacked: bool = False
) -> np.ndarray:
    """Mixed Wirtinger Hessian H[a, b] = d^2 f / dz_a dzbar_b over the
    point's chart, via central differences (optionally Richardson-refined).

    All stencil offsets are built first.  H[a, b] and H[b, a] share their 16
    stencil points per step size, so each unordered pair a < b is evaluated
    once and both entries are differenced from the shared values.  H[b, a]
    is not taken as conj(H[a, b]): that holds only for real f, and each entry
    keeps the arithmetic it would have on its own.

    With ``stacked=False`` f is called once per stencil point:
    1 + 4d + 8d(d-1) times with the central scheme and 1 + 8d + 16d(d-1)
    times with Richardson refinement, d = chart dimension.  With
    ``stacked=True`` f is called on points whose arrays carry a leading
    stencil axis of at most STACK_ENTRIES // d^2 points, and must return one
    value per stencil point: once per Hessian when the stencil fits (every
    stencil up to n = 3), else once per consecutive chunk of it.  The caller declares this, since f cannot be
    told apart from a per-point field.  Both conventions give the same
    Hessian when the stacked values equal the per-point ones.
    """
    cfg = cfg or FdConfig()
    chart = chart_for(pt)
    h = _steps(chart, cfg)
    d = chart.dim
    richardson = cfg.scheme == "richardson"
    A, B = np.triu_indices(d, 1)
    levels = [h, h / 2] if richardson else [h]
    offsets = np.concatenate(
        [np.zeros((1, d), dtype=complex)] + [_stencil(s, A, B) for s in levels]
    )
    if stacked:
        values = []
        size = max(1, STACK_ENTRIES // d**2)
        for start in range(0, offsets.shape[0], size):
            chunk = offsets[start : start + size]
            vals = np.asarray(f(chart.at_offset(chunk)))
            if vals.shape != chunk.shape[:1]:
                raise ValueError(
                    f"stacked field returned shape {vals.shape}, "
                    f"expected one value per stencil point ({chunk.shape[0]},)"
                )
            # Python scalars, as per-point fields return them: for a complex
            # field, numpy complex scalars would divide by the real step with
            # a different rounding than Python complex numbers do
            values += vals.tolist()
    else:
        values = [f(chart.at_offset(delta)) for delta in offsets]
    f0 = values[0]
    per_level = 4 * d + 16 * len(A)
    coarse = values[1 : 1 + per_level]
    fine = values[1 + per_level :]
    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        aa = _diagonal_entry(coarse[4 * a : 4 * a + 4], h[a], f0)
        if richardson:
            aa = (4.0 * _diagonal_entry(fine[4 * a : 4 * a + 4], h[a] / 2, f0) - aa) / 3.0
        out[a, a] = aa
    for p, (a, b) in enumerate(zip(A.tolist(), B.tolist())):
        i = 4 * d + 16 * p
        ab, ba = _pair_entries(coarse[i : i + 16], h[a], h[b])
        if richardson:
            ab2, ba2 = _pair_entries(fine[i : i + 16], h[a] / 2, h[b] / 2)
            ab, ba = (4.0 * ab2 - ab) / 3.0, (4.0 * ba2 - ba) / 3.0
        out[a, b], out[b, a] = ab, ba
    return out


def _gradient_entry(f, chart, a, ha):
    e = _unit(chart.dim, a)
    dx = (f(chart.at_offset(ha * e)) - f(chart.at_offset(-ha * e))) / (2 * ha)
    hy = 1j * ha
    dy = (f(chart.at_offset(hy * e)) - f(chart.at_offset(-hy * e))) / (2 * ha)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def fd_wirtinger_gradient(
    f: Callable, pt, cfg: FdConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dz_a, df/dzbar_a) over the chart coordinates."""
    cfg = cfg or FdConfig()
    chart = chart_for(pt)
    h = _steps(chart, cfg)
    hol = np.empty(chart.dim, dtype=complex)
    ahol = np.empty(chart.dim, dtype=complex)
    for a in range(chart.dim):
        g1, gb1 = _gradient_entry(f, chart, a, h[a])
        if cfg.scheme == "richardson":
            g2, gb2 = _gradient_entry(f, chart, a, h[a] / 2)
            g1, gb1 = (4 * g2 - g1) / 3.0, (4 * gb2 - gb1) / 3.0
        hol[a] = g1
        ahol[a] = gb1
    return hol, ahol


def fd_jacobian(
    map_fn: Callable,
    pt,
    cfg: FdConfig | None = None,
    hol_tol: float = 1e-7,
) -> np.ndarray:
    """Holomorphic Jacobian J[out, in] of a point-to-point map over ordered
    coordinates.  The dbar block is measured as well; if its largest entry
    exceeds hol_tol the map is flagged NonHolomorphic.
    """
    cfg = cfg or FdConfig()
    chart = chart_for(pt)
    h = _steps(chart, cfg)

    def coords_of(delta):
        return flatten_point(map_fn(chart.at_offset(delta)))

    base = coords_of(np.zeros(chart.dim, dtype=complex))
    out_dim = base.shape[0]
    J = np.empty((out_dim, chart.dim), dtype=complex)
    Jbar = np.empty((out_dim, chart.dim), dtype=complex)

    def column(a, ha):
        e = _unit(chart.dim, a)
        dx = (coords_of(ha * e) - coords_of(-ha * e)) / (2 * ha)
        dy = (coords_of(1j * ha * e) - coords_of(-1j * ha * e)) / (2 * ha)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    for a in range(chart.dim):
        c1, cb1 = column(a, h[a])
        if cfg.scheme == "richardson":
            c2, cb2 = column(a, h[a] / 2)
            c1, cb1 = (4 * c2 - c1) / 3.0, (4 * cb2 - cb1) / 3.0
        J[:, a] = c1
        Jbar[:, a] = cb1

    worst = float(np.max(np.abs(Jbar))) if Jbar.size else 0.0
    if worst > hol_tol:
        raise NonHolomorphic(f"dbar block has max entry {worst:.3e} > {hol_tol:.3e}")
    return J


def _ball_density(pt, exponent: int) -> float:
    sign, logdet = np.linalg.slogdet(pt.cross_gram())
    return float(np.exp(-exponent * logdet))


def volume_invariance_check(
    domain: str,
    h: JacobiElementC,
    pt,
    cfg: FdConfig | None = None,
) -> float:
    """|det J|^2 Q(h.pt) / Q(pt) - 1 for the invariant densities
    Q = det(1 - W Wbar)^{-(n+1)} on the ball and ^{-(n+2)} on the Jacobi
    ball.  Zero exactly when the density transforms by the squared Jacobian.
    """
    if domain == "ball":
        if not isinstance(pt, SiegelBallPoint):
            pt = SiegelBallPoint(pt.W)
        action = lambda x: SiegelBallPoint.trusted(act_siegel_ball(h.g, x.W))
        exponent = pt.n + 1
    elif domain == "jacobi_ball":
        action = lambda x: act_ball(h, JacobiBallPoint(z=x.z, W=x.W))
        exponent = pt.n + 2
    else:
        raise ValueError(f"unknown domain {domain!r}")
    J = fd_jacobian(action, pt, cfg)
    moved = action(pt)
    ratio = (
        abs(np.linalg.det(J)) ** 2
        * _ball_density(moved, exponent)
        / _ball_density(pt, exponent)
    )
    return abs(ratio - 1.0)
