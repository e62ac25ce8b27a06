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
    at_offset: Callable[[np.ndarray], object]  # complex offset -> point
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
        vec = None if vec0 is None else vec0 + delta[:k]
        return rebuild(vec, mat0 + idx.unpack(delta[k:]))

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


def _diagonal_entry(f, chart, a, ha, f0):
    """H[a, a] = (Dxx + Dyy) / 4 from the 4 points +-ha e_a, +-i ha e_a."""
    ea = _unit(chart.dim, a)

    def second(s):
        up = f(chart.at_offset(s * ea))
        dn = f(chart.at_offset(-s * ea))
        return (up - 2.0 * f0 + dn) / (s.real**2 + s.imag**2)

    return 0.25 * (second(ha) + second(1j * ha))


def _pair_entries(f, chart, a, b, ha, hb):
    """(H[a, b], H[b, a]) for a != b, d^2 f / dz_a dzbar_b = (Dxx + Dyy +
    i (Dxy - Dyx)) / 4.  Both entries difference the same 16 points
    sa e_a + sb e_b, so each point is evaluated once; each entry keeps its
    own difference order and divisor, so it rounds as if computed alone."""
    ea = _unit(chart.dim, a)
    eb = _unit(chart.dim, b)

    def second(sa, sb):
        """Mixed second difference along (sa e_a, sb e_b), and along
        (sb e_b, sa e_a) from the same four values."""
        pp = f(chart.at_offset(sa * ea + sb * eb))
        pm = f(chart.at_offset(sa * ea - sb * eb))
        mp = f(chart.at_offset(-sa * ea + sb * eb))
        mm = f(chart.at_offset(-sa * ea - sb * eb))
        na = abs(sa)
        nb = abs(sb)
        return (pp - pm - mp + mm) / (4.0 * na * nb), (pp - mp - pm + mm) / (4.0 * nb * na)

    dxx, dxx_t = second(ha, hb)
    dyy, dyy_t = second(1j * ha, 1j * hb)
    dxy, dyx_t = second(ha, 1j * hb)   # x along a, y along b
    dyx, dxy_t = second(1j * ha, hb)   # y along a, x along b
    return (
        0.25 * (dxx + dyy + 1j * (dxy - dyx)),
        0.25 * (dxx_t + dyy_t + 1j * (dxy_t - dyx_t)),
    )


def fd_wirtinger_hessian(f: Callable, pt, cfg: FdConfig | None = None) -> np.ndarray:
    """Mixed Wirtinger Hessian H[a, b] = d^2 f / dz_a dzbar_b over the
    point's chart, via central differences (optionally Richardson-refined).

    H[a, b] and H[b, a] share their 16 stencil points per step size, so each
    unordered pair a < b is evaluated once and both entries are differenced
    from the shared values.  H[b, a] is not taken as conj(H[a, b]): that
    holds only for real f, and each entry keeps the arithmetic it would have
    on its own.  f is called 1 + 4d + 8d(d-1) times with the
    central scheme and 1 + 8d + 16d(d-1) times with Richardson refinement,
    d = chart dimension.
    """
    cfg = cfg or FdConfig()
    chart = chart_for(pt)
    h = _steps(chart, cfg)
    f0 = f(chart.at_offset(np.zeros(chart.dim, dtype=complex)))
    d = chart.dim
    richardson = cfg.scheme == "richardson"
    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        aa = _diagonal_entry(f, chart, a, h[a], f0)
        if richardson:
            aa = (4.0 * _diagonal_entry(f, chart, a, h[a] / 2, f0) - aa) / 3.0
        out[a, a] = aa
        for b in range(a + 1, d):
            ab, ba = _pair_entries(f, chart, a, b, h[a], h[b])
            if richardson:
                ab2, ba2 = _pair_entries(f, chart, a, b, h[a] / 2, h[b] / 2)
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
