"""Per-point loop references for the finite-difference oracles.

The oracles hand a field its whole stencil as stacked points.  These loops
call it at one single point per stencil offset instead, entry by entry, so
an oracle result that equals them to the last bit shows that the stacked
values, the chunking and the differencing all agree with the plain
definition.  Each single point is ``pt.at_offset`` of a 1-d offset, the
same chart the oracles use, and goes through the validating constructor.  A scalar field's values are taken as Python scalars, as the
oracles take them: numpy complex scalars divide by a real step with a
different rounding.
"""

import numpy as np

from siegel_jacobi.domains import flatten_point
from siegel_jacobi.oracle import _steps


def richardson_ids(value):
    """Test id of a parameter value.  Every oracle runs the Richardson
    scheme, and the ids of the loop-reference tests keep naming it."""
    return f"{value}-richardson"


def _scalar(f):
    return lambda q: np.asarray(f(q)).item()


def loop_hessian(f, pt, fd_step=1e-4):
    """The per-entry double loop the pair-shared stencil replaced: every
    ordered entry (a, b) evaluates its own stencil points."""
    f = _scalar(f)
    h = _steps(pt, fd_step)
    d = h.shape[0]
    f0 = f(pt.at_offset(np.zeros(d, dtype=complex)))

    def second_dir(ea, eb, ha, hb):
        if ea is eb and ha == hb:
            up = f(pt.at_offset(ha * ea))
            dn = f(pt.at_offset(-ha * ea))
            return (up - 2.0 * f0 + dn) / (ha.real**2 + ha.imag**2)
        pp = f(pt.at_offset(ha * ea + hb * eb))
        pm = f(pt.at_offset(ha * ea - hb * eb))
        mp = f(pt.at_offset(-ha * ea + hb * eb))
        mm = f(pt.at_offset(-ha * ea - hb * eb))
        return (pp - pm - mp + mm) / (4.0 * abs(ha) * abs(hb))

    def entry(a, b, ha, hb):
        ea = np.zeros(d, dtype=complex)
        eb = np.zeros(d, dtype=complex)
        ea[a] = 1.0
        eb[b] = 1.0
        if a == b:
            return 0.25 * (second_dir(ea, ea, ha, ha) + second_dir(ea, ea, 1j * ha, 1j * ha))
        dxx = second_dir(ea, eb, ha, hb)
        dyy = second_dir(ea, eb, 1j * ha, 1j * hb)
        dxy = second_dir(ea, eb, ha, 1j * hb)
        dyx = second_dir(ea, eb, 1j * ha, hb)
        return 0.25 * (dxx + dyy + 1j * (dxy - dyx))

    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            coarse = entry(a, b, h[a], h[b])
            out[a, b] = (4.0 * entry(a, b, h[a] / 2, h[b] / 2) - coarse) / 3.0
    return out


def _loop_first_derivatives(fn, pt, fd_step):
    """(d/dz_a, d/dzbar_a) of fn's values, one coordinate at a time: central
    differences along +-h_a e_a and +-i h_a e_a, Richardson-refined with
    h_a / 2."""
    h = _steps(pt, fd_step)

    def central(a, ha):
        e = np.zeros(h.shape[0], dtype=complex)
        e[a] = 1.0
        up, dn, iup, idn = (fn(pt.at_offset(s * e)) for s in (ha, -ha, 1j * ha, -1j * ha))
        dx = (up - dn) / (2 * ha)
        dy = (iup - idn) / (2 * ha)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    hol, ahol = [], []
    for a in range(h.shape[0]):
        g, gb = central(a, h[a])
        g2, gb2 = central(a, h[a] / 2)
        hol.append((4 * g2 - g) / 3.0)
        ahol.append((4 * gb2 - gb) / 3.0)
    return hol, ahol


def loop_gradient(f, pt, fd_step=1e-4):
    hol, ahol = _loop_first_derivatives(_scalar(f), pt, fd_step)
    return np.array(hol, dtype=complex), np.array(ahol, dtype=complex)


def loop_jacobian(map_fn, pt, fd_step=1e-4):
    """(J, Jbar): holomorphic and antiholomorphic Jacobian columns."""
    cols, bar_cols = _loop_first_derivatives(lambda q: flatten_point(map_fn(q)), pt, fd_step)
    return np.stack(cols, axis=1), np.stack(bar_cols, axis=1)
