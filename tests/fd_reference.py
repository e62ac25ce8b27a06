"""Per-point loop references for the finite-difference oracles.

The oracles hand a field its whole stencil as stacked points.  These loops
call it at one single point per stencil offset instead, line by line, so
an oracle result that equals them to the last bit shows that the stacked
values, the chunking and the differencing all agree with the plain
definition.  Each single point is ``pt.at_offset`` of a 1-d offset, the
same chart the oracles use, and goes through the validating constructor.
A line along v at step s is the four points p + s w v, w = 1, -1, i, -i,
for s = 1 and 1/2.
"""

import numpy as np

from siegel_jacobi.domains import flatten_point
from siegel_jacobi.oracle import _steps

LINE = (1, -1, 1j, -1j)
LEVELS = (1.0, 0.5)


def richardson_ids(value):
    """Test id of a parameter value.  Every oracle runs the Richardson
    scheme, and the ids of the loop-reference tests keep naming it."""
    return f"{value}-richardson"


def _line(f, pt, v, s):
    """The four values of f along the line p + s w v."""
    return np.array([np.asarray(f(pt.at_offset(s * w * v)))[()] for w in LINE])


def _laplacian_along(f, pt, v, f0):
    """d^2 f(p + w v) / dw dwbar at w = 0, Richardson over the two steps."""
    per = [sum(_line(f, pt, v, s) - f0) / (4.0 * s**2) for s in LEVELS]
    return (4.0 * per[1] - per[0]) / 3.0


def loop_hessian(f, pt, fd_step=1e-4):
    """The Hessian by polarisation, one line at a time: H[a, a] from the
    line along h_a e_a, and each pair a < b from the four lines along
    h_a e_a + i^k h_b e_b, k = 0..3."""
    h = _steps(pt, fd_step)
    d = h.shape[0]
    E = np.eye(d, dtype=complex)
    f0 = np.asarray(f(pt.at_offset(np.zeros(d, dtype=complex))))[()]
    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        out[a, a] = _laplacian_along(f, pt, h[a] * E[a], f0) / (h[a] * h[a])
        for b in range(a + 1, d):
            ab, ba = [], []
            for s in LEVELS:
                k = [_line(f, pt, h[a] * E[a] + ik * h[b] * E[b], s) for ik in (1, 1j, -1, -1j)]
                re = sum(k[0] - k[2])
                im = sum(k[1] - k[3])
                den = 16.0 * s**2 * (h[a] * h[b])
                ab.append((re + 1j * im) / den)
                ba.append((re - 1j * im) / den)
            out[a, b] = (4.0 * ab[1] - ab[0]) / 3.0
            out[b, a] = (4.0 * ba[1] - ba[0]) / 3.0
    return out


def loop_laplacian(f, pt, C, fd_step=1e-4):
    """trace(C H) as sum_i lam_i L_i over the eigenframe of C in step
    units, one line Laplacian at a time."""
    h = _steps(pt, fd_step)
    lam, U = np.linalg.eigh(C / np.outer(h, h))
    f0 = np.asarray(f(pt.at_offset(np.zeros(h.shape[0], dtype=complex))))[()]
    top = np.max(np.abs(U), axis=0)
    L = np.array(
        [_laplacian_along(f, pt, h * (U[:, i] / top[i]).conj(), f0) for i in range(len(h))]
    )
    return complex((lam * top**2) @ L)


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
    hol, ahol = _loop_first_derivatives(lambda q: np.asarray(f(q))[()], pt, fd_step)
    return np.array(hol, dtype=complex), np.array(ahol, dtype=complex)


def loop_jacobian(map_fn, pt, fd_step=1e-4):
    """(J, Jbar): holomorphic and antiholomorphic Jacobian columns."""
    cols, bar_cols = _loop_first_derivatives(lambda q: flatten_point(map_fn(q)), pt, fd_step)
    return np.stack(cols, axis=1), np.stack(bar_cols, axis=1)
