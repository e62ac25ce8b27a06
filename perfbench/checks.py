"""Output checks of the siegel-jacobi benchmark, with pinned tolerances.

Each check compares a program output with an invariant the package documents
(README and docstrings), computed here in plain numpy from the generated
inputs: the metric inverse identity, the determinant and scalar-curvature
closed forms, the balancedness witness epsilon = 1, the Berezin kernel bounds,
transform round trips, the group action formula and domain membership.
A check yields ``(name, residual, tol)``; it passes when the residual is
finite and at most ``tol``.  Checks run outside the timed calls.
"""

from __future__ import annotations

import numpy as np

from inputs import cross_gram

# Pinned tolerances.  Each sits orders of magnitude above the residuals seen
# on correct outputs (n <= 8, |W| <= 0.35) and orders of magnitude below the
# effect of a 1e-3 corruption of any block.
TOL = {
    "potential": 1e-10,        # |f - f_ref| / max(1, |f_ref|)
    "hermitian": 1e-12,        # max |h - h*| / max |h|
    "det_assembled": 1e-8,     # |det h / closed form - 1|
    "det_closed_form": 1e-12,  # |closed form / numpy closed form - 1|
    "det_constant": 0.0,       # constant_C == 2^{n(n-1)/2}
    "inverse_identity": 1e-9,  # max |h @ h_inv - 1|
    "scalar_curvature": 1e-12,  # |s / s_ref - 1|
    "ricci_z_block": 0.0,      # Ricci vanishes off the W block
    "qk_lu": 1e-12,            # max |qk - ((n+1)(n+2)/2) h + Ric| / max |qk|
    "epsilon": 1e-10,          # |epsilon - 1|
    "berezin_upper": 1e-12,    # b - 1 <= tol
    "berezin_positive": 0.0,   # b > 0
    "diastasis_nonneg": 1e-12,  # -D <= tol
    "berezin_diastasis": 1e-12,  # |b - exp(-D)|
    "kappa_modulus": 1e-12,    # ||kappa|^2 - b| / b
    "roundtrip": 1e-10,        # max coordinate defect / (1 + max |coordinate|)
    "action": 1e-10,           # act_ball vs the closed-form action
    "in_domain": 0.0,          # -(smallest eigenvalue of the domain form)
    "symmetric": 1e-12,        # max |W - W^t|
    "shape": 0.0,              # the output has the requested dimension
    "group_relations": 1e-9,   # symplectic relations of a group element
}


def residuals_ok(found) -> bool:
    return all(np.isfinite(r) and r <= TOL[name] for name, r in found)


def worst_ratio(found) -> float:
    """Largest residual / tolerance (0 when every residual is 0)."""
    worst = 0.0
    for name, r in found:
        tol = TOL[name]
        if not np.isfinite(r):
            return float("inf")
        if r > 0:
            worst = max(worst, r / tol if tol > 0 else float("inf"))
    return worst


def _max(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def decode(value) -> np.ndarray:
    """Wire format [re, im] (possibly nested) -> complex array."""
    a = np.asarray(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


# --------------------------------------------------------------------------
# closed forms in numpy


def potential_ref(pt: dict, k: float, mu: float) -> float:
    """f = -(k/2) log det(1 - W Wbar) + mu [zbar^t M z + Re(z^t Wbar M z)]."""
    z, W = pt["z"], pt["W"]
    N = cross_gram(W)
    M = np.linalg.inv(N)
    M = 0.5 * (M + M.conj().T)
    _, logdet = np.linalg.slogdet(N)
    quad = np.vdot(z, M @ z).real + (z @ W.conj() @ M @ z).real
    return float(-0.5 * k * logdet + mu * quad)


def det_ref(pt: dict, k: float, mu: float) -> float:
    """2^{n(n-1)/2} (k/2)^{n(n+1)/2} mu^n det(1 - W Wbar)^{-(n+2)}."""
    n = pt["n"]
    _, logdet = np.linalg.slogdet(cross_gram(pt["W"]))
    return float(
        2.0 ** (n * (n - 1) // 2) * (0.5 * k) ** (n * (n + 1) / 2.0) * mu**n
        * np.exp(-(n + 2) * logdet)
    )


def scalar_ref(n: int, k: float) -> float:
    return -(2.0 / k) * n * (n + 1) * (n + 2) / 2.0


# --------------------------------------------------------------------------
# checks


def check_potential(value: float, pt: dict, k: float, mu: float):
    ref = potential_ref(pt, k, mu)
    return [("potential", abs(value - ref) / max(1.0, abs(ref)))]


def check_metric(h: np.ndarray, pt: dict, k: float, mu: float):
    scale = _max(h)
    det = np.linalg.det(h).real
    return [
        ("hermitian", _max(h - h.conj().T) / scale),
        ("det_assembled", abs(det / det_ref(pt, k, mu) - 1.0)),
    ]


def check_inverse(h: np.ndarray, h_inv: np.ndarray):
    return [("inverse_identity", _max(h @ h_inv - np.eye(h.shape[0])))]


def check_det(value: float, closed: float, constant: float, pt: dict, k: float, mu: float):
    n = pt["n"]
    return [
        ("det_assembled", abs(value / closed - 1.0)),
        ("det_closed_form", abs(closed / det_ref(pt, k, mu) - 1.0)),
        ("det_constant", abs(constant - 2.0 ** (n * (n - 1) // 2))),
    ]


def check_curvature(scalar: float, ric: np.ndarray, qk: np.ndarray, h: np.ndarray, n: int, k: float):
    expected = ((n + 1) * (n + 2) / 2.0) * h - ric
    return [
        ("scalar_curvature", abs(scalar / scalar_ref(n, k) - 1.0)),
        ("ricci_z_block", max(_max(ric[:n, :]), _max(ric[:, :n]))),
        ("qk_lu", _max(qk - expected) / _max(qk)),
    ]


def check_berezin(kappa: complex, berezin: float, diastasis: float):
    return [
        ("berezin_upper", max(0.0, berezin - 1.0)),
        ("berezin_positive", 0.0 if berezin > 0 else 1.0),
        ("diastasis_nonneg", max(0.0, -diastasis)),
        ("berezin_diastasis", abs(berezin - np.exp(-diastasis))),
        ("kappa_modulus", abs(abs(kappa) ** 2 - berezin) / berezin),
    ]


def check_epsilon(epsilon: float):
    return [("epsilon", abs(epsilon - 1.0))]


def roundtrip(found: dict, expected: dict, keys) -> list:
    worst = 0.0
    for key in keys:
        a, b = np.asarray(found[key]), np.asarray(expected[key])
        worst = max(worst, _max(a - b) / (1.0 + _max(b)) if a.shape == b.shape else np.inf)
    return [("roundtrip", worst)]


def cayley(upper: dict) -> dict:
    """Partial Cayley transform W = (V - i)(V + i)^{-1}, z = 2i (V + i)^{-1} u."""
    n, V = upper["n"], upper["V"]
    den = V + 1j * np.eye(n)
    W = np.linalg.solve(den.T, (V - 1j * np.eye(n)).T).T
    return {"W": 0.5 * (W + W.T), "z": 2j * np.linalg.solve(den, upper["u"])}


def ball_domain(W: np.ndarray, n: int | None = None):
    lam = float(np.linalg.eigvalsh(cross_gram(W))[0])
    found = [("symmetric", _max(W - W.T)), ("in_domain", max(0.0, -lam))]
    if n is not None:
        found.append(("shape", float(W.shape != (n, n))))
    return found


def upper_domain(V: np.ndarray, n: int):
    R = V.imag
    lam = float(np.linalg.eigvalsh(0.5 * (R + R.T))[0])
    return [("symmetric", _max(V - V.T)), ("in_domain", max(0.0, -lam)),
            ("shape", float(V.shape != (n, n)))]


def check_action(W1, z1, pt: dict, p, q, alpha):
    """act_ball against W1 = (p W + q)(qbar W + pbar)^{-1},
    z1 = (W q* + p*)^{-1} (z + alpha - W conj(alpha))."""
    W, z = pt["W"], pt["z"]
    num = p @ W + q
    den = q.conj() @ W + p.conj()
    W_ref = np.linalg.solve(den.T, num.T).T
    z_ref = np.linalg.solve(W @ q.conj().T + p.conj().T, z + alpha - W @ alpha.conj())
    defect = max(
        _max(W1 - W_ref) / (1.0 + _max(W_ref)), _max(z1 - z_ref) / (1.0 + _max(z_ref))
    )
    return [("action", defect)] + ball_domain(W1)


def check_complex_element(p: np.ndarray, q: np.ndarray):
    eye = np.eye(p.shape[0])
    scale = 1.0 + max(_max(p), _max(q)) ** 2
    defect = max(
        _max(p @ p.conj().T - q @ q.conj().T - eye),
        _max(p @ q.T - q @ p.T),
        _max(p.conj().T @ p - q.T @ q.conj() - eye),
        _max(p.T @ q.conj() - q.conj().T @ p),
    )
    return [("group_relations", defect / scale)]


def check_real_element(a, b, c, d):
    n = a.shape[0]
    g = np.block([[a, b], [c, d]])
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return [("group_relations", _max(g.T @ J @ g - J) / (1.0 + _max(g) ** 2))]
