"""Independent reference computations for the test suite.

Every oracle here deliberately avoids the package's own code paths:
scipy's HiGHS for LPs (the dense K*L transport LP among them),
sorting/quantile arithmetic for 1-D transport, adaptive quadrature for
1-D risk integrals, central differences for gradients, dense sphere
sampling for cone constants.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog


def scipy_lp(c, A, senses, b, bounds):
    """Reference LP solve; returns (status, value, x)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(senses):
        if s == "<=":
            A_ub.append(A[i]); b_ub.append(b[i])
        elif s == ">=":
            A_ub.append(-A[i]); b_ub.append(-b[i])
        else:
            A_eq.append(A[i]); b_eq.append(b[i])
    res = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None, b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None, b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    assert res.success, res.message
    return "optimal", float(res.fun), res.x


def w1_quantile_1d(atoms_a, w_a, atoms_b, w_b):
    """1-D transport distance as the area between the two quantile functions."""
    a = np.asarray(atoms_a, dtype=float).reshape(-1)
    b = np.asarray(atoms_b, dtype=float).reshape(-1)
    ia, ib = np.argsort(a, kind="stable"), np.argsort(b, kind="stable")
    a, wa = a[ia], np.asarray(w_a, dtype=float)[ia]
    b, wb = b[ib], np.asarray(w_b, dtype=float)[ib]
    levels = np.unique(np.concatenate([np.cumsum(wa), np.cumsum(wb), [0.0]]))
    levels = levels[(levels > 0) & (levels <= 1 + 1e-15)]
    total, prev = 0.0, 0.0
    ca, cb = np.cumsum(wa), np.cumsum(wb)
    for lv in levels:
        qa = a[np.searchsorted(ca, max(prev, lv - 1e-15), side="left")]
        qb = b[np.searchsorted(cb, max(prev, lv - 1e-15), side="left")]
        total += (lv - prev) * abs(qa - qb)
        prev = lv
    return total


def w1_transport_lp(atoms_a, w_a, atoms_b, w_b):
    """Euclidean-ground transport distance as the dense K*L transport LP:
    one column per atom pair, one equality row per marginal, by HiGHS."""
    a = np.asarray(atoms_a, dtype=float)
    b = np.asarray(atoms_b, dtype=float)
    K, L = a.shape[0], b.shape[0]
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).reshape(-1)
    A = np.zeros((K + L, K * L))
    for k in range(K):
        A[k, k * L:(k + 1) * L] = 1.0
    for l in range(L):
        A[K + l, l::L] = 1.0
    rhs = np.concatenate([np.asarray(w_a, dtype=float), np.asarray(w_b, dtype=float)])
    status, value, _ = scipy_lp(cost, A, ["=="] * (K + L), rhs, [(0, None)] * (K * L))
    assert status == "optimal", status
    return value


def quad_risk_1d(d_lo, d_hi, lo, hi, x, gval):
    """Adaptive quadrature of max(gval, phi(z - x)) on [lo, hi] for a 1-D
    fan with extreme slopes d_lo < d_hi, against the uniform density."""

    def integrand(z):
        t = z - x
        return max(gval, max(d_lo * t, d_hi * t))

    kinks = [x]
    if np.isfinite(gval):
        for d in (d_lo, d_hi):
            if d != 0.0:
                kinks.append(x + gval / d)
    kinks = [k for k in kinks if lo < k < hi]
    val, err = quad(integrand, lo, hi, limit=400, points=kinks or None)
    assert err < 1e-9
    return val / (hi - lo)


def central_fd(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def cone_alpha_dense_1q(n_grid=20001):
    """min over unit u >= 0 in the plane of max(2 u1, 2 u2)."""
    theta = np.linspace(0.0, np.pi / 2.0, n_grid)
    vals = np.maximum(2.0 * np.cos(theta), 2.0 * np.sin(theta))
    return float(vals.min())
