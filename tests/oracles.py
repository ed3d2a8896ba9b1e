"""Independent reference computations for the test suite.

Every oracle here deliberately avoids the package's own code paths:
scipy's HiGHS for LPs (the dense K*L transport LP and the epigraph-row
deterministic equivalent among them),
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


def det_equivalent_epigraph(T, h, A_X, b_X, W, q, atoms, weights, kind, eta=None):
    """The deterministic-equivalent LP with two epigraph rows per scenario,
    by HiGHS; returns (value, x).

    Columns (x, y_1..y_K [, w_1..w_K][, t]) with x and w, t free, y_k >= 0,
    X rows A_X x <= b_X and scenario rows T x + W y_k = z_k. The expectation
    prices sum_k p_k q.y_k. The expected excess prices sum_k p_k w_k with
    the rows w_k >= eta and w_k >= q.y_k. The upper semideviation prices
    sum_k p_k w_k with the mean row t = sum_k p_k q.y_k and the rows
    w_k >= t and w_k >= q.y_k.
    """
    T, W = np.atleast_2d(np.asarray(T, dtype=float)), np.atleast_2d(np.asarray(W, dtype=float))
    A_X = np.asarray(A_X, dtype=float)
    q, h = np.asarray(q, dtype=float), np.asarray(h, dtype=float)
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    (s, n), m, K = T.shape, W.shape[1], atoms.shape[0]
    n_w = 0 if kind == "expectation" else K
    n_t = 1 if kind == "upper_semideviation" else 0
    ncols = n + K * m + n_w + n_t
    y = [slice(n + k * m, n + (k + 1) * m) for k in range(K)]
    w, t = n + K * m, n + K * m + n_w
    rows, senses, rhs = [], [], []

    def add(sense, b, *entries):
        row = np.zeros(ncols)
        for cols, vals in entries:
            row[cols] = vals
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    for a, b in zip(A_X, b_X):
        add("<=", b, (slice(0, n), a))
    for k in range(K):
        for r in range(s):
            add("==", atoms[k, r], (slice(0, n), T[r]), (y[k], W[r]))
    if kind == "upper_semideviation":
        add("==", 0.0, (t, 1.0), *[(y[k], -weights[k] * q) for k in range(K)])
    for k in range(n_w):
        if kind == "expected_excess":
            add(">=", eta, (w + k, 1.0))
        else:
            add(">=", 0.0, (w + k, 1.0), (t, -1.0))
        add(">=", 0.0, (w + k, 1.0), (y[k], -q))
    c = np.zeros(ncols)
    c[:n] = h
    for k in range(K):
        if kind == "expectation":
            c[y[k]] = weights[k] * q
        else:
            c[w + k] = weights[k]
    bounds = [(None, None)] * n + [(0.0, None)] * (K * m) + [(None, None)] * (n_w + n_t)
    status, value, sol = scipy_lp(c, np.array(rows), senses, np.array(rhs), bounds)
    assert status == "optimal", status
    return value, sol[:n]


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
