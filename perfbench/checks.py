"""Checks of every CLI output, made apart from the program.

Nothing here imports recourselab. Values are recomputed in numpy from the
closed form of the L1-type recourse, phi(t) = sum_j max(q+_j t_j, -q-_j t_j),
and optimal values come from LPs built here and solved by scipy's HiGHS.

A check raises `OpFailed` when the operation produced no usable result (an
error exit, output that is not RFC 8259 JSON, a solve without a certified
gap) and `WrongOutput` when a result that claims success contradicts an
independent computation or a property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

EXIT_OK, EXIT_NOT_CERTIFIED = 0, 3
VERDICT_POSITIVE = "certified-positive"
VERDICT_ZERO = "indistinguishable-from-zero"
STABILITY_COLUMNS = ["plan_id", "kind", "param", "seed", "w1", "d_hausdorff", "ratio",
                     "value_mu", "value_nu"]

RATIO_RTOL = 1e-9     # worst-pair ratio recomputed from the grid atoms
VALUE_RTOL = 1e-8     # objective at the returned point, closed form vs reported
HIGHS_RTOL = 1e-7     # reported optimum vs the HiGHS optimum of an independent LP
EXACT_RTOL = 1e-12    # identities the CSV must satisfy up to float rounding
FEAS_TOL = 1e-9


class OpFailed(Exception):
    """The operation produced no usable result."""


class WrongOutput(Exception):
    """The output contradicts an independent computation or a required property."""


def _require(cond: bool, message: str):
    if not cond:
        raise WrongOutput(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def strict_json(text: str) -> dict:
    """Parse RFC 8259 JSON; NaN and +-Infinity are not JSON numbers."""

    def reject(token):
        raise OpFailed(f"output is not RFC 8259 JSON: it contains {token}")

    try:
        obj = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise OpFailed(f"output is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise OpFailed("output is not a JSON object")
    return obj


# --- closed-form model of the instances -----------------------------------------


def recourse_costs(problem: dict) -> tuple[np.ndarray, np.ndarray]:
    """(q+, q-) of W = [I, -I]; refuses any other recourse matrix."""
    W = np.asarray(problem["recourse"]["W"], dtype=float)
    q = np.asarray(problem["recourse"]["q"], dtype=float)
    s = W.shape[0]
    if not np.array_equal(W, np.hstack([np.eye(s), -np.eye(s)])):
        raise ValueError("the checks model only the recourse W = [I, -I]")
    return q[:s], q[s:]


def grid_atoms(lo, hi, resolution: int) -> np.ndarray:
    """Midpoint grid of a box, resolution cells per axis, in C order."""
    axes = [l + (h - l) * (np.arange(resolution) + 0.5) / resolution for l, h in zip(lo, hi)]
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def measure_atoms(problem: dict, resolution: int | None) -> tuple[np.ndarray, np.ndarray]:
    m = problem["measure"]
    if m["type"] == "discrete":
        return np.asarray(m["atoms"], dtype=float), np.asarray(m["weights"], dtype=float)
    atoms = grid_atoms(m["lo"], m["hi"], resolution)
    return atoms, np.full(atoms.shape[0], 1.0 / atoms.shape[0])


def risk_values(atoms, weights, qp, qm, risk: dict, points: np.ndarray) -> np.ndarray:
    """The risk functional of phi(z - y) at each row y of points (P, s)."""
    t = atoms[None, :, :] - points[:, None, :]                      # (P, K, s)
    phi = np.maximum(t * qp, -t * qm).sum(axis=2)                   # (P, K)
    kind = risk["kind"]
    if kind == "expectation":
        return phi @ weights
    if kind == "expected_excess":
        return np.maximum(phi, risk["eta"]) @ weights
    mean = phi @ weights
    return np.maximum(phi, mean[:, None]) @ weights


def objective(problem: dict, atoms, weights, x: np.ndarray) -> np.ndarray:
    """First-stage objective x'Hx + h.x + risk(Tx) at each row of x (P, n)."""
    fs = problem["first_stage"]
    T = np.asarray(fs["T"], dtype=float)
    qp, qm = recourse_costs(problem)
    vals = risk_values(atoms, weights, qp, qm, problem["risk"], x @ T.T) + x @ np.asarray(fs["h"])
    if fs.get("H") is not None:
        H = np.asarray(fs["H"], dtype=float)
        vals = vals + np.einsum("pi,ij,pj->p", x, H, x)
    return vals


def risk_gradient_equal_weights(atoms, qp, qm, risk: dict, y: np.ndarray) -> np.ndarray:
    """Gradient in y of the risk functional for equal atom weights, from
    integer counts of the atoms on each side of every kink."""
    t = atoms - y
    slope = np.where(t > 0, qp, -qm)                                # d phi / d t, per axis
    phi = (slope * t).sum(axis=1)
    n = atoms.shape[0]
    grad_e = -slope.sum(axis=0) / n
    kind = risk["kind"]
    if kind == "expectation":
        return grad_e
    if kind == "expected_excess":
        return -slope[~(risk["eta"] > phi)].sum(axis=0) / n
    in_g = phi.sum() / n > phi
    return np.count_nonzero(in_g) / n * grad_e - slope[~in_g].sum(axis=0) / n


def _feasible(problem: dict, x: np.ndarray) -> bool:
    X = problem["first_stage"]["X"]
    A, b = np.asarray(X["A"], dtype=float), np.asarray(X["b"], dtype=float)
    return bool(np.all(A @ x <= b + FEAS_TOL))


# --- independent LPs (scipy HiGHS) -----------------------------------------------


def _highs(c, A_ub, b_ub, A_eq, b_eq, bounds) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise WrongOutput(f"the independent LP has status {res.status} ({res.message}) "
                          "while the program reported an optimum")
    return float(res.fun)


def linear_optimum(problem: dict, atoms=None, weights=None) -> float:
    """Optimal value of min h.x + risk(Tx) over X for a discrete measure.

    Built from the dual-vertex epigraph of the closed-form phi, not from
    scenario copies of the recourse LP as the program builds it:
    u_kj >= q+_j (z_kj - T_j x), u_kj >= -q-_j (z_kj - T_j x), phi_k = sum_j u_kj.
    """
    fs = problem["first_stage"]
    if atoms is None:
        atoms, weights = measure_atoms(problem, None)
    T = np.asarray(fs["T"], dtype=float)
    A_X, b_X = np.asarray(fs["X"]["A"], dtype=float), np.asarray(fs["X"]["b"], dtype=float)
    qp, qm = recourse_costs(problem)
    K, s = atoms.shape
    n = T.shape[1]
    kind = problem["risk"]["kind"]
    n_w = 0 if kind == "expectation" else K
    n_t = 1 if kind == "upper_semideviation" else 0
    u0, w0, t0 = n, n + K * s, n + K * s + n_w
    nv = t0 + n_t
    rows, rhs = [], []

    def row():
        r = np.zeros(nv)
        rows.append(r)
        return r

    for i in range(A_X.shape[0]):
        row()[:n] = A_X[i]
        rhs.append(b_X[i])
    for k in range(K):
        for j in range(s):
            r = row()
            r[:n] = -qp[j] * T[j]
            r[u0 + k * s + j] = -1.0
            rhs.append(-qp[j] * atoms[k, j])
            r = row()
            r[:n] = qm[j] * T[j]
            r[u0 + k * s + j] = -1.0
            rhs.append(qm[j] * atoms[k, j])
    for k in range(n_w):                                            # w_k >= phi_k
        r = row()
        r[u0 + k * s:u0 + (k + 1) * s] = 1.0
        r[w0 + k] = -1.0
        rhs.append(0.0)
        if n_t:                                                     # w_k >= t
            r = row()
            r[t0] = 1.0
            r[w0 + k] = -1.0
            rhs.append(0.0)
    A_eq = b_eq = None
    if n_t:                                                         # t = sum_k p_k phi_k
        A_eq = np.zeros((1, nv))
        A_eq[0, t0] = 1.0
        A_eq[0, u0:w0] = -np.repeat(weights, s)
        b_eq = np.zeros(1)
    c = np.zeros(nv)
    c[:n] = fs["h"]
    if kind == "expectation":
        c[u0:w0] = np.repeat(weights, s)
    else:
        c[w0:w0 + K] = weights
    bounds = [(None, None)] * n + [(0, None)] * (K * s) + [(None, None)] * (n_w + n_t)
    if kind == "expected_excess":
        bounds[w0:w0 + K] = [(problem["risk"]["eta"], None)] * K
    return _highs(c, np.array(rows), np.array(rhs), A_eq, b_eq, bounds)


def transport_cost(atoms_a, w_a, atoms_b, w_b) -> float:
    """Euclidean-ground W1 between two discrete measures, by HiGHS."""
    K, L = atoms_a.shape[0], atoms_b.shape[0]
    cost = np.linalg.norm(atoms_a[:, None, :] - atoms_b[None, :, :], axis=2).reshape(-1)
    A = np.zeros((K + L, K * L))
    for k in range(K):
        A[k, k * L:(k + 1) * L] = 1.0
    for l in range(L):
        A[K + l, l::L] = 1.0
    return _highs(cost, None, None, A, np.concatenate([w_a, w_b]), [(0, None)] * (K * L))


def perturbed_measure(atoms, weights, plan: dict, seed: int):
    """The measure a perturbation plan defines. Plans draw from the
    counter-based Philox stream keyed by the record's seed, as the CLI
    documents; only the plan semantics are reproduced here."""
    if plan["kind"] == "shift":
        return atoms + np.asarray(plan["v"], dtype=float), weights
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=())))
    if plan["kind"] == "jitter":
        return atoms + rng.uniform(-plan["sigma"], plan["sigma"], size=atoms.shape), weights
    idx = rng.choice(atoms.shape[0], size=plan["n"], replace=True, p=weights)
    return atoms[idx], np.full(plan["n"], 1.0 / plan["n"])


# --- per-command checks ------------------------------------------------------------


def check_certify(op, rc: int, text: str):
    if rc not in (EXIT_OK, EXIT_NOT_CERTIFIED):
        raise OpFailed(f"certify exited {rc}")
    out = strict_json(text)
    try:
        verdict, kappa = out["verdict"], out["kappa_hat"]
        worst = out["worst_pair"]
        ratio, x, u = worst["ratio"], np.asarray(worst["x"]), np.asarray(worst["u"])
        zero_threshold, n_pairs, warnings = out["zero_threshold"], out["n_pairs"], out["warnings"]
    except (KeyError, TypeError) as exc:
        raise WrongOutput(f"certify output lacks a documented field: {exc}") from exc
    _require(verdict in (VERDICT_POSITIVE, VERDICT_ZERO), f"unknown verdict {verdict!r}")
    _require(rc == (EXIT_OK if verdict == VERDICT_POSITIVE else EXIT_NOT_CERTIFIED),
             f"exit code {rc} does not match verdict {verdict!r}")
    _require((kappa > zero_threshold) == (verdict == VERDICT_POSITIVE),
             f"verdict {verdict!r} does not match kappa_hat {kappa} and threshold {zero_threshold}")
    _require(kappa == max(ratio, 0.0), f"kappa_hat {kappa} != max(worst ratio {ratio}, 0)")
    _require(n_pairs == op.meta["pairs"], f"n_pairs {n_pairs} != requested {op.meta['pairs']}")
    # W = [I, -I] with q > 0 meets A1, A2 and A5, and region + rho lies inside the box
    _require(warnings == [], f"unexpected assumption warnings {warnings}")
    region = op.problem["region"]
    lo, hi = np.asarray(region["lo"]), np.asarray(region["hi"])
    for label, p in (("x", x), ("x+u", x + u)):
        _require(bool(np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)),
                 f"worst pair point {label} = {p.tolist()} lies outside the region")
    atoms, _ = measure_atoms(op.problem, op.meta["resolution"])
    qp, qm = recourse_costs(op.problem)
    risk = op.problem["risk"]
    dg = (risk_gradient_equal_weights(atoms, qp, qm, risk, x + u)
          - risk_gradient_equal_weights(atoms, qp, qm, risk, x))
    expected = float(dg @ u / (u @ u))
    _require(_close(ratio, expected, RATIO_RTOL),
             f"worst ratio {ratio!r} != {expected!r} recomputed from the grid atoms")


def _grid_minimum(problem: dict, atoms, weights, n_per_axis: int) -> tuple[float, float]:
    """Brute-force minimum over a grid on the feasible box, and how far above
    the true minimum it can lie (Lipschitz bound times half a grid step)."""
    fs = problem["first_stage"]
    A_X, b_X = np.asarray(fs["X"]["A"], dtype=float), np.asarray(fs["X"]["b"], dtype=float)
    n = A_X.shape[1]
    if not np.array_equal(A_X, np.vstack([np.eye(n), -np.eye(n)])):
        raise ValueError("the grid check models only a box X = {x <= hi, -x <= -lo}")
    hi, lo = b_X[:n], -b_X[n:]
    axes = [np.linspace(lo[j], hi[j], n_per_axis) for j in range(n)]
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    chunk = max(1, (1 << 20) // atoms.shape[0])
    vals = np.concatenate([objective(problem, atoms, weights, pts[i:i + chunk])
                           for i in range(0, pts.shape[0], chunk)])
    T = np.abs(np.asarray(fs["T"], dtype=float))
    qp, qm = recourse_costs(problem)
    lip = np.abs(np.asarray(fs["h"], dtype=float)) + T.T @ np.maximum(qp, qm)
    if fs.get("H") is not None:
        lip = lip + 2.0 * np.abs(np.asarray(fs["H"], dtype=float)) @ np.maximum(np.abs(lo), np.abs(hi))
    step = (hi - lo) / (n_per_axis - 1)
    return float(vals.min()), float(lip @ step) / 2.0


def check_solve(op, rc: int, text: str):
    if rc != EXIT_OK:
        raise OpFailed(f"solve exited {rc}")
    out = strict_json(text)
    problem = op.problem
    try:
        x, value, path, log = np.asarray(out["x_star"], dtype=float), out["value"], out["path"], out["log"]
    except (KeyError, TypeError) as exc:
        raise WrongOutput(f"solve output lacks a documented field: {exc}") from exc
    resolution = op.meta.get("resolution")
    atoms, weights = measure_atoms(problem, resolution)
    _require(_feasible(problem, x), f"x_star {x.tolist()} violates X")
    at_x = float(objective(problem, atoms, weights, x[None, :])[0])
    _require(_close(value, at_x, VALUE_RTOL),
             f"reported value {value!r} != objective {at_x!r} at the reported x_star")
    linear = problem["first_stage"].get("H") is None
    if linear and problem["measure"]["type"] == "discrete":
        _require(path == "det-equivalent", f"path {path!r}, expected det-equivalent")
        _require(isinstance(log.get("lp_columns"), int) and isinstance(log.get("lp_iterations"), int),
                 f"det-equivalent log lacks its LP counters: {log}")
        best = linear_optimum(problem)
        _require(_close(value, best, HIGHS_RTOL),
                 f"reported optimum {value!r} != HiGHS optimum {best!r}")
        return
    gap = log.get("gap_certificate")
    if not isinstance(gap, (int, float)) or not math.isfinite(gap) or gap > op.meta["tol"]:
        raise OpFailed(f"no certified gap <= tol {op.meta['tol']}: gap_certificate {gap!r}")
    grid_min, slack = _grid_minimum(problem, atoms, weights, 200001 if x.size == 1 else 121)
    _require(value <= grid_min + gap + 1e-12,
             f"value {value!r} exceeds the grid minimum {grid_min!r} by more than the gap {gap!r}")
    _require(grid_min <= value + slack + 1e-12,
             f"grid minimum {grid_min!r} lies more than {slack:.2e} above the value {value!r}")


def parse_stability_csv(text: str, n: int) -> list[dict]:
    header = STABILITY_COLUMNS + [f"x_star_mu_{j}" for j in range(n)] + [f"x_star_nu_{j}" for j in range(n)]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise WrongOutput(f"CSV header {rows[0] if rows else None} != documented {header}")
    out = []
    for raw in rows[1:]:
        if len(raw) != len(header):
            raise WrongOutput(f"CSV row has {len(raw)} fields, header has {len(header)}")
        rec = dict(zip(header, raw))
        try:
            parsed = {k: float(v) for k, v in rec.items() if k not in ("kind", "plan_id", "seed", "ratio")}
            parsed.update(kind=rec["kind"], plan_id=int(rec["plan_id"]), seed=int(rec["seed"]),
                          ratio=None if rec["ratio"] == "" else float(rec["ratio"]))
        except ValueError as exc:
            raise WrongOutput(f"CSV field is not a number: {exc}") from exc
        if not all(math.isfinite(v) for v in parsed.values() if isinstance(v, float)):
            raise WrongOutput("CSV holds a non-finite number")
        parsed["x_mu"] = np.array([parsed[f"x_star_mu_{j}"] for j in range(n)])
        parsed["x_nu"] = np.array([parsed[f"x_star_nu_{j}"] for j in range(n)])
        out.append(parsed)
    return out


def check_stability(op, rc: int, text: str):
    if rc != EXIT_OK:
        raise OpFailed(f"stability exited {rc}")
    problem, plans = op.problem, op.plans
    n = len(problem["first_stage"]["h"])
    records = parse_stability_csv(text, n)
    _require(len(records) == len(plans), f"{len(records)} records for {len(plans)} plans")
    atoms, weights = measure_atoms(problem, None)
    base_value = linear_optimum(problem)
    for i, (rec, plan) in enumerate(zip(records, plans)):
        _require(rec["plan_id"] == i and rec["kind"] == plan["kind"], f"record {i} is not plan {i}")
        param = float(np.linalg.norm(plan["v"]) if plan["kind"] == "shift"
                      else plan["sigma"] if plan["kind"] == "jitter" else plan["n"])
        _require(rec["param"] == param, f"record {i}: param {rec['param']} != {param}")
        for label, x in (("mu", rec["x_mu"]), ("nu", rec["x_nu"])):
            _require(_feasible(problem, x), f"record {i}: x_star_{label} violates X")
        same_base = np.array_equal(rec["x_mu"], records[0]["x_mu"]) and rec["value_mu"] == records[0]["value_mu"]
        _require(same_base, f"record {i}: the base solution differs between records")
        _require(_close(rec["value_mu"], base_value, HIGHS_RTOL),
                 f"record {i}: value_mu {rec['value_mu']!r} != HiGHS optimum {base_value!r}")
        nu_atoms, nu_weights = perturbed_measure(atoms, weights, plan, rec["seed"])
        w1 = transport_cost(atoms, weights, nu_atoms, nu_weights)
        _require(_close(rec["w1"], w1, HIGHS_RTOL), f"record {i}: w1 {rec['w1']!r} != HiGHS {w1!r}")
        if plan["kind"] == "shift":
            _require(_close(rec["w1"], param, RATIO_RTOL), f"record {i}: shift by |v| = {param!r} "
                     f"gives w1 {rec['w1']!r}")
        nu_value = linear_optimum(problem, nu_atoms, nu_weights)
        _require(_close(rec["value_nu"], nu_value, HIGHS_RTOL),
                 f"record {i}: value_nu {rec['value_nu']!r} != HiGHS optimum {nu_value!r}")
        d_h = float(np.linalg.norm(rec["x_mu"] - rec["x_nu"]))
        _require(_close(rec["d_hausdorff"], d_h, EXACT_RTOL),
                 f"record {i}: d_hausdorff {rec['d_hausdorff']!r} != |x_mu - x_nu| = {d_h!r}")
        _require(rec["w1"] > 0 and rec["ratio"] is not None, f"record {i}: w1 = 0 on a moving plan")
        expected = rec["d_hausdorff"] / math.sqrt(rec["w1"])
        _require(_close(rec["ratio"], expected, EXACT_RTOL),
                 f"record {i}: ratio {rec['ratio']!r} != d_H / sqrt(w1) = {expected!r}")


CHECKS = {"certify": check_certify, "solve": check_solve, "stability": check_stability}


def check(op, rc: int, text: str):
    """Raise OpFailed or WrongOutput unless the op's output is right."""
    CHECKS[op.command](op, rc, text)
