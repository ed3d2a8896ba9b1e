"""First-stage optimization over polyhedral feasible sets.

For zero quadratic cost and a finitely supported measure the problem is a
single deterministic-equivalent LP: scenario copies of the recourse
program plus one variable per scenario for the excess/semideviation
objectives, w_k >= eta as a bound for the expected excess and
v_k = w_k - t >= 0 for the semideviation, so each scenario adds one row.
With a PSD quadratic cost it runs projected subgradient descent with
diminishing steps; projections onto the feasible polyhedron use a small
active-set QP. A brute-force grid oracle over the feasible box provides
an independent low-dimensional check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import DualVertexFan, RecourseData, enumerate_dual_vertices
from .lp import EQ, GE, LE, LinearProgram, solve_lp
from .measures import DiscreteMeasure, Measure
# unused eval_q, grad_q: perfbench/spans.py traces the solver's risk calls by these names
from .risk import (EXPECTATION, EXPECTED_EXCESS, UPPER_SEMIDEVIATION, RiskSpec,  # noqa: F401
                   eval_q, eval_q_many, grad_q, make_objective)

FEAS_TOL = 1e-8


class SolverError(RuntimeError):
    """Solve failed; carries the best iterate when one exists."""

    def __init__(self, message: str, best: "ArgminResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FirstStage:
    """Technology map T (s x n), linear cost h, optional PSD quadratic cost H,
    and the polyhedral feasible set {x : A_X x <= b_X}."""

    T: np.ndarray
    h: np.ndarray
    H: np.ndarray | None
    A_X: np.ndarray
    b_X: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        if T.ndim == 1:
            T = T.reshape(1, -1)
        h = np.asarray(self.h, dtype=float).reshape(-1)
        n = T.shape[1]
        if h.shape[0] != n:
            raise ValueError("h length must match the number of first-stage variables")
        H = self.H
        if H is not None:
            H = np.asarray(H, dtype=float)
            if H.shape != (n, n):
                raise ValueError("H must be n x n")
            if np.abs(H - H.T).max() > 1e-9:
                raise ValueError("H must be symmetric")
            if np.any(H != 0.0) and np.linalg.eigvalsh(H).min() < -1e-9:
                raise ValueError("H must be positive semidefinite")
            if not np.any(H != 0.0):
                H = None
        A_X = np.asarray(self.A_X, dtype=float)
        if A_X.ndim == 1:
            A_X = A_X.reshape(-1, n)
        b_X = np.asarray(self.b_X, dtype=float).reshape(-1)
        if A_X.shape != (b_X.shape[0], n):
            raise ValueError("A_X / b_X dimensions inconsistent")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A_X", A_X)
        object.__setattr__(self, "b_X", b_X)

    @property
    def n(self) -> int:
        return self.T.shape[1]

    @property
    def s(self) -> int:
        return self.T.shape[0]

    @property
    def has_quadratic(self) -> bool:
        return self.H is not None

    @cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 2n LPs of feasible_box, solved once per first stage."""
        return _bounding_box(self)


@dataclass(frozen=True)
class TwoStageProblem:
    first_stage: FirstStage
    recourse: RecourseData
    measure: Measure
    risk: RiskSpec
    # the recourse data's fan when the caller has enumerated it already
    known_fan: DualVertexFan | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.first_stage.s != self.recourse.s:
            raise ValueError("T row count must match the recourse dimension")
        if self.measure.s != self.recourse.s:
            raise ValueError("measure dimension must match the recourse dimension")
        if self.known_fan is not None and not (
                np.array_equal(self.known_fan.recourse.W, self.recourse.W)
                and np.array_equal(self.known_fan.recourse.q, self.recourse.q)):
            raise ValueError("known_fan must be enumerated from this problem's recourse data")

    def fan(self) -> DualVertexFan:
        """The given fan, or a fresh enumeration when none was given."""
        if self.known_fan is not None:
            return self.known_fan
        return enumerate_dual_vertices(self.recourse)


@dataclass(frozen=True)
class ArgminResult:
    x_star: np.ndarray
    value: float
    path: str  # "det-equivalent" | "subgradient" | "grid-oracle"
    log: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iters: int = 20000
    step_scale: float = 1.0
    kappa: float = 0.0  # certified modulus of the full objective, 0 = unknown
    check_every: int = 50
    resolution: int | None = None


def feasible_box(fs: FirstStage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounding box of X plus one feasible point; raises if X is empty or
    unbounded (the toolkit refuses unbounded feasible sets). The LPs run once
    per first stage; each call returns fresh copies."""
    lo, hi, feas = fs._box
    return lo.copy(), hi.copy(), feas.copy()


def _bounding_box(fs: FirstStage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = fs.n
    lo = np.empty(n)
    hi = np.empty(n)
    free = (np.full(n, -np.inf), np.full(n, np.inf))
    feas = None
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        for target in ("max", "min"):
            lp = LinearProgram._build(target, e, fs.A_X, [LE] * fs.b_X.shape[0], fs.b_X, *free)
            out = solve_lp(lp)
            if out.status == "infeasible":
                raise SolverError("first-stage feasible set is empty")
            if out.status == "unbounded":
                raise SolverError("first-stage feasible set is unbounded; refusing")
            if target == "max":
                hi[j] = out.value
            else:
                lo[j] = out.value
            feas = out.x
    return lo, hi, feas


def _scenario_blocks(p: TwoStageProblem):
    fs, rd = p.first_stage, p.recourse
    if not isinstance(p.measure, DiscreteMeasure):
        raise SolverError("deterministic equivalent needs a finitely supported measure")
    if fs.has_quadratic:
        raise SolverError("quadratic first-stage cost: use the subgradient path")
    return fs, rd, p.measure


def build_deterministic_equivalent(p: TwoStageProblem) -> LinearProgram:
    """Single LP over (x, y_1..y_K [, w_1..w_K][, t]).

    Expectation: min h.x + sum_k p_k q.y_k with scenario rows
    T x + W y_k = z_k. Expected excess prices w_k with the bound
    w_k >= eta and the row w_k >= q.y_k. Upper semideviation adds the mean
    recourse cost t as an equality, and its "w" block holds v_k = w_k - t
    with v_k >= 0 and the row v_k + t >= q.y_k, priced as
    (sum_k p_k) t + sum_k p_k v_k; minimization then drives every scenario
    cost to its optimum so t ends at the true mean.
    """
    fs, rd, dm = _scenario_blocks(p)
    n, s, m = fs.n, fs.s, rd.m
    K = dm.n_atoms
    kind = p.risk.kind
    n_w = K if kind in (EXPECTED_EXCESS, UPPER_SEMIDEVIATION) else 0
    n_t = 1 if kind == UPPER_SEMIDEVIATION else 0
    ncols = n + K * m + n_w + n_t
    w_off = n + K * m
    t_off = w_off + n_w

    mx = fs.b_X.shape[0]
    scen = mx + np.arange(K)[:, None, None] * s + np.arange(s)[None, :, None]  # row of (k, r)
    ycol = n + np.arange(K)[:, None, None] * m + np.arange(m)  # column of y_k[j]
    mean_row = mx + K * s
    ex_row = mean_row + n_t + np.arange(n_w)
    A = np.zeros((mx + K * s + n_t + n_w, ncols))
    A[:mx, :n] = fs.A_X
    A[mx: mean_row, :n] = np.tile(fs.T, (K, 1))
    A[scen, ycol] = rd.W
    senses = [LE] * mx + [EQ] * (K * s)
    rhs = [fs.b_X, dm.atoms.reshape(-1)]
    if kind == UPPER_SEMIDEVIATION:
        A[mean_row, t_off] = 1.0
        A[mean_row, n: w_off] = (-dm.weights[:, None] * rd.q).reshape(-1)
        senses.append(EQ)
        rhs.append(np.zeros(1))
    if n_w:
        # w_k >= q.y_k, or v_k + t >= q.y_k for the semideviation
        A[ex_row, w_off + np.arange(K)] = 1.0
        if n_t:
            A[ex_row, t_off] = 1.0
        A[ex_row[:, None, None], ycol] = -rd.q
        senses += [GE] * K
        rhs.append(np.zeros(K))

    c = np.zeros(ncols)
    c[:n] = fs.h
    if kind == EXPECTATION:
        c[n: w_off] = (dm.weights[:, None] * rd.q).reshape(-1)
    else:
        c[w_off: w_off + K] = dm.weights
    if n_t:
        c[t_off] = math.fsum(dm.weights)

    # w_k >= eta for the excess, v_k >= 0 for the semideviation
    w_lb = float(p.risk.eta) if kind == EXPECTED_EXCESS else 0.0
    lb = np.concatenate([
        np.full(n, -np.inf),
        np.zeros(K * m),
        np.full(n_w, w_lb),
        np.full(n_t, -np.inf),
    ])
    ub = np.full(ncols, np.inf)
    return LinearProgram.minimize(c, A, senses, np.concatenate(rhs), lb=lb, ub=ub)


def det_equivalent_layout(p: TwoStageProblem) -> dict:
    """Column offsets of the deterministic equivalent, by construction. The
    "w" block holds w_k >= eta for the expected excess and v_k = w_k - t for
    the upper semideviation."""
    fs, rd = p.first_stage, p.recourse
    K = p.measure.n_atoms
    n, m = fs.n, rd.m
    kind = p.risk.kind
    n_w = K if kind in (EXPECTED_EXCESS, UPPER_SEMIDEVIATION) else 0
    return {
        "x": (0, n),
        "y": (n, n + K * m),
        "w": (n + K * m, n + K * m + n_w),
        "t": n + K * m + n_w if kind == UPPER_SEMIDEVIATION else None,
    }


def solve_two_stage(p: TwoStageProblem, options: SolveOptions | None = None) -> ArgminResult:
    """Minimize the first-stage objective over X.

    Zero quadratic cost: exact via the deterministic equivalent.
    PSD quadratic cost: projected subgradient with steps a/(k+1); when a
    certified modulus kappa > 0 of the full objective is supplied, the
    run stops once the subgradient-based optimality certificate
    (minimizing the supporting quadratic over X) is below tol, and fails
    if the certificate never gets there.
    """
    options = options or SolveOptions()
    fs = p.first_stage
    lo, hi, feas = feasible_box(fs)
    if not fs.has_quadratic and isinstance(p.measure, DiscreteMeasure):
        lp = build_deterministic_equivalent(p)
        out = solve_lp(lp)
        if out.status != "optimal":
            raise SolverError(f"deterministic equivalent terminated with status {out.status}")
        x = out.x[: fs.n]
        _assert_feasible(fs, x)
        return ArgminResult(x, float(out.value), "det-equivalent",
                            {"lp_iterations": out.iterations, "lp_columns": lp.n})
    return _projected_subgradient(p, feas, options)


def _assert_feasible(fs: FirstStage, x: np.ndarray):
    if fs.b_X.size and np.max(fs.A_X @ x - fs.b_X) > FEAS_TOL:
        raise SolverError("returned point violates the feasible set")


def _objective(p: TwoStageProblem, options: SolveOptions):
    """The full objective's value and a subgradient at x, from one
    evaluation of the risk term over a quadrature built once."""
    fs = p.first_stage
    Q = make_objective(p.fan(), p.measure, p.risk, options.resolution)

    def evaluate(x):
        risk_value, risk_grad = Q.value_and_grad(fs.T @ x)
        quad = float(x @ fs.H @ x) if fs.has_quadratic else 0.0
        g = fs.h.copy()
        if fs.has_quadratic:
            g = g + 2.0 * (fs.H @ x)
        return quad + float(fs.h @ x) + risk_value, g + fs.T.T @ risk_grad

    return evaluate


def _projected_subgradient(p: TwoStageProblem, x0: np.ndarray,
                           options: SolveOptions) -> ArgminResult:
    fs = p.first_stage
    evaluate = _objective(p, options)
    proj = PolyhedralProjector(fs.A_X, fs.b_X, x0)
    x = proj(x0)
    val, g = evaluate(x)
    best_x, best_val, best_g = x, val, g
    cuts: list[tuple[float, np.ndarray, np.ndarray]] = []
    cert = np.inf
    iters = 0
    for k in range(options.max_iters):
        iters = k + 1
        x = proj(x - options.step_scale / (k + 1.0) * g)
        val, g = evaluate(x)
        if val < best_val:
            best_val, best_x, best_g = val, x, g
        if options.kappa > 0 and (k + 1) % options.check_every == 0:
            cuts.append((best_val, best_g, best_x))
            cuts.append((val, g, x))
            lower = max(
                best_val - _quadratic_bound(best_x, best_g, proj, options.kappa),
                _cutting_plane_lower_bound(fs, cuts),
            )
            cert = max(best_val - lower, 0.0)
            if cert <= options.tol:
                break
    # no certificate without a modulus, or before the first check
    result = ArgminResult(best_x, best_val, "subgradient",
                          {"iterations": iters,
                           "gap_certificate": float(cert) if np.isfinite(cert) else None})
    if options.kappa > 0 and cert > options.tol:
        raise SolverError(
            f"subgradient certificate {cert:.2e} above tol after {iters} iterations",
            best=result)
    _assert_feasible(fs, best_x)
    return result


def _quadratic_bound(x, g, proj, kappa: float) -> float:
    """Gap bound from a single subgradient of a kappa-strongly-convex
    objective: minimize the supporting quadratic g.(v-x) + kappa/2 |v-x|^2
    over the feasible set; its negative bounds f(x) - f*."""
    v = proj(x - g / kappa)
    bound = float(g @ (v - x)) + 0.5 * kappa * float(np.sum((v - x) ** 2))
    return max(-bound, 0.0)


_MAX_CUTS = 120


def _cutting_plane_lower_bound(fs: FirstStage, cuts) -> float:
    """min over X of the max of collected subgradient cuts: a valid lower
    bound on the optimum that stays tight at kinks, where the single-point
    quadratic bound is loose."""
    recent = cuts[-_MAX_CUTS:]
    n = fs.n
    rows = []
    rhs = []
    for fval, g, xk in recent:
        row = np.zeros(n + 1)
        row[:n] = g
        row[n] = -1.0
        rows.append(row)  # g.v - t <= g.x_k - f_k
        rhs.append(float(g @ xk) - fval)
    for i in range(fs.b_X.shape[0]):
        row = np.zeros(n + 1)
        row[:n] = fs.A_X[i]
        rows.append(row)
        rhs.append(fs.b_X[i])
    c = np.zeros(n + 1)
    c[n] = 1.0
    lp = LinearProgram.minimize(c, np.array(rows), [LE] * len(rows), np.array(rhs),
                                lb=np.full(n + 1, -np.inf), ub=np.full(n + 1, np.inf))
    out = solve_lp(lp)
    if out.status != "optimal":  # pragma: no cover - X bounded, cuts bound t below
        return -np.inf
    return float(out.value)


class PolyhedralProjector:
    """Euclidean projection onto {x : A x <= b} by a primal active-set QP.

    Desk-scale: dense KKT solves, working set grown/shrunk one row at a
    time from a known feasible starting point.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, feasible_point: np.ndarray, tol: float = 1e-10):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.n = feasible_point.shape[0]
        self.x_feas = np.asarray(feasible_point, dtype=float)
        if self.b.size and np.max(self.A @ self.x_feas - self.b) > FEAS_TOL:
            raise SolverError("projector needs a feasible starting point")
        self.tol = tol

    def __call__(self, x0: np.ndarray) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        if self.b.size == 0:
            return x0.copy()
        resid = self.A @ x0 - self.b
        if resid.max() <= self.tol:
            return x0.copy()
        x = self.x_feas.copy()
        work = [int(i) for i in np.flatnonzero(np.abs(self.A @ x - self.b) <= 1e-9)]
        for _ in range(200 * (self.b.size + 1)):
            p, lam = self._step(x, x0, work)
            if np.linalg.norm(p) <= 1e-11:
                if not work or lam.min() >= -1e-9:
                    return x
                work.pop(int(np.argmin(lam)))
                continue
            alpha, blocking = 1.0, None
            Ap = self.A @ p
            for i in range(self.b.size):
                if i in work or Ap[i] <= self.tol:
                    continue
                a = (self.b[i] - self.A[i] @ x) / Ap[i]
                if a < alpha:
                    alpha, blocking = a, i
            x = x + alpha * p
            if blocking is not None:
                work.append(blocking)
        raise SolverError("projection active-set iteration cap exceeded")

    def _step(self, x, x0, work):
        """Equality-constrained least-distance step and its multipliers."""
        k = len(work)
        if k == 0:
            return x0 - x, np.zeros(0)
        Aw = self.A[work]
        KKT = np.zeros((self.n + k, self.n + k))
        KKT[: self.n, : self.n] = np.eye(self.n)
        KKT[: self.n, self.n:] = Aw.T
        KKT[self.n:, : self.n] = Aw
        rhs = np.concatenate([x0 - x, np.zeros(k)])
        sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        return sol[: self.n], sol[self.n:]


def grid_search_oracle(p: TwoStageProblem, grid_step: float) -> ArgminResult:
    """Exhaustive evaluation of the full objective over the feasible box.

    Only for one or two first-stage variables; intended as an independent
    check of the real solver paths, not as a solver.
    """
    if p.first_stage.n > 2:
        raise SolverError("oracle dimension limit: n <= 2")
    if grid_step <= 0:
        raise SolverError("grid_step must be positive")
    pts, vals = _grid_values(p, grid_step)
    if pts.shape[0] == 0:
        raise SolverError("no feasible grid points")
    best = int(np.argmin(vals))
    return ArgminResult(pts[best], float(vals[best]), "grid-oracle",
                        {"grid_points": int(pts.shape[0]), "grid_step": grid_step})


def _grid_values(p: TwoStageProblem, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The feasible points of the grid_step lattice over X's bounding box,
    and the full objective at each."""
    fs = p.first_stage
    lo, hi, _ = feasible_box(fs)
    axes = [lo[j] + grid_step * np.arange(int(np.floor((hi[j] - lo[j]) / grid_step + 1e-9)) + 1)
            for j in range(fs.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    if fs.b_X.size:
        pts = pts[np.all(pts @ fs.A_X.T <= fs.b_X + FEAS_TOL, axis=1)]
    vals = eval_q_many(p.fan(), p.measure, p.risk, pts @ fs.T.T) + pts @ fs.h
    if fs.has_quadratic:
        vals = vals + np.einsum("ij,jk,ik->i", pts, fs.H, pts)
    return pts, vals
