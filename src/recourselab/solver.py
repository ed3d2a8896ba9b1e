"""First-stage optimization over polyhedral feasible sets.

For zero quadratic cost and a finitely supported measure the problem is a
single deterministic-equivalent LP: scenario copies of the recourse
program plus one variable per scenario for the excess/semideviation
objectives, w_k >= eta as a bound for the expected excess and
v_k = w_k - t >= 0 for the semideviation, so each scenario adds one row.
Every other solve (a PSD quadratic cost, or a box measure) runs Kelley's
cutting-plane method on the exact value and subgradient of the full
objective, and stops on a certified gap. A brute-force grid oracle over
the feasible box provides an independent low-dimensional check.
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
    path: str  # "det-equivalent" | "cutting-plane" | "grid-oracle"
    log: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iters: int = 20000  # cuts of the cutting-plane path
    resolution: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
        raise SolverError("quadratic first-stage cost: use the cutting-plane path")
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

    Zero quadratic cost and a finitely supported measure: exact via the
    deterministic equivalent. Otherwise Kelley's cutting-plane method from
    a feasible point of X: it stops once the best value is within tol of
    the cutting-plane lower bound, reported as "gap_certificate", and
    raises SolverError carrying the best point if max_iters cuts do not
    get there.
    """
    options = options or SolveOptions()
    fs = p.first_stage
    _, _, feas = feasible_box(fs)
    if not fs.has_quadratic and isinstance(p.measure, DiscreteMeasure):
        lp = build_deterministic_equivalent(p)
        out = solve_lp(lp)
        if out.status != "optimal":
            raise SolverError(f"deterministic equivalent terminated with status {out.status}")
        x = out.x[: fs.n]
        _assert_feasible(fs, x)
        return ArgminResult(x, float(out.value), "det-equivalent",
                            {"lp_iterations": out.iterations, "lp_columns": lp.n})
    return _cutting_plane(p, feas, options)


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


def _cutting_plane(p: TwoStageProblem, x0: np.ndarray, options: SolveOptions) -> ArgminResult:
    """Kelley's method, the single-cut L-shaped method: each iterate x_i adds
    the cut f_i + g_i.(v - x_i) <= f(v), and the next iterate minimizes the
    max of the cuts over X. The master LP
        min theta  s.t.  g_i.v - theta <= g_i.x_i - f_i,  A_X v <= b_X
    is solved as its dual
        min r.lam + b_X.mu  s.t.  sum lam = 1,  G^T lam + A_X^T mu = 0,  lam, mu >= 0
    with r_i = g_i.x_i - f_i. It has n + 1 rows however many cuts there are;
    minus its value bounds the optimum from below (weak duality), and its row
    duals are (-theta, v). The run stops once the best value is within tol
    of that bound."""
    fs = p.first_stage
    n, mx = fs.n, fs.b_X.shape[0]
    evaluate = _objective(p, options)
    mu_cols = np.vstack([np.zeros((1, mx)), fs.A_X.T])
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0
    cut_cols: list[np.ndarray] = []
    cut_costs: list[float] = []
    best_x, best_val = x0, np.inf
    x, gap, pivots = x0, np.inf, 0
    for cuts in range(1, options.max_iters + 1):
        val, g = evaluate(x)
        if val < best_val:
            best_x, best_val = x, val
        cut_cols.append(np.concatenate([[1.0], g]))
        cut_costs.append(float(g @ x) - val)
        lp = LinearProgram.minimize(np.concatenate([cut_costs, fs.b_X]),
                                    np.hstack([np.array(cut_cols).T, mu_cols]),
                                    [EQ] * (n + 1), rhs)
        out = solve_lp(lp)
        if out.status != "optimal":  # pragma: no cover - X bounded, so the dual is feasible
            raise SolverError(f"cutting-plane master terminated with status {out.status}")
        pivots += out.iterations
        gap = max(best_val + out.value, 0.0)
        if gap <= options.tol:
            break
        x = out.y[1:]
    result = ArgminResult(best_x, best_val, "cutting-plane",
                          {"iterations": cuts, "master_pivots": pivots,
                           "gap_certificate": gap})
    if gap > options.tol:
        raise SolverError(f"cutting-plane gap {gap:.2e} above tol after {cuts} cuts", best=result)
    _assert_feasible(fs, best_x)
    return result


# unused PolyhedralProjector: perfbench/spans.py rebinds its __call__ at install
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
