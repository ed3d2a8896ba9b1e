"""Probability measures on the right-hand-side space.

Two families: finitely supported measures and the uniform density on a
box. Those are exactly the families for which the density lower bound
needed by the certification region is checkable in closed form; anything
fancier would make that check vacuous. Includes the L1 optimal-transport
distance (exact, by a transportation simplex on a spanning-tree basis), box
discretization, and seeded perturbation plans for the stability experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# unused solve_lp: perfbench/spans.py traces the LP calls of this module by that name
from .lp import LpNumericalError, solve_lp  # noqa: F401
from .rng import substream

WEIGHT_TOL = 1e-12
MAX_ATOMS = 10**7
# transportation simplex: pivots allowed per tree node, degenerate pivots in a
# row before pricing turns from Dantzig to Bland, and the pricing tolerance
# relative to the largest cost
TRANSPORT_PIVOTS_PER_NODE = 100
TRANSPORT_DEGENERATE_STREAK = 50
TRANSPORT_OPT_TOL = 1e-12


class MeasureError(ValueError):
    """Invalid measure data or incompatible dimensions."""


@dataclass(frozen=True)
class DiscreteMeasure:
    atoms: np.ndarray  # (K, s)
    weights: np.ndarray  # (K,)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms.reshape(-1, 1)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.shape[0] != weights.shape[0] or atoms.shape[0] == 0:
            raise MeasureError("atoms and weights must be nonempty and aligned")
        if not np.isfinite(atoms).all():
            raise MeasureError("atoms must be finite")
        if np.any(weights < 0):
            raise MeasureError("weights must be nonnegative")
        if abs(math.fsum(weights.tolist()) - 1.0) > WEIGHT_TOL:
            raise MeasureError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def s(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @staticmethod
    def point_mass(z) -> "DiscreteMeasure":
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return DiscreteMeasure(z.reshape(1, -1), np.array([1.0]))


@dataclass(frozen=True)
class BoxDensityMeasure:
    """Uniform density 1/vol on the box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise MeasureError("lo and hi must be 1-D and aligned")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise MeasureError("box corners must be finite")
        if np.any(lo >= hi):
            raise MeasureError("need lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def s(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    @property
    def density(self) -> float:
        return 1.0 / self.volume


Measure = DiscreteMeasure | BoxDensityMeasure


@dataclass(frozen=True)
class RegionV:
    """Open box in transformed first-stage space plus the margin radius."""

    lo: np.ndarray
    hi: np.ndarray
    rho: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise MeasureError("region box must be nonempty")
        if not self.rho > 0:
            raise MeasureError("rho must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def s(self) -> int:
        return self.lo.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.lo + rng.uniform(size=self.s) * (self.hi - self.lo)


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """L1 optimal transport cost between two finitely supported measures.

    Exact, by the transportation simplex over the K x L Euclidean cost
    matrix (`_transport_simplex`). The argument pair is put in a canonical
    order first so the result is bitwise symmetric.
    """
    if mu.s != nu.s:
        raise MeasureError(f"dimension mismatch: {mu.s} vs {nu.s}")
    if _measure_key(nu) < _measure_key(mu):
        mu, nu = nu, mu
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    return max(_transport_simplex(mu.weights, nu.weights, cost), 0.0)


def _transport_simplex(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> float:
    """min sum(C * X) over X >= 0 with row sums a and column sums b.

    The basis is a spanning tree over K row nodes (0..K-1) and L column
    nodes (K..K+L-1), rooted at row 0; each tree edge is one basic cell,
    stored at its child node. It starts from the northwest-corner
    staircase. Potentials u, v satisfy u_i + v_j = C_ij on the tree. The
    entering cell has the most negative reduced cost C - u - v (lowest flat
    index on ties); the leaving cell is the minus cell of the tree cycle with
    the least flow (lowest flat index on ties). After
    TRANSPORT_DEGENERATE_STREAK zero-step pivots in a row, the entering cell
    is the lowest-indexed improving one (Bland) until a pivot moves flow, so
    the method cannot cycle. Optimality is confirmed on potentials
    recomputed from the tree. The value is fsum of flow * cost over the
    tree, which does not depend on the order of the cells.
    """
    K, L = C.shape
    cost = C.tolist()
    pred = [-1] * (K + L)
    children: list[list[int]] = [[] for _ in range(K + L)]
    eflow = [0.0] * (K + L)
    ecell = [-1] * (K + L)

    # northwest corner: a staircase of K+L-1 cells, each adding one node
    ra, rb = a.tolist(), b.tolist()
    i, j, child = 0, 0, K
    while True:
        x = min(ra[i], rb[j])
        ra[i] -= x
        rb[j] -= x
        parent = i if child >= K else K + j
        pred[child] = parent
        children[parent].append(child)
        eflow[child], ecell[child] = x, i * L + j
        if i == K - 1 and j == L - 1:
            break
        if j == L - 1 or (i < K - 1 and ra[i] <= rb[j]):
            i += 1
            child = i
        else:
            j += 1
            child = K + j

    u, v, depth = _tree_potentials(cost, K, children)
    fresh = True
    tol = TRANSPORT_OPT_TOL * max(1.0, float(C.max()))
    cap = TRANSPORT_PIVOTS_PER_NODE * (K + L)
    pivots = streak = 0
    while True:
        reduced = (C - u[:, None] - v[None, :]).reshape(-1)
        if streak < TRANSPORT_DEGENERATE_STREAK:
            k = int(reduced.argmin())
            improving = reduced[k] < -tol
        else:
            below = reduced < -tol
            k = int(below.argmax())
            improving = bool(below[k])
        if not improving:
            if fresh:
                break
            u, v, depth = _tree_potentials(cost, K, children)
            fresh = True
            continue
        if pivots == cap:
            raise LpNumericalError(f"transport simplex: iteration cap {cap} exceeded")
        pivots += 1
        fresh = False
        r = float(reduced[k])
        p, q = divmod(k, L)
        q += K

        # the cycle: tree paths from q and from p up to their common ancestor
        side_q, side_p = [], []
        hq, hp = q, p
        while depth[hq] > depth[hp]:
            side_q.append(hq)
            hq = pred[hq]
        while depth[hp] > depth[hq]:
            side_p.append(hp)
            hp = pred[hp]
        while hq != hp:
            side_q.append(hq)
            hq = pred[hq]
            side_p.append(hp)
            hp = pred[hp]
        # the entering cell adds theta to row p and column q, so on q's side the
        # edges below a column node give theta up, on p's side those below a row
        minus = [n for n in side_q if n >= K] + [n for n in side_p if n < K]
        plus = [n for n in side_q if n < K] + [n for n in side_p if n >= K]
        leave = min(minus, key=lambda n: (eflow[n], ecell[n]))
        theta = eflow[leave]
        if theta > 0.0:
            streak = 0
            for n in minus:
                eflow[n] -= theta
            for n in plus:
                eflow[n] += theta
        else:
            streak += 1

        # drop the leaving edge; the cut-off subtree holds s and hangs from t
        s, t, side = (p, q, side_p) if leave in side_p else (q, p, side_q)
        path = side[:side.index(leave) + 1]
        children[pred[leave]].remove(leave)
        for lo, hi in zip(reversed(path[:-1]), reversed(path[1:])):
            children[hi].remove(lo)
            children[lo].append(hi)
            pred[hi] = lo
            eflow[hi], ecell[hi] = eflow[lo], ecell[lo]
        pred[s] = t
        children[t].append(s)
        eflow[s], ecell[s] = theta, k

        # the subtree's potentials move so that the entering cell prices to 0
        shift = r if s < K else -r
        rows, cols, stack = [], [], [s]
        depth[s] = depth[t] + 1
        while stack:
            n = stack.pop()
            (rows if n < K else cols).append(n)
            for c in children[n]:
                depth[c] = depth[n] + 1
                stack.append(c)
        u[np.array(rows, dtype=np.intp)] += shift
        v[np.array(cols, dtype=np.intp) - K] -= shift

    return math.fsum(eflow[n] * C.flat[ecell[n]] for n in range(1, K + L))


def _tree_potentials(cost: list, K: int, children: list):
    """u (rows), v (columns) and node depths on the tree, with u_0 = 0."""
    pot = [0.0] * len(children)
    depth = [0] * len(children)
    stack = [0]
    while stack:
        n = stack.pop()
        for c in children[n]:
            depth[c] = depth[n] + 1
            pot[c] = cost[n][c - K] - pot[n] if c >= K else cost[c][n - K] - pot[n]
            stack.append(c)
    return np.array(pot[:K]), np.array(pot[K:]), depth


def _measure_key(m: DiscreteMeasure) -> bytes:
    return m.atoms.tobytes() + m.weights.tobytes()


def discretize(bm: BoxDensityMeasure, resolution: int) -> DiscreteMeasure:
    """Midpoint grid with resolution cells per axis, equal weights."""
    if resolution < 1:
        raise MeasureError("resolution must be >= 1")
    n_atoms = resolution ** bm.s
    if n_atoms > MAX_ATOMS:
        raise MeasureError(f"discretization would create {n_atoms} atoms (cap {MAX_ATOMS})")
    axes = [bm.lo[j] + (bm.hi[j] - bm.lo[j]) * (np.arange(resolution) + 0.5) / resolution
            for j in range(bm.s)]
    grids = np.meshgrid(*axes, indexing="ij")
    atoms = np.stack([g.reshape(-1) for g in grids], axis=1)
    return DiscreteMeasure(atoms, np.full(n_atoms, 1.0 / n_atoms))


@dataclass(frozen=True)
class A3A4Report:
    a3: bool
    a4: bool
    r: float | None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"a3": self.a3, "a4": self.a4, "r": self.r, "diagnostics": self.diagnostics}


def check_a3_a4(measure: Measure, region: RegionV) -> A3A4Report:
    """A3 (finite first moment) holds for both supported families. A4
    (density bounded below on the region plus its margin) holds only for
    the box family when the inflated region stays inside the box."""
    if isinstance(measure, DiscreteMeasure):
        return A3A4Report(a3=True, a4=False, r=None,
                          diagnostics={"family": "discrete", "reason": "no density"})
    if measure.s != region.s:
        raise MeasureError("measure and region dimension mismatch")
    inner_lo = region.lo - region.rho
    inner_hi = region.hi + region.rho
    inside = bool(np.all(inner_lo >= measure.lo - 1e-12) and np.all(inner_hi <= measure.hi + 1e-12))
    return A3A4Report(
        a3=True,
        a4=inside,
        r=measure.density if inside else None,
        diagnostics={
            "family": "uniform_box",
            "inflated_region": [inner_lo.tolist(), inner_hi.tolist()],
            "box": [measure.lo.tolist(), measure.hi.tolist()],
        },
    )


# --- perturbation plans -------------------------------------------------------


@dataclass(frozen=True)
class ShiftPlan:
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))

    kind = "shift"

    @property
    def param(self) -> float:
        return float(np.linalg.norm(self.v))


@dataclass(frozen=True)
class JitterPlan:
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise MeasureError("jitter amplitude must be >= 0")

    kind = "jitter"

    @property
    def param(self) -> float:
        return float(self.sigma)


@dataclass(frozen=True)
class ResamplePlan:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise MeasureError("resample size must be >= 1")

    kind = "resample"

    @property
    def param(self) -> float:
        return float(self.n)


PerturbationPlan = ShiftPlan | JitterPlan | ResamplePlan


def perturb(mu: DiscreteMeasure, plan: PerturbationPlan, seed: int) -> DiscreteMeasure:
    """Apply a perturbation plan; all randomness comes from the seed."""
    if isinstance(plan, ShiftPlan):
        if plan.v.shape[0] != mu.s:
            raise MeasureError("shift vector dimension mismatch")
        return DiscreteMeasure(mu.atoms + plan.v, mu.weights)
    if isinstance(plan, JitterPlan):
        rng = substream(seed)
        noise = rng.uniform(-plan.sigma, plan.sigma, size=mu.atoms.shape) if plan.sigma > 0 else 0.0
        return DiscreteMeasure(mu.atoms + noise, mu.weights)
    if isinstance(plan, ResamplePlan):
        rng = substream(seed)
        idx = rng.choice(mu.n_atoms, size=plan.n, replace=True, p=mu.weights)
        return DiscreteMeasure(mu.atoms[idx], np.full(plan.n, 1.0 / plan.n))
    raise MeasureError(f"unknown perturbation plan {plan!r}")
