"""Deviation-risk functionals of the recourse value.

Evaluates the expectation, the expected excess over a target, and the
upper semideviation of the recourse cost, all as integrals of
max{g(x), phi(z - x)} for the appropriate g: g = -inf (expectation),
g = constant target (expected excess), g = the expectation itself
(upper semideviation). Gradients come from the cell-mass formula
(mass of the region where g wins times g' minus the mass-weighted dual
vertices); the gradient-difference representation is also computed by a
second, set-difference route so the two can cross-check each other.

Every evaluation is one pass against g, `cell_measures`: the integral of
max(g, phi) and the cell masses come from one atom-by-vertex score array,
so a semideviation value and gradient take two passes, the first for its
g. One-dimensional box measures are integrated in closed form; other
boxes become a midpoint grid, once per objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import DualVertexFan, phi, phi_many
from .measures import BoxDensityMeasure, DiscreteMeasure, Measure, discretize
from .rng import stable_dot

EXPECTATION = "expectation"
EXPECTED_EXCESS = "expected_excess"
UPPER_SEMIDEVIATION = "upper_semideviation"
RISK_KINDS = (EXPECTATION, EXPECTED_EXCESS, UPPER_SEMIDEVIATION)

CELL_TIE_TOL = 1e-9


class RiskError(ValueError):
    """Invalid risk specification or unusable measure/fan combination."""


@dataclass(frozen=True)
class RiskSpec:
    kind: str
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in RISK_KINDS:
            raise RiskError(f"unknown risk kind {self.kind!r}")
        if self.kind == EXPECTED_EXCESS:
            if self.eta is None or not np.isfinite(self.eta):
                raise RiskError("expected_excess needs a finite target eta")
        elif self.eta is not None:
            raise RiskError(f"{self.kind} takes no target")

    @staticmethod
    def expectation() -> "RiskSpec":
        return RiskSpec(EXPECTATION)

    @staticmethod
    def expected_excess(eta: float) -> "RiskSpec":
        return RiskSpec(EXPECTED_EXCESS, float(eta))

    @staticmethod
    def upper_semideviation() -> "RiskSpec":
        return RiskSpec(UPPER_SEMIDEVIATION)


@dataclass(frozen=True)
class CellDecomposition:
    """Measure mass per linearity cell at a fixed first-stage point:
    pi0 where g dominates, pi[i] on the cone of dual vertex i; value is
    the integral of max(g, phi(z - x)) over these cells."""

    value: float
    pi0: float
    pi: np.ndarray
    tie_atoms: int = 0

    def total(self) -> float:
        return self.pi0 + float(self.pi.sum())


@dataclass(frozen=True)
class BreakpointProfile:
    """Discrete distribution behind the gradient formula at (x, u):
    values y0 = g'(x).u and y_i = -d_i.u with masses pi0, pi_i."""

    y0: float
    yi: np.ndarray
    pi0: float
    pi: np.ndarray

    @property
    def breakpoints(self) -> np.ndarray:
        return np.sort(np.concatenate([[self.y0], self.yi]))

    def cdf(self, tau: float) -> float:
        total = self.pi0 if self.y0 <= tau else 0.0
        return total + float(self.pi[self.yi <= tau].sum())

    def mean(self) -> float:
        return self.pi0 * self.y0 + float(self.pi @ self.yi)


def _require_fan(fan: DualVertexFan):
    if fan.n_vertices == 0:  # pragma: no cover - fan construction forbids this
        raise RiskError("fan has no vertices: recourse value is unbounded (A2 violated)")


def _atoms_of(measure: Measure, resolution) -> DiscreteMeasure:
    if isinstance(measure, DiscreteMeasure):
        return measure
    if resolution is None:
        raise RiskError("box measures in dimension >= 2 need an explicit quadrature resolution")
    return discretize(measure, int(resolution))


def _quadrature(measure: Measure, resolution) -> Measure:
    """What the pass integrates against: the 1-D box itself (closed form),
    otherwise atoms."""
    if isinstance(measure, BoxDensityMeasure) and measure.s == 1:
        return measure
    return _atoms_of(measure, resolution)


def _g_value_and_grad(fan, quad: Measure, spec: RiskSpec, x: np.ndarray):
    """The comparison function g at x: value and gradient."""
    if spec.kind == EXPECTATION:
        return -np.inf, np.zeros(fan.s)
    if spec.kind == EXPECTED_EXCESS:
        return float(spec.eta), np.zeros(fan.s)
    return _value_and_grad(fan, quad, RiskSpec.expectation(), x)


def _value_and_grad(fan, quad: Measure, spec: RiskSpec, x: np.ndarray):
    gval, ggrad = _g_value_and_grad(fan, quad, spec, x)
    cells = cell_measures(fan, quad, (gval, ggrad), x)
    return cells.value, cells.pi0 * ggrad - cells.pi @ fan.vertices


def eval_q(fan: DualVertexFan, measure: Measure, spec: RiskSpec, x, resolution=None) -> float:
    """Value of the risk functional at transformed first-stage point x."""
    _warn_if_a5_risky(fan, spec)
    return _value_and_grad(fan, _quadrature(measure, resolution), spec, x)[0]


def grad_q(fan: DualVertexFan, measure: Measure, spec: RiskSpec, x, resolution=None) -> np.ndarray:
    """Gradient of the risk functional from its cell decomposition; at a
    kink this is the tie-broken selection."""
    return _value_and_grad(fan, _quadrature(measure, resolution), spec, x)[1]


def _warn_if_a5_risky(fan, spec):
    if spec.kind == EXPECTED_EXCESS and spec.eta == 0.0:
        if np.min(np.linalg.norm(fan.vertices, axis=1)) <= 1e-9:
            warnings.warn(
                "target 0 with 0 a dual vertex: the level set {phi = 0} can carry "
                "mass, so the gradient cell formula may drop a term",
                RuntimeWarning, stacklevel=3)


# --- the pass: value and cell masses ------------------------------------------


def cell_measures(fan: DualVertexFan, measure: Measure, g_value_and_grad, x,
                  resolution=None) -> CellDecomposition:
    """Value and mass of the g-dominated region and of each cone cell at x.

    g_value_and_grad is the pair (g(x), g'(x)). Atoms on cell boundaries
    go to the lowest cone index; atoms with g(x) = phi exactly go to the
    cone side (the g-region is a strict inequality).
    """
    _require_fan(fan)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gval = float(g_value_and_grad[0])
    quad = _quadrature(measure, resolution)
    if isinstance(quad, BoxDensityMeasure):
        return _box1d_pass(fan, quad, float(x[0]), gval)
    return _atom_pass(fan, quad, x, gval)


def _scores(fan, dm: DiscreteMeasure, x):
    """The scores (z_k - x).d_i, vertex column first, and their maxima
    phi(z_k - x), taken column by column: a max along the short vertex
    axis of every atom costs far more. Leading axes of x give leading
    axes of the result."""
    columns = np.moveaxis((dm.atoms - x[..., None, :]) @ fan.vertices.T, -1, 0)
    phis = columns[0].copy()
    for col in columns[1:]:
        np.maximum(phis, col, out=phis)
    return columns, phis


def _atom_pass(fan, dm: DiscreteMeasure, x, gval: float) -> CellDecomposition:
    """The value stable_dot(w, max(gval, phi)) and the cells: an atom's
    cone is the lowest vertex whose score is within CELL_TIE_TOL of phi."""
    columns, phis = _scores(fan, dm, x)
    floor = phis - CELL_TIE_TOL * (np.abs(phis) + 1.0)
    cone = np.empty(dm.n_atoms, dtype=np.intp)
    n_active = np.zeros(dm.n_atoms, dtype=np.intp)
    for i in range(fan.n_vertices - 1, -1, -1):  # the lowest active index is written last
        active = columns[i] >= floor
        np.copyto(cone, i, where=active)
        n_active += active
    in_g = gval > phis
    pi = np.bincount(cone, weights=np.where(in_g, 0.0, dm.weights), minlength=fan.n_vertices)
    return CellDecomposition(stable_dot(dm.weights, np.maximum(gval, phis)),
                             float(dm.weights[in_g].sum()), pi,
                             tie_atoms=int(np.count_nonzero(n_active > 1)))


def _box1d_pass(fan, bm: BoxDensityMeasure, x: float, gval: float) -> CellDecomposition:
    """Exact value and cell masses for the 1-D uniform density: the
    integrand max(gval, phi(z - x)) is piecewise linear with kinks only at
    x and at the crossings with gval, so trapezoids between breakpoints are
    exact and each piece lies in a single cell."""
    lo, hi = float(bm.lo[0]), float(bm.hi[0])
    pts = {lo, hi, min(max(x, lo), hi)}
    if np.isfinite(gval):
        for d in fan.vertices[:, 0]:
            if abs(d) > 1e-300:
                z = x + gval / d
                if lo < z < hi:
                    pts.add(z)
    breaks = np.array(sorted(pts))
    f = np.maximum(gval, phi_many(fan, (breaks - x).reshape(-1, 1)))
    pieces = 0.5 * (f[1:] + f[:-1]) * np.diff(breaks)
    pi0 = 0.0
    pi = np.zeros(fan.n_vertices)
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        length = (b - a) / (hi - lo)
        pval = phi(fan, [mid - x])
        if gval > pval:
            pi0 += length
        else:
            vals = fan.vertices[:, 0] * (mid - x)
            i = int(np.flatnonzero(vals >= pval - CELL_TIE_TOL * (abs(pval) + 1.0))[0])
            pi[i] += length
    return CellDecomposition(math.fsum(pieces.tolist()) / (hi - lo), pi0, pi)


def breakpoint_profile(fan: DualVertexFan, measure: Measure, spec: RiskSpec, x, u,
                       resolution=None) -> BreakpointProfile:
    """The discrete value/mass profile used by the gradient formula at (x, u)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    quad = _quadrature(measure, resolution)
    gval, ggrad = _g_value_and_grad(fan, quad, spec, x)
    cells = cell_measures(fan, quad, (gval, ggrad), x)
    return BreakpointProfile(
        y0=float(ggrad @ u),
        yi=-(fan.vertices @ u),
        pi0=cells.pi0,
        pi=cells.pi,
    )


def representation_lhs(fan: DualVertexFan, measure: Measure, spec: RiskSpec, x, u,
                       resolution=None) -> float:
    """Gradient-difference pairing (grad Q(x+u) - grad Q(x)) . u."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    gxu = grad_q(fan, measure, spec, x + u, resolution)
    gx = grad_q(fan, measure, spec, x, resolution)
    return float((gxu - gx) @ u)


def representation_rhs(fan: DualVertexFan, measure: Measure, spec: RiskSpec, x, u,
                       resolution=None) -> float:
    """Same quantity by the set-difference route: integrate over thresholds
    tau the mass of (union of cells whose value is below tau at x) minus
    the corresponding union at x + u.

    The integrand is piecewise constant between breakpoints, so the
    integral is a finite sum; set masses are evaluated directly by atom
    membership, independently of the mass bookkeeping behind grad_q.
    """
    _require_fan(fan)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    quad = _quadrature(measure, resolution)
    dm = _atoms_of(quad, resolution)
    gx, ggx = _g_value_and_grad(fan, quad, spec, x)
    gxu, ggxu = _g_value_and_grad(fan, quad, spec, x + u)

    m0_x, member_x = _cell_membership(fan, dm, x, gx)
    m0_xu, member_xu = _cell_membership(fan, dm, x + u, gxu)

    yi = -(fan.vertices @ u)
    y_x = np.concatenate([[float(ggx @ u)], yi])  # index 0 is the g-cell
    y_xu = np.concatenate([[float(ggxu @ u)], yi])
    taus = np.unique(np.concatenate([y_x, y_xu]))
    total = 0.0
    w = dm.weights
    for lo_tau, hi_tau in zip(taus[:-1], taus[1:]):
        mid = 0.5 * (lo_tau + hi_tau)
        in_a = _union_members(m0_x, member_x, y_x, mid)
        in_b = _union_members(m0_xu, member_xu, y_xu, mid)
        mass = float(w[in_a & ~in_b].sum())
        total += (hi_tau - lo_tau) * mass
    return total


def _cell_membership(fan, dm: DiscreteMeasure, x, gval):
    """Per-atom membership in the g-region and in each (closed) cone cell."""
    pts = dm.atoms - x
    vals = pts @ fan.vertices.T
    pvals = vals.max(axis=1)
    m0 = gval > pvals
    above_g = pvals > gval
    tol = CELL_TIE_TOL * (np.abs(pvals) + 1.0)
    member = (vals >= (pvals - tol)[:, None]) & above_g[:, None]
    return m0, member


def _union_members(m0, member, y, tau):
    sel = y[1:] <= tau
    out = member[:, sel].any(axis=1) if sel.any() else np.zeros(member.shape[0], dtype=bool)
    if y[0] <= tau:
        out = out | m0
    return out


# --- packaged objective -------------------------------------------------------


@dataclass
class RiskObjective:
    """Value/gradient closure over a fixed fan, measure and risk spec.

    A box measure in dimension >= 2 is replaced by its midpoint grid at
    `resolution` once, on construction, so `measure` holds what every
    evaluation integrates against."""

    fan: DualVertexFan
    measure: Measure
    spec: RiskSpec
    resolution: int | None = None
    domain: object = None  # optional RegionV limiting where the paths are trusted

    def __post_init__(self):
        self.measure = _quadrature(self.measure, self.resolution)

    def value(self, x) -> float:
        return eval_q(self.fan, self.measure, self.spec, x)

    def grad(self, x) -> np.ndarray:
        return grad_q(self.fan, self.measure, self.spec, x)

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        """value(x) and grad(x) from the passes of one evaluation."""
        _warn_if_a5_risky(self.fan, self.spec)
        return _value_and_grad(self.fan, self.measure, self.spec, x)


def make_objective(fan: DualVertexFan, measure: Measure, spec: RiskSpec,
                   resolution: int | None = None) -> RiskObjective:
    return RiskObjective(fan, measure, spec, resolution)


def eval_q_many(fan: DualVertexFan, measure: Measure, spec: RiskSpec,
                points: np.ndarray, resolution=None) -> np.ndarray:
    """eval_q at each of many transformed points (P, s), bit for bit, over
    one quadrature; used by the grid oracle. Atoms take the scores of a
    chunk of points at once and need no cells, so the semideviation's
    expectation comes from the same scores."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    quad = _quadrature(measure, resolution)
    if isinstance(quad, BoxDensityMeasure):
        return np.array([_value_and_grad(fan, quad, spec, p)[0] for p in points])
    w = quad.weights
    gval = float(spec.eta) if spec.kind == EXPECTED_EXCESS else -np.inf
    out = []
    chunk = max(1, 2**20 // (quad.n_atoms * fan.n_vertices))
    for start in range(0, points.shape[0], chunk):
        for phis in _scores(fan, quad, points[start:start + chunk])[1]:
            if spec.kind == UPPER_SEMIDEVIATION:  # g is the expectation at this point
                gval = stable_dot(w, phis)
            out.append(stable_dot(w, np.maximum(gval, phis)))
    return np.array(out)
