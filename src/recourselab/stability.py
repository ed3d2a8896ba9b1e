"""Quantitative stability of optimal solutions under measure perturbation.

Perturb the scenario measure, re-solve, and relate the Hausdorff distance
between solution sets to the square root of the transport distance between
the measures. The theory promises a constant L and a radius delta making
d_H <= L * W1^(1/2) for small perturbations; both are nonconstructive, so
the harness records the empirical ratios and the fitted log-log exponent
instead of asserting any particular constant.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure, PerturbationPlan, RegionV, perturb, wasserstein1
from .rng import substream
from .solver import (SolveOptions, SolverError, TwoStageProblem, _grid_values, grid_search_oracle,
                     solve_two_stage)


class StabilityError(ValueError):
    """Unusable experiment configuration or insufficient records."""


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite nonempty point sets."""
    a = _point_set(a, "a")
    b = _point_set(b, "b")
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))


def _point_set(pts, name: str) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.size == 0:
        raise StabilityError(f"point set {name} is empty")
    return arr


@dataclass(frozen=True)
class StabilityRecord:
    plan_id: int
    kind: str
    param: float
    seed: int
    w1: float
    d_hausdorff: float
    ratio: float | None  # d_H / sqrt(W1), undefined at W1 = 0
    value_mu: float
    value_nu: float
    x_star_mu: np.ndarray
    x_star_nu: np.ndarray
    in_region: bool | None = None


@dataclass(frozen=True)
class StabilityOptions:
    solve: SolveOptions = field(default_factory=SolveOptions)
    argmin_sets: str = "singleton"  # "singleton" | "oracle"
    oracle_step: float = 1e-3
    oracle_value_tol: float = 1e-6


def run_stability_experiment(p: TwoStageProblem, plans: list[PerturbationPlan],
                             seeds, region: RegionV | None = None,
                             options: StabilityOptions | None = None) -> list[StabilityRecord]:
    """Solve the base problem, then each perturbed copy, recording the
    transport distance and the solution displacement per plan.

    Under a certified positive modulus the solution set is a singleton and
    the solver's minimizer is used directly; otherwise ("oracle" mode) the
    solution set is approximated by every grid point within value
    tolerance of the oracle optimum.
    """
    options = options or StabilityOptions()
    if not isinstance(p.measure, DiscreteMeasure):
        raise StabilityError("stability experiments need a finitely supported base measure")
    if isinstance(seeds, int):
        seeds = [int(substream(seeds, i).integers(0, 2**63)) for i in range(len(plans))]
    seeds = [int(s) for s in seeds]
    if len(seeds) != len(plans):
        raise StabilityError("need one seed per plan")

    base_set, base_value = _solution_set(p, options)
    records = []
    for plan_id, (plan, seed) in enumerate(zip(plans, seeds)):
        nu = perturb(p.measure, plan, seed)
        w1 = wasserstein1(p.measure, nu)
        p_nu = TwoStageProblem(p.first_stage, p.recourse, nu, p.risk, p.known_fan)
        try:
            nu_set, nu_value = _solution_set(p_nu, options)
        except SolverError as exc:
            raise SolverError(f"plan {plan_id} ({plan.kind}): {exc}", best=exc.best) from exc
        d_h = hausdorff(base_set, nu_set)
        in_region = None
        if region is not None:
            in_region = all(region.contains(p.first_stage.T @ x, tol=1e-9) for x in base_set)
        records.append(StabilityRecord(
            plan_id=plan_id,
            kind=plan.kind,
            param=plan.param,
            seed=seed,
            w1=w1,
            d_hausdorff=d_h,
            ratio=float(d_h / np.sqrt(w1)) if w1 > 0 else None,
            value_mu=base_value,
            value_nu=nu_value,
            x_star_mu=base_set[0],
            x_star_nu=nu_set[0],
            in_region=in_region,
        ))
    return records


def _solution_set(p: TwoStageProblem, options: StabilityOptions):
    if options.argmin_sets == "oracle":
        res = grid_search_oracle(p, options.oracle_step)
        pts, vals = _grid_values(p, options.oracle_step)
        return pts[vals <= res.value + options.oracle_value_tol], res.value
    res = solve_two_stage(p, options.solve)
    return res.x_star.reshape(1, -1), res.value


def estimate_holder_exponent(records: list[StabilityRecord]) -> float:
    """Least-squares slope of log d_H against log W1 over usable records."""
    usable = [(r.w1, r.d_hausdorff) for r in records if r.w1 > 0 and r.d_hausdorff > 0]
    distinct = np.unique([w for w, _ in usable])
    if len(usable) < 3 or distinct.size < 3:
        raise StabilityError("need >= 3 records with distinct positive W1 and positive d_H")
    logw = np.log([w for w, _ in usable])
    logd = np.log([d for _, d in usable])
    slope, _ = np.polyfit(logw, logd, 1)
    return float(slope)


CSV_BASE_COLUMNS = ["plan_id", "kind", "param", "seed", "w1", "d_hausdorff", "ratio",
                    "value_mu", "value_nu"]


def records_to_csv(records: list[StabilityRecord]) -> str:
    """Render records with one column per solution coordinate; byte-stable
    for identical inputs."""
    if not records:
        raise StabilityError("no records to write")
    n = records[0].x_star_mu.shape[0]
    header = CSV_BASE_COLUMNS + [f"x_star_mu_{j}" for j in range(n)] + [f"x_star_nu_{j}" for j in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in records:
        row = [r.plan_id, r.kind, repr(float(r.param)), r.seed, repr(float(r.w1)),
               repr(float(r.d_hausdorff)),
               "" if r.ratio is None else repr(float(r.ratio)),
               repr(float(r.value_mu)), repr(float(r.value_nu))]
        row += [repr(float(v)) for v in r.x_star_mu]
        row += [repr(float(v)) for v in r.x_star_nu]
        writer.writerow(row)
    return buf.getvalue()
