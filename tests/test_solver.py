import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourselab import solver as solver_module
from recourselab.geometry import RecourseData, enumerate_dual_vertices, recourse_lp
from recourselab.lp import solve_lp, verify_optimality
from recourselab.measures import DiscreteMeasure
from recourselab.risk import RiskSpec, eval_q
from recourselab.solver import (FirstStage, SolveOptions, SolverError, TwoStageProblem,
                                build_deterministic_equivalent, det_equivalent_layout,
                                feasible_box, grid_search_oracle, solve_two_stage)

from .oracles import det_equivalent_epigraph

E = RiskSpec.expectation()


def interval_stage(h=0.0, H=None, lo=0.0, hi=1.0):
    return FirstStage(T=[[1.0]], h=[h], H=H, A_X=[[1.0], [-1.0]], b_X=[hi, -lo])


class TestDetEquivalent:
    def test_expectation_shape(self, rd_1d):
        mu = DiscreteMeasure([[0.2], [0.8]], [0.5, 0.5])
        p = TwoStageProblem(interval_stage(), rd_1d, mu, E)
        lp = build_deterministic_equivalent(p)
        # x plus two scenario copies of the two recourse variables
        assert lp.n == 1 + 2 * 2
        # two box rows plus one recourse equality per scenario
        assert lp.m == 2 + 2
        assert lp.senses.count("==") == 2

    def test_expected_excess_counts(self, rd_1d):
        mu = DiscreteMeasure([[0.2], [0.5], [0.8]], [1 / 3, 1 / 3, 1 / 3])
        p = TwoStageProblem(interval_stage(), rd_1d, mu, RiskSpec.expected_excess(0.3))
        base = build_deterministic_equivalent(
            TwoStageProblem(interval_stage(), rd_1d, mu, E))
        lp = build_deterministic_equivalent(p)
        assert lp.n - base.n == 3  # one epigraph variable per scenario
        assert lp.m - base.m == 3  # one inequality row per scenario; w >= eta is a bound

    def test_semideviation_epigraph_consistency(self, rd_1d, nine_atoms):
        spec = RiskSpec.upper_semideviation()
        p = TwoStageProblem(interval_stage(h=0.3), rd_1d, nine_atoms, spec)
        lp = build_deterministic_equivalent(p)
        out = solve_lp(lp)
        assert out.status == "optimal"
        layout = det_equivalent_layout(p)
        x = out.x[layout["x"][0]:layout["x"][1]]
        fan = p.fan()
        assert out.value - 0.3 * x[0] == pytest.approx(
            eval_q(fan, nine_atoms, spec, p.first_stage.T @ x), abs=1e-6)
        # the mean variable must match per-scenario re-solves
        t = out.x[layout["t"]]
        from recourselab.geometry import recourse_lp

        resolved = [solve_lp(recourse_lp(p.recourse, z - p.first_stage.T @ x)).value
                    for z in nine_atoms.atoms]
        assert t == pytest.approx(float(np.mean(resolved)), abs=1e-7)

    def test_rejects_quadratic_and_continuous(self, rd_1d, nine_atoms, box_1d):
        p = TwoStageProblem(interval_stage(H=[[1.0]]), rd_1d, nine_atoms, E)
        with pytest.raises(SolverError, match="cutting-plane"):
            build_deterministic_equivalent(p)
        p2 = TwoStageProblem(interval_stage(), rd_1d, box_1d, E)
        with pytest.raises(SolverError, match="finitely supported"):
            build_deterministic_equivalent(p2)


def _l1_cost(q, t):
    """phi(t) = sum_j max(q+_j t_j, -q-_j t_j), the recourse cost of W = [I, -I]."""
    s = t.shape[-1]
    return np.maximum(q[:s] * t, -q[s:] * t).sum(axis=-1)


def _closed_form_risk(costs, weights, kind, eta):
    mean = float(weights @ costs)
    if kind == "expectation":
        return mean
    if kind == "expected_excess":
        return float(weights @ np.maximum(costs, eta))
    return mean + float(weights @ np.maximum(costs - mean, 0.0))


def _random_det_eq_instance(seed, s, n, atoms, kind, eta_at):
    """A random problem on X = [0, 1]^n with the L1 recourse W = [I, -I],
    non-uniform weights and, for the excess, eta below every scenario cost
    (negative), at 0, among the costs at the centre of X, or above every
    cost on X."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.5, 1.5, size=2 * s)
    T = rng.uniform(-1.0, 1.0, size=(s, n))
    stage = FirstStage(T=T, h=rng.uniform(-0.3, 0.3, size=n), H=None,
                       A_X=np.vstack([np.eye(n), -np.eye(n)]),
                       b_X=np.concatenate([np.ones(n), np.zeros(n)]))
    z = rng.uniform(0.0, 1.0, size=(atoms, s))
    weights = rng.dirichlet(np.ones(atoms))
    weights /= weights.sum()
    eta = None
    if kind == "expected_excess":
        centre_costs = _l1_cost(q, z - T @ np.full(n, 0.5))
        cost_cap = float(np.maximum(q[:s], q[s:]) @ (1.0 + np.abs(T).sum(axis=1)))
        eta = {"below": -rng.uniform(0.01, 1.0), "zero": 0.0,
               "among": float(np.median(centre_costs)),
               "above": cost_cap + rng.uniform(0.01, 1.0)}[eta_at]
    risk = RiskSpec(kind, eta)
    recourse = RecourseData(np.hstack([np.eye(s), -np.eye(s)]), q)
    return TwoStageProblem(stage, recourse, DiscreteMeasure(z, weights), risk)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.integers(1, 2), n=st.integers(1, 2),
       atoms=st.integers(1, 8),
       kind=st.sampled_from(["expectation", "expected_excess", "upper_semideviation"]),
       eta_at=st.sampled_from(["below", "zero", "among", "above"]))
def test_det_equivalent_matches_epigraph_oracle_and_closed_form(seed, s, n, atoms, kind, eta_at):
    p = _random_det_eq_instance(seed, s, n, atoms, kind, eta_at)
    fs, rd, mu = p.first_stage, p.recourse, p.measure
    lp = build_deterministic_equivalent(p)
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert verify_optimality(lp, out) <= 1e-8
    ref, _ = det_equivalent_epigraph(fs.T, fs.h, fs.A_X, fs.b_X, rd.W, rd.q,
                                     mu.atoms, mu.weights, kind, p.risk.eta)
    assert out.value == pytest.approx(ref, rel=1e-7, abs=1e-7)
    layout = det_equivalent_layout(p)
    x = out.x[layout["x"][0]:layout["x"][1]]
    costs = _l1_cost(rd.q, mu.atoms - fs.T @ x)
    closed = float(fs.h @ x) + _closed_form_risk(costs, mu.weights, kind, p.risk.eta)
    assert out.value == pytest.approx(closed, rel=1e-7, abs=1e-7)
    if kind == "upper_semideviation":
        resolved = [solve_lp(recourse_lp(rd, zk - fs.T @ x)).value for zk in mu.atoms]
        assert out.x[layout["t"]] == pytest.approx(float(mu.weights @ resolved), abs=1e-7)


_RISK_KINDS = ["expectation", "expected_excess", "upper_semideviation"]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.integers(1, 2), n=st.integers(1, 2),
       atoms=st.integers(1, 8), kind=st.sampled_from(_RISK_KINDS),
       eta_at=st.sampled_from(["below", "zero", "among", "above"]))
def test_cutting_plane_brackets_the_det_equivalent_optimum(seed, s, n, atoms, kind, eta_at):
    p = _random_det_eq_instance(seed, s, n, atoms, kind, eta_at)
    best = solve_two_stage(p)
    assert best.path == "det-equivalent"
    res = solver_module._cutting_plane(p, feasible_box(p.first_stage)[2], SolveOptions())
    gap = res.log["gap_certificate"]
    assert res.path == "cutting-plane" and 0.0 <= gap <= 1e-6
    assert best.value <= res.value + 1e-9
    assert res.value - gap <= best.value + 1e-8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.integers(1, 2), n=st.integers(1, 2),
       atoms=st.integers(1, 8), kind=st.sampled_from(_RISK_KINDS),
       eta_at=st.sampled_from(["below", "zero", "among", "above"]))
def test_quadratic_cutting_plane_matches_grid_oracle(seed, s, n, atoms, kind, eta_at):
    p = _random_det_eq_instance(seed, s, n, atoms, kind, eta_at)
    M = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(n, n))
    fs = dataclasses.replace(p.first_stage, H=M @ M.T)
    p = dataclasses.replace(p, first_stage=fs)
    res = solve_two_stage(p)
    gap = res.log["gap_certificate"]
    assert res.path == "cutting-plane" and 0.0 <= gap <= 1e-6
    x = res.x_star
    direct = eval_q(p.fan(), p.measure, p.risk, fs.T @ x) + float(fs.h @ x + x @ fs.H @ x)
    assert res.value == pytest.approx(direct, abs=1e-12)
    # on X = [0, 1]^n every point lies within step/2 per axis of a grid
    # point, and |df/dx_j| <= |h_j| + c (|T|^T max(q+, q-))_j + 2 (|H| 1)_j,
    # where c = 3 for the semideviation (its excess term adds up to 2) and 1 otherwise
    step = 1e-3 if n == 1 else 1e-2
    oracle = grid_search_oracle(p, step)
    q = p.recourse.q
    c = 3.0 if kind == "upper_semideviation" else 1.0
    lip = np.abs(fs.h) + c * np.abs(fs.T).T @ np.maximum(q[:s], q[s:]) + 2.0 * np.abs(fs.H).sum(axis=1)
    slack = float(lip.sum()) * step / 2.0
    assert res.value - gap <= oracle.value + 1e-9
    assert oracle.value <= res.value + slack + 1e-9


class TestSolve:
    def test_median_instance(self, median_problem):
        res = solve_two_stage(median_problem)
        assert res.path == "det-equivalent"
        assert res.x_star == pytest.approx([0.5], abs=1e-9)
        assert res.value == pytest.approx(2.0 / 9.0, abs=1e-9)

    def test_steep_linear_cost_pins_to_zero(self, rd_1d, nine_atoms):
        p = TwoStageProblem(interval_stage(h=10.0), rd_1d, nine_atoms, E)
        res = solve_two_stage(p)
        assert res.x_star == pytest.approx([0.0], abs=1e-9)

    def test_single_atom_drives_recourse_to_zero(self, rd_1d):
        p = TwoStageProblem(interval_stage(), rd_1d, DiscreteMeasure.point_mass([0.7]), E)
        res = solve_two_stage(p)
        assert res.x_star == pytest.approx([0.7], abs=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_feasibility_of_returned_point(self, median_problem):
        res = solve_two_stage(median_problem)
        fs = median_problem.first_stage
        assert np.max(fs.A_X @ res.x_star - fs.b_X) <= 1e-8

    def test_objective_consistency(self, median_problem):
        res = solve_two_stage(median_problem)
        fan = median_problem.fan()
        direct = eval_q(fan, median_problem.measure, E,
                        median_problem.first_stage.T @ res.x_star)
        assert res.value == pytest.approx(float(
            median_problem.first_stage.h @ res.x_star) + direct, abs=1e-6)

    def test_unbounded_feasible_set_refused(self, rd_1d, nine_atoms):
        fs = FirstStage(T=[[1.0]], h=[0.0], H=None, A_X=[[-1.0]], b_X=[0.0])
        with pytest.raises(SolverError, match="unbounded"):
            solve_two_stage(TwoStageProblem(fs, rd_1d, nine_atoms, E))

    def test_infeasible_set_refused(self, rd_1d, nine_atoms):
        fs = FirstStage(T=[[1.0]], h=[0.0], H=None, A_X=[[1.0], [-1.0]], b_X=[0.0, -1.0])
        with pytest.raises(SolverError, match="empty"):
            solve_two_stage(TwoStageProblem(fs, rd_1d, nine_atoms, E))


class TestSubgradient:
    def test_quadratic_cost_matches_oracle(self, rd_1d, nine_atoms):
        p = TwoStageProblem(interval_stage(H=[[1.0]]), rd_1d, nine_atoms, E)
        res = solve_two_stage(p, SolveOptions(tol=1e-7))
        assert res.path == "cutting-plane"
        assert res.log["gap_certificate"] <= 1e-7
        oracle = grid_search_oracle(p, 1e-4)
        assert abs(res.value - oracle.value) <= 1e-3

    def test_certificate_failure_carries_best_iterate(self, rd_1d, nine_atoms):
        p = TwoStageProblem(interval_stage(H=[[1.0]]), rd_1d, nine_atoms, E)
        with pytest.raises(SolverError) as err:
            solve_two_stage(p, SolveOptions(tol=1e-12, max_iters=3))
        assert err.value.best is not None
        assert err.value.best.x_star.shape == (1,)
        with pytest.raises(ValueError, match="max_iters"):
            SolveOptions(max_iters=0)

    def test_zero_recourse_contribution_quadratic_minimum(self, rd_1d):
        # single atom at the quadratic minimizer: both cost pieces vanish
        # there, and the minimizer sits at a kink of the recourse cost
        fs = FirstStage(T=[[1.0]], h=[0.0], H=[[1.0]],
                        A_X=[[1.0], [-1.0]], b_X=[1.0, 1.0])
        p = TwoStageProblem(fs, rd_1d, DiscreteMeasure.point_mass([0.0]), E)
        res = solve_two_stage(p, SolveOptions(tol=2e-4))
        oracle = grid_search_oracle(p, 1e-4)
        assert abs(res.value - oracle.value) <= 1e-3
        assert abs(res.x_star[0]) <= 1e-3
        assert abs(oracle.x_star[0]) <= 1e-4


class TestGridOracle:
    def test_dimension_limit(self, rd_2d, fan_2d):
        fs = FirstStage(T=np.eye(3)[:2], h=np.zeros(3), H=None,
                        A_X=np.vstack([np.eye(3), -np.eye(3)]),
                        b_X=np.concatenate([np.ones(3), np.zeros(3)]))
        mu = DiscreteMeasure([[0.5, 0.5]], [1.0])
        with pytest.raises(SolverError, match="dimension"):
            grid_search_oracle(TwoStageProblem(fs, rd_2d, mu, E), 0.1)

    def test_constant_objective_reports_target(self, rd_1d, nine_atoms):
        p = TwoStageProblem(interval_stage(), rd_1d, nine_atoms,
                            RiskSpec.expected_excess(50.0))
        res = grid_search_oracle(p, 1e-3)
        assert res.value == pytest.approx(50.0, abs=1e-9)

    def test_matches_solver_on_median(self, median_problem):
        oracle = grid_search_oracle(median_problem, 1e-4)
        solved = solve_two_stage(median_problem)
        assert abs(oracle.value - solved.value) <= 1e-3
        assert abs(oracle.x_star[0] - solved.x_star[0]) <= 1e-4

    def test_box_measure_path(self, rd_1d, box_1d):
        p = TwoStageProblem(interval_stage(), rd_1d, box_1d, E)
        res = grid_search_oracle(p, 1e-3)
        assert res.x_star == pytest.approx([0.5], abs=2e-3)
        assert res.value == pytest.approx(0.25, abs=1e-5)


def test_feasible_box_reports_bounds(median_problem):
    lo, hi, feas = feasible_box(median_problem.first_stage)
    assert lo == pytest.approx([0.0])
    assert hi == pytest.approx([1.0])
    fs = median_problem.first_stage
    assert np.max(fs.A_X @ feas - fs.b_X) <= 1e-9


def test_feasible_box_solves_once_per_first_stage(monkeypatch):
    fs = interval_stage(lo=0.2, hi=0.7)
    calls = []
    original = solver_module.solve_lp

    def counting(lp, *args):
        calls.append(lp)
        return original(lp, *args)

    monkeypatch.setattr(solver_module, "solve_lp", counting)
    lo, hi, feas = feasible_box(fs)
    assert len(calls) == 2 * fs.n
    lo[:] = hi[:] = feas[:] = np.nan  # callers get copies
    again = feasible_box(fs)
    assert len(calls) == 2 * fs.n
    assert again[0] == pytest.approx([0.2]) and again[1] == pytest.approx([0.7])
    assert 0.2 - 1e-9 <= again[2][0] <= 0.7 + 1e-9
    # a refusal is not cached: it is raised again on every call
    empty = interval_stage(lo=1.0, hi=0.0)
    for _ in range(2):
        with pytest.raises(SolverError, match="empty"):
            feasible_box(empty)


def test_known_fan_is_not_enumerated_again(monkeypatch, rd_1d, nine_atoms):
    fan = enumerate_dual_vertices(rd_1d)
    fresh = TwoStageProblem(interval_stage(), rd_1d, nine_atoms, E)
    given_fan = TwoStageProblem(interval_stage(), rd_1d, nine_atoms, E, fan)

    def refuse(rd):
        raise AssertionError("fan enumerated again")

    monkeypatch.setattr(solver_module, "enumerate_dual_vertices", refuse)
    assert given_fan.fan() is fan
    with pytest.raises(AssertionError, match="again"):
        fresh.fan()
    other = RecourseData([[1.0, -1.0]], [2.0, 1.0])
    with pytest.raises(ValueError, match="known_fan"):
        TwoStageProblem(interval_stage(), other, nine_atoms, E, fan)


def test_first_stage_validation():
    with pytest.raises(ValueError, match="symmetric"):
        FirstStage(T=[[1.0, 0.0]], h=[0.0, 0.0], H=[[1.0, 0.5], [0.0, 1.0]],
                   A_X=np.zeros((0, 2)), b_X=[])
    with pytest.raises(ValueError, match="semidefinite"):
        FirstStage(T=[[1.0]], h=[0.0], H=[[-1.0]], A_X=np.zeros((0, 1)), b_X=[])
