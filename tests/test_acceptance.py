"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with -s to see the lines live).

All tolerances are fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from recourselab import (BoxDensityMeasure, DiscreteMeasure, FirstStage, JitterPlan,
                         RecourseData, RegionV, RiskSpec, ShiftPlan, TwoStageProblem,
                         enumerate_dual_vertices, estimate_holder_exponent,
                         eta_threshold_sweep, grid_search_oracle, midpoint_test,
                         monotonicity_modulus, quadratic_growth_check,
                         run_stability_experiment, solve_two_stage, wasserstein1)
from recourselab.geometry import phi, recourse_lp
from recourselab.lp import solve_lp
from recourselab.measures import discretize
from recourselab.risk import (eval_q, grad_q, make_objective,
                              representation_lhs, representation_rhs)
from recourselab.solver import SolveOptions, build_deterministic_equivalent, det_equivalent_layout

from .oracles import central_fd

E = RiskSpec.expectation()
DP = RiskSpec.upper_semideviation()


def EE(eta):
    return RiskSpec.expected_excess(eta)


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    line = f"[{'PASS' if ok and elapsed < budget else 'FAIL'}] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def bench():
    rd1 = RecourseData([[1.0, -1.0]], [1.0, 1.0])
    rd2 = RecourseData([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], [1.0] * 4)
    return {
        "rd1": rd1,
        "fan1": enumerate_dual_vertices(rd1),
        "box1": BoxDensityMeasure([0.0], [1.0]),
        "V1": RegionV([0.1], [0.9], 0.1),
        "rd2": rd2,
        "fan2": enumerate_dual_vertices(rd2),
        "box2": BoxDensityMeasure([0.0, 0.0], [1.0, 1.0]),
        "V2": RegionV([0.2, 0.2], [0.8, 0.8], 0.1),
        "nine": DiscreteMeasure((np.arange(9.0).reshape(-1, 1) + 1) / 10,
                                np.full(9, 1.0 / 9.0)),
    }


def interval_stage(h=0.0, H=None):
    return FirstStage(T=[[1.0]], h=[h], H=H, A_X=[[1.0], [-1.0]], b_X=[1.0, 0.0])


def test_criterion_01_duality_structure(bench):
    t0 = time.perf_counter()
    instances = [
        bench["rd1"],
        RecourseData([[1.0, -1.0]], [2.0, 1.0]),
        bench["rd2"],
        RecourseData([[1.0, 0.0, -1.0, 0.3, 0.5], [0.2, 1.0, 0.0, -1.0, 0.5]],
                     [1.0, 1.5, 1.0, 1.0, 2.0]),
        RecourseData([[1.0, 0.0, -1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, -1.0, 1.0, -1.0]],
                     [1.0, 1.0, 1.0, 1.0, 1.5, 1.5]),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for rd in instances:
        fan = enumerate_dual_vertices(rd)
        for _ in range(200):
            t = rng.normal(size=rd.s) * 2.0
            out = solve_lp(recourse_lp(rd, t))
            assert out.status == "optimal"
            worst = max(worst, abs(phi(fan, t) - out.value))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (recourse value = scenario LP on 5 instances x 200 points)",
            worst <= 1e-7, elapsed, 5.0, f"max |diff| = {worst:.2e}")


def _tie_free_point(fan, dm, spec, rng, lo, hi, margin=2e-3):
    from recourselab.risk import _g_value_and_grad

    while True:
        x = rng.uniform(lo, hi, size=fan.s)
        pts = dm.atoms - x
        vals = pts @ fan.vertices.T
        order = np.sort(vals, axis=1)
        if fan.n_vertices > 1 and np.min(order[:, -1] - order[:, -2]) < margin:
            continue
        gval = _g_value_and_grad(fan, dm, spec, x)[0]
        if np.isfinite(gval) and np.min(np.abs(order[:, -1] - gval)) < margin:
            continue
        return x


def test_criterion_02_gradient_formula(bench):
    t0 = time.perf_counter()
    fan1, fan2 = bench["fan1"], bench["fan2"]
    dm2d = discretize(bench["box2"], 64)
    cases = []
    for spec in (E, EE(0.25), DP):
        cases.append(("1d-box", fan1, bench["box1"], spec))
        cases.append(("1d-discrete", fan1, bench["nine"], spec))
        cases.append(("2d-grid", fan2, dm2d, spec))
    worst = 0.0
    rng = np.random.default_rng(202)
    for label, fan, measure, spec in cases:
        checked = 0
        while checked < 100:
            if isinstance(measure, DiscreteMeasure):
                x = _tie_free_point(fan, measure, spec, rng, 0.15, 0.85)
            else:
                x = rng.uniform(0.15, 0.85, size=fan.s)
            g = grad_q(fan, measure, spec, x)
            if np.linalg.norm(g) < 1e-2:
                continue
            fd = central_fd(lambda p: eval_q(fan, measure, spec, p), x)
            rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (gradient formula vs central differences, 9 cases x 100 points)",
            worst <= 1e-3, elapsed, 10.0, f"max rel err = {worst:.2e}")


def test_criterion_03_representation_formula(bench):
    t0 = time.perf_counter()
    fan1, fan2 = bench["fan1"], bench["fan2"]
    dm1 = discretize(bench["box1"], 2000)
    worst_1d = 0.0
    rng = np.random.default_rng(303)
    specs = (E, EE(0.25), DP)
    for i in range(50):
        spec = specs[i % 3]
        x = rng.uniform(0.2, 0.7, size=1)
        u = rng.uniform(-0.15, 0.2, size=1)
        lhs = representation_lhs(fan1, bench["box1"], spec, x, u)  # closed form
        rhs = representation_rhs(fan1, dm1, spec, x, u)  # atom membership
        worst_1d = max(worst_1d, abs(lhs - rhs))
    dm2 = discretize(bench["box2"], 1000)
    worst_2d = 0.0
    for i in range(50):
        spec = E if i % 2 == 0 else EE(0.25)
        x = rng.uniform(0.3, 0.6, size=2)
        u = rng.uniform(-0.1, 0.1, size=2)
        lhs = representation_lhs(fan2, dm2, spec, x, u)
        rhs = representation_rhs(fan2, dm2, spec, x, u)
        worst_2d = max(worst_2d, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst_1d <= 5e-3 and worst_2d <= 5e-3
    _report("criterion 3 (gradient-difference identity, two routes, 50+50 pairs)",
            ok, elapsed, 60.0, f"max |lhs-rhs|: 1d {worst_1d:.2e}, 2d {worst_2d:.2e}")


def test_criterion_04_expectation_modulus(bench):
    t0 = time.perf_counter()
    Q = make_objective(bench["fan1"], bench["box1"], E)
    rep = monotonicity_modulus(Q, bench["V1"], 500, seed=404)
    elapsed = time.perf_counter() - t0
    _report("criterion 4 (expectation modulus on the 1-D benchmark, 500 pairs)",
            1.9 <= rep.kappa_hat <= 2.1, elapsed, 10.0,
            f"kappa_hat = {rep.kappa_hat:.6f}, analytic 2")


def test_criterion_05_excess_target_sweep(bench):
    t0 = time.perf_counter()
    grid = [-1.0, 0.0, 0.2, 0.5, 1.0, 1.5]
    sweep = eta_threshold_sweep(bench["fan1"], bench["box1"], bench["V1"],
                                grid, 500, seed=505)
    kappas = dict(sweep.points)
    ks = [k for _, k in sweep.points]
    ok = (all(1.9 <= kappas[eta] <= 2.1 for eta in (-1.0, 0.0))
          and all(b <= a + 1e-9 for a, b in zip(ks, ks[1:]))
          and kappas[1.5] <= 1e-6)
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (expected-excess sweep: full modulus below 0, flat at 1.5)",
            ok, elapsed, 30.0,
            "kappa(eta): " + ", ".join(f"{e:g}->{k:.3f}" for e, k in sweep.points))


def test_criterion_06_semideviation_modulus(bench):
    t0 = time.perf_counter()
    Q = make_objective(bench["fan1"], bench["box1"], DP)
    rep = monotonicity_modulus(Q, bench["V1"], 500, seed=606)
    kappa = 0.95 * rep.kappa_hat
    mid = midpoint_test(Q, bench["V1"], kappa, 300, seed=607)
    # the semideviation is symmetric about 0.5 and strictly increasing in
    # the expectation there, so 0.5 minimizes it on the region
    growth = quadratic_growth_check(Q, [0.5], bench["V1"], kappa, 300, seed=608)
    elapsed = time.perf_counter() - t0
    ok = rep.kappa_hat > 0.1 and mid.ok and growth.ok
    _report("criterion 6 (semideviation modulus positive, cross-checked at 0.95x)",
            ok, elapsed, 30.0,
            f"kappa_hat = {rep.kappa_hat:.4f}, midpoint {mid.ok}, growth {growth.ok}")


def test_criterion_07_discrete_negative_control(bench):
    t0 = time.perf_counter()
    kappas = {}
    for label, spec in (("expectation", E), ("excess", EE(0.3)), ("semideviation", DP)):
        Q = make_objective(bench["fan1"], bench["nine"], spec)
        kappas[label] = monotonicity_modulus(Q, bench["V1"], 300, seed=707).kappa_hat
    elapsed = time.perf_counter() - t0
    _report("criterion 7 (no density, no modulus: all three functionals flat)",
            all(k <= 1e-6 for k in kappas.values()), elapsed, 10.0,
            ", ".join(f"{k}={v:.1e}" for k, v in kappas.items()))


def _regression_instances(bench):
    nine = bench["nine"]
    rd1 = bench["rd1"]
    five = DiscreteMeasure(np.array([[0.1], [0.3], [0.45], [0.6], [0.9]]),
                           np.array([0.3, 0.2, 0.2, 0.2, 0.1]))
    sq_stage = FirstStage(T=np.eye(2), h=[0.0, 0.0], H=None,
                          A_X=np.vstack([np.eye(2), -np.eye(2)]),
                          b_X=np.array([0.02, 0.02, 0.0, 0.0]))
    sq_measure = DiscreteMeasure(np.array([[0.01, 0.01], [0.02, 0.0], [0.0, 0.02]]),
                                 np.array([0.5, 0.25, 0.25]))
    H1 = [[1.0]]
    return [
        ("E median", TwoStageProblem(interval_stage(), rd1, nine, E), False),
        ("EE median", TwoStageProblem(interval_stage(), rd1, nine, EE(0.25)), False),
        ("D+ median", TwoStageProblem(interval_stage(), rd1, nine, DP), False),
        ("E quad", TwoStageProblem(interval_stage(H=H1), rd1, nine, E), True),
        ("EE quad", TwoStageProblem(interval_stage(H=H1), rd1, nine, EE(0.25)), True),
        ("D+ quad", TwoStageProblem(interval_stage(H=H1), rd1, nine, DP), True),
        ("E steep", TwoStageProblem(interval_stage(h=10.0), rd1, nine, E), False),
        ("E atom", TwoStageProblem(interval_stage(), rd1,
                                   DiscreteMeasure.point_mass([0.7]), E), False),
        ("EE floor", TwoStageProblem(interval_stage(), rd1, five, EE(-1.0)), False),
        ("E 2d", TwoStageProblem(sq_stage, bench["rd2"], sq_measure, E), False),
    ]


def test_criterion_08_solver_vs_oracle(bench):
    t0 = time.perf_counter()
    worst_gap = 0.0
    for label, problem, quad in _regression_instances(bench):
        opts = SolveOptions(tol=2e-4, max_iters=40000) if quad else SolveOptions()
        res = solve_two_stage(problem, opts)
        oracle = grid_search_oracle(problem, 1e-4)
        gap = abs(res.value - oracle.value)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3, f"{label}: solver {res.value} vs oracle {oracle.value}"

    # the semideviation epigraph mean must match per-scenario re-solves
    p_dp = TwoStageProblem(interval_stage(), bench["rd1"], bench["nine"], DP)
    lp = build_deterministic_equivalent(p_dp)
    out = solve_lp(lp)
    layout = det_equivalent_layout(p_dp)
    x = out.x[layout["x"][0]:layout["x"][1]]
    t_var = out.x[layout["t"]]
    resolved = [solve_lp(recourse_lp(p_dp.recourse, z - p_dp.first_stage.T @ x)).value
                for z in bench["nine"].atoms]
    t_err = abs(t_var - float(np.mean(resolved)))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-3 and t_err <= 1e-7
    _report("criterion 8 (solver vs grid oracle on 10 instances; epigraph mean exact)",
            ok, elapsed, 60.0, f"max value gap = {worst_gap:.2e}, t err = {t_err:.2e}")


def test_criterion_09_stability(bench):
    t0 = time.perf_counter()
    problem = TwoStageProblem(interval_stage(), bench["rd1"], bench["nine"], E)
    shift_plans = [ShiftPlan([eps]) for eps in (1e-3, 1e-2, 1e-1)]
    shift_records = run_stability_experiment(problem, shift_plans, [1, 2, 3])
    translation_ok = all(abs(r.w1 - pl.param) <= 1e-6 and abs(r.d_hausdorff - pl.param) <= 1e-6
                         for pl, r in zip(shift_plans, shift_records))

    jitter_plans, jitter_seeds = [], []
    for di, sigma in enumerate((1e-3, 1e-2, 1e-1)):
        for k in range(5):
            jitter_plans.append(JitterPlan(sigma))
            jitter_seeds.append(777000 + di * 100 + k)
    jitter_records = run_stability_experiment(problem, jitter_plans, jitter_seeds)
    slope = estimate_holder_exponent(jitter_records)
    ratios = np.array([r.ratio for r in jitter_records if r.ratio is not None])
    spread = float(ratios.max() / np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = translation_ok and slope >= 0.4 and spread <= 10.0
    _report("criterion 9 (translations move the solution exactly; jitter scaling)",
            ok, elapsed, 120.0,
            f"translation {translation_ok}, exponent {slope:.3f}, max/median ratio {spread:.2f}")


def test_criterion_10_metric_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for trial in range(50):
        s = 1 if trial % 2 == 0 else 2
        triple = []
        for _ in range(3):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.2, 1.0, size=k)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            triple.append(DiscreteMeasure(rng.normal(size=(k, s)).round(3), w))
        mu, nu, rho = triple
        d_ab, d_ba = wasserstein1(mu, nu), wasserstein1(nu, mu)
        assert d_ab >= 0.0
        assert d_ab == d_ba
        worst = max(worst, wasserstein1(mu, mu))
        tri = wasserstein1(mu, rho) - (d_ab + wasserstein1(nu, rho))
        worst = max(worst, tri)
    elapsed = time.perf_counter() - t0
    _report("criterion 10 (transport distance metric axioms, 50 triples)",
            worst <= 1e-9, elapsed, 10.0, f"worst slack = {worst:.2e}")
