import numpy as np
import pytest

from recourselab.measures import BoxDensityMeasure, DiscreteMeasure, discretize
from recourselab.risk import (RiskError, RiskSpec, breakpoint_profile,
                              cell_measures, eval_q, eval_q_many, grad_q,
                              representation_lhs, representation_rhs)

from .oracles import central_fd, quad_risk_1d

E = RiskSpec.expectation()
DP = RiskSpec.upper_semideviation()


def EE(eta):
    return RiskSpec.expected_excess(eta)


class TestEvalQ:
    def test_expectation_closed_form(self, fan_1d, box_1d):
        # integral of |z - 0.5| over [0, 1]
        assert eval_q(fan_1d, box_1d, E, [0.5]) == pytest.approx(0.25, abs=1e-12)

    def test_expectation_quadratic_in_x(self, fan_1d, box_1d):
        for x in (0.1, 0.37, 0.62, 0.9):
            assert eval_q(fan_1d, box_1d, E, [x]) == pytest.approx(x * x - x + 0.5, abs=1e-12)

    def test_expected_excess_against_quadrature(self, fan_1d, box_1d):
        val = eval_q(fan_1d, box_1d, EE(0.25), [0.5])
        assert val == pytest.approx(0.3125, abs=1e-12)
        ref = quad_risk_1d(-1.0, 1.0, 0.0, 1.0, 0.5, 0.25)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_excess_below_floor_reduces_to_expectation(self, fan_1d, box_1d):
        assert eval_q(fan_1d, box_1d, EE(-3.0), [0.4]) == pytest.approx(
            eval_q(fan_1d, box_1d, E, [0.4]), abs=1e-12)

    def test_semideviation_single_atom_is_value(self, fan_1d):
        mu = DiscreteMeasure.point_mass([0.7])
        for x in (0.1, 0.4, 0.9):
            # one atom: the mean equals the value, so the outer max changes nothing
            assert eval_q(fan_1d, mu, DP, [x]) == pytest.approx(abs(0.7 - x), abs=1e-12)

    def test_dominances(self, fan_1d, box_1d, nine_atoms):
        rng = np.random.default_rng(2)
        for measure in (box_1d, nine_atoms):
            for _ in range(20):
                x = rng.uniform(0.0, 1.0, size=1)
                qe = eval_q(fan_1d, measure, E, x)
                qdp = eval_q(fan_1d, measure, DP, x)
                qee = eval_q(fan_1d, measure, EE(0.3), x)
                assert qdp >= qe - 1e-12
                assert qee >= 0.3 - 1e-12
                assert qee >= qe - 1e-12

    def test_monotone_in_target(self, fan_1d, box_1d):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, size=1)
            e1, e2 = sorted(rng.uniform(-1.0, 2.0, size=2))
            assert eval_q(fan_1d, box_1d, EE(e1), x) <= eval_q(fan_1d, box_1d, EE(e2), x) + 1e-12

    def test_box_2d_needs_resolution(self, fan_2d, box_2d):
        with pytest.raises(RiskError):
            eval_q(fan_2d, box_2d, E, [0.5, 0.5])

    def test_asymmetric_slopes_match_quadrature(self):
        from recourselab.geometry import RecourseData, enumerate_dual_vertices

        fan = enumerate_dual_vertices(RecourseData([[1.0, -1.0]], [2.0, 1.0]))
        box = BoxDensityMeasure([-0.5], [1.5])
        rng = np.random.default_rng(9)
        for _ in range(12):
            x = float(rng.uniform(-0.3, 1.3))
            for spec, gval in ((E, -np.inf), (EE(0.3), 0.3), (EE(-0.2), -0.2)):
                got = eval_q(fan, box, spec, [x])
                ref = quad_risk_1d(-1.0, 2.0, -0.5, 1.5, x, gval)
                assert got == pytest.approx(ref, abs=1e-8)
            for spec in (E, EE(0.3), DP):
                g = grad_q(fan, box, spec, [x])
                fd = central_fd(lambda p: eval_q(fan, box, spec, p), np.array([x]))
                assert np.abs(g - fd).max() <= 1e-8

    def test_box_2d_quadrature_matches_separable_form(self, fan_2d, box_2d):
        # the L1 recourse over the unit square splits per coordinate
        for x in ([0.5, 0.5], [0.3, 0.6]):
            want = sum(v * v - v + 0.5 for v in x)
            got = eval_q(fan_2d, box_2d, E, x, resolution=400)
            assert got == pytest.approx(want, abs=5e-6)

    def test_convexity_along_segments(self, fan_1d, box_1d, nine_atoms):
        rng = np.random.default_rng(8)
        for spec in (E, EE(0.25), DP):
            for measure in (box_1d, nine_atoms):
                for _ in range(34):
                    a = rng.uniform(0.0, 1.0, size=1)
                    b = rng.uniform(0.0, 1.0, size=1)
                    lam = rng.uniform()
                    mid = eval_q(fan_1d, measure, spec, lam * a + (1 - lam) * b)
                    bound = (lam * eval_q(fan_1d, measure, spec, a)
                             + (1 - lam) * eval_q(fan_1d, measure, spec, b))
                    assert mid <= bound + 1e-9

    def test_eval_q_many_matches_pointwise(self, fan_2d, box_2d):
        # bit for bit: the grid oracle and the solvers must rank points alike
        mu = DiscreteMeasure([[0.2, 0.1], [0.7, 0.9], [0.4, 0.5]], [0.3, 0.3, 0.4])
        pts = np.random.default_rng(15).uniform(-0.2, 1.2, size=(200, 2))
        for measure, resolution in ((mu, None), (box_2d, 30)):
            for spec in (E, EE(0.4), DP):
                batch = eval_q_many(fan_2d, measure, spec, pts, resolution)
                single = [eval_q(fan_2d, measure, spec, p, resolution) for p in pts]
                assert batch.tolist() == single


def test_box_discretized_once_per_objective(monkeypatch, fan_2d, box_2d, rd_2d):
    from recourselab import risk
    from recourselab.solver import FirstStage, SolveOptions, TwoStageProblem, solve_two_stage

    calls = []
    original = risk.discretize
    monkeypatch.setattr(risk, "discretize", lambda *a: calls.append(a) or original(*a))
    Q = risk.make_objective(fan_2d, box_2d, DP, resolution=20)
    for x in np.random.default_rng(16).uniform(0.2, 0.8, size=(10, 2)):
        Q.value(x)
        Q.grad(x)
        Q.value_and_grad(x)
    assert len(calls) == 1

    calls.clear()
    stage = FirstStage(T=np.eye(2), h=[0.1, -0.2], H=np.eye(2),
                       A_X=np.vstack([np.eye(2), -np.eye(2)]), b_X=[0.8, 0.8, -0.2, -0.2])
    res = solve_two_stage(TwoStageProblem(stage, rd_2d, box_2d, DP),
                          SolveOptions(max_iters=30, resolution=20))
    assert res.path == "cutting-plane" and res.log["iterations"] > 1
    assert len(calls) == 1


class TestCellsAndGradient:
    def test_cell_masses_midpoint_grid(self, fan_1d, box_1d):
        dm = discretize(box_1d, 100)
        cells = cell_measures(fan_1d, dm, (-np.inf, np.zeros(1)), [0.25])
        minus = int(np.flatnonzero(fan_1d.vertices.ravel() == -1.0)[0])
        plus = int(np.flatnonzero(fan_1d.vertices.ravel() == 1.0)[0])
        assert cells.pi0 == 0.0
        assert cells.pi[minus] == pytest.approx(0.25, abs=0.01)
        assert cells.pi[plus] == pytest.approx(0.75, abs=0.01)

    def test_dominating_target_collects_all_mass(self, fan_1d, nine_atoms):
        cells = cell_measures(fan_1d, nine_atoms, (10.0, np.zeros(1)), [0.5])
        assert cells.pi0 == pytest.approx(1.0, abs=1e-12)

    def test_masses_sum_to_one(self, fan_2d):
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure(rng.normal(size=(40, 2)), np.full(40, 1.0 / 40))
        for g in (-np.inf, 0.3):
            cells = cell_measures(fan_2d, mu, (g, np.zeros(2)), [0.1, -0.2])
            assert cells.total() == pytest.approx(1.0, abs=1e-12)

    def test_mass_split_invariant_to_tie_tolerance(self, fan_1d):
        # no atom sits on a boundary, so tie handling cannot matter
        mu = DiscreteMeasure([[0.11], [0.52], [0.93]], [0.25, 0.5, 0.25])
        a = cell_measures(fan_1d, mu, (-np.inf, np.zeros(1)), [0.3])
        assert a.tie_atoms == 0

    def test_grad_closed_form(self, fan_1d, box_1d):
        assert grad_q(fan_1d, box_1d, E, [0.5]) == pytest.approx([0.0], abs=1e-12)
        assert grad_q(fan_1d, box_1d, E, [0.25]) == pytest.approx([-0.5], abs=1e-12)

    def test_grad_single_atom_inside_cone(self, fan_1d):
        mu = DiscreteMeasure.point_mass([0.9])
        # the atom lies strictly in the cone of the +1 vertex
        assert grad_q(fan_1d, mu, E, [0.2]) == pytest.approx([-1.0])
        assert grad_q(fan_1d, mu, E, [0.95]) == pytest.approx([1.0])

    @pytest.mark.parametrize("spec", [E, EE(0.25), DP])
    def test_grad_matches_central_differences_box(self, fan_1d, box_1d, spec):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 30:
            x = rng.uniform(0.15, 0.85, size=1)
            g = grad_q(fan_1d, box_1d, spec, x)
            fd = central_fd(lambda p: eval_q(fan_1d, box_1d, spec, p), x)
            if np.linalg.norm(g) < 1e-6:
                continue
            assert np.linalg.norm(fd - g) <= 1e-3 * np.linalg.norm(g)
            checked += 1

    @pytest.mark.parametrize("spec", [E, EE(0.3), DP])
    def test_grad_matches_central_differences_discrete_2d(self, fan_2d, spec):
        rng = np.random.default_rng(6)
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, size=(25, 2)),
                             np.full(25, 1.0 / 25))
        checked = 0
        while checked < 20:
            x = rng.uniform(0.2, 0.8, size=2)
            if not _tie_free(fan_2d, mu, spec, x, margin=1e-3):
                continue
            g = grad_q(fan_2d, mu, spec, x)
            fd = central_fd(lambda p: eval_q(fan_2d, mu, spec, p), x)
            if np.linalg.norm(g) < 1e-8:
                assert np.linalg.norm(fd) < 1e-8
            else:
                assert np.linalg.norm(fd - g) <= 1e-3 * np.linalg.norm(g)
            checked += 1


def _tie_free(fan, dm, spec, x, margin):
    """No atom near a cone boundary or near the g = phi switch at x."""
    from recourselab.risk import _g_value_and_grad

    pts = dm.atoms - np.asarray(x)
    vals = pts @ fan.vertices.T
    order = np.sort(vals, axis=1)
    if np.min(order[:, -1] - order[:, -2]) < margin:
        return False
    gval = _g_value_and_grad(fan, dm, spec, np.asarray(x))[0]
    if np.isfinite(gval) and np.min(np.abs(order[:, -1] - gval)) < margin:
        return False
    return True


class TestRepresentation:
    def test_lhs_closed_form(self, fan_1d, box_1d):
        assert representation_lhs(fan_1d, box_1d, E, [0.4], [0.2]) == pytest.approx(0.08, abs=1e-12)

    def test_zero_direction(self, fan_1d, box_1d, nine_atoms):
        assert representation_lhs(fan_1d, box_1d, E, [0.4], [0.0]) == 0.0
        assert representation_rhs(fan_1d, nine_atoms, E, [0.4], [0.0]) == 0.0

    def test_lhs_nonnegative_by_convexity(self, fan_1d, box_1d):
        rng = np.random.default_rng(12)
        for spec in (E, EE(0.25), DP):
            for _ in range(20):
                x = rng.uniform(0.1, 0.7, size=1)
                u = rng.uniform(-0.1, 0.2, size=1)
                assert representation_lhs(fan_1d, box_1d, spec, x, u) >= -1e-12

    def test_rhs_matches_lhs_discretized(self, fan_1d, box_1d):
        dm = discretize(box_1d, 2000)
        rhs = representation_rhs(fan_1d, dm, E, [0.4], [0.2])
        assert rhs == pytest.approx(0.08, abs=0.002)

    def test_same_cell_atom_contributes_nothing(self, fan_1d):
        # the atom stays strictly inside the +1 cone before and after the step
        mu = DiscreteMeasure.point_mass([5.0])
        assert representation_rhs(fan_1d, mu, EE(-1.0), [0.1], [0.3]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("spec", [E, EE(0.2), DP])
    def test_two_routes_agree_exactly_on_shared_atoms(self, fan_1d, box_1d, spec):
        dm = discretize(box_1d, 500)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.uniform(0.2, 0.6, size=1)
            u = rng.uniform(-0.15, 0.15, size=1)
            lhs = representation_lhs(fan_1d, dm, spec, x, u)
            rhs = representation_rhs(fan_1d, dm, spec, x, u)
            assert rhs == pytest.approx(lhs, abs=1e-9)

    def test_two_routes_agree_2d(self, fan_2d, box_2d):
        dm = discretize(box_2d, 120)
        rng = np.random.default_rng(14)
        for spec in (E, EE(0.3)):
            for _ in range(5):
                x = rng.uniform(0.3, 0.6, size=2)
                u = rng.uniform(-0.1, 0.1, size=2)
                lhs = representation_lhs(fan_2d, dm, spec, x, u)
                rhs = representation_rhs(fan_2d, dm, spec, x, u)
                assert rhs == pytest.approx(lhs, abs=1e-9)


class TestBreakpointProfile:
    def test_cdf_is_a_distribution(self, fan_1d, nine_atoms):
        prof = breakpoint_profile(fan_1d, nine_atoms, E, [0.4], [0.2])
        taus = np.linspace(-2.0, 2.0, 101)
        vals = [prof.cdf(t) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert prof.cdf(1e9) == pytest.approx(1.0, abs=1e-12)
        bp = prof.breakpoints
        # right continuity: value at a breakpoint includes its jump
        for t in bp:
            assert prof.cdf(t) >= prof.cdf(t - 1e-9) - 1e-15

    def test_mean_identity_with_gradient(self, fan_1d, nine_atoms):
        # the profile's mean is the directional derivative behind the lhs
        x, u = np.array([0.4]), np.array([0.2])
        prof_x = breakpoint_profile(fan_1d, nine_atoms, E, x, u)
        prof_xu = breakpoint_profile(fan_1d, nine_atoms, E, x + u, u)
        lhs = representation_lhs(fan_1d, nine_atoms, E, x, u)
        assert prof_xu.mean() - prof_x.mean() == pytest.approx(lhs, abs=1e-12)


def test_spec_validation():
    with pytest.raises(RiskError):
        RiskSpec("expected_excess")
    with pytest.raises(RiskError):
        RiskSpec("expectation", eta=1.0)
    with pytest.raises(RiskError):
        RiskSpec("cvar")


def test_eta_zero_with_origin_vertex_warns():
    from recourselab.geometry import RecourseData, enumerate_dual_vertices

    fan0 = enumerate_dual_vertices(RecourseData([[1.0, -1.0]], [0.0, 0.0]))
    mu = DiscreteMeasure.point_mass([0.3])
    with pytest.warns(RuntimeWarning):
        eval_q(fan0, mu, EE(0.0), [0.1])
