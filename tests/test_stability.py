import numpy as np
import pytest

from recourselab.measures import JitterPlan, RegionV, ShiftPlan
from recourselab.risk import RiskSpec
from recourselab.solver import SolveOptions, TwoStageProblem
from recourselab.stability import (StabilityError, StabilityOptions, StabilityRecord,
                                   estimate_holder_exponent, hausdorff, records_to_csv,
                                   run_stability_experiment)


class TestHausdorff:
    def test_singletons(self):
        assert hausdorff([[0.0]], [[1.0]]) == pytest.approx(1.0)

    def test_asymmetric_sets(self):
        assert hausdorff([[0.0], [2.0]], [[1.0]]) == pytest.approx(1.0)

    def test_identity(self):
        pts = [[0.0, 1.0], [2.0, -1.0]]
        assert hausdorff(pts, pts) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(StabilityError):
            hausdorff(np.zeros((0, 1)), [[1.0]])


def _synthetic_record(i, w1, dh):
    return StabilityRecord(plan_id=i, kind="shift", param=w1, seed=0, w1=w1,
                           d_hausdorff=dh, ratio=dh / np.sqrt(w1) if w1 > 0 else None,
                           value_mu=0.0, value_nu=0.0,
                           x_star_mu=np.zeros(1), x_star_nu=np.zeros(1))


class TestExponent:
    def test_translations_have_slope_one(self):
        records = [_synthetic_record(i, w, w) for i, w in enumerate((1e-3, 1e-2, 1e-1))]
        assert estimate_holder_exponent(records) == pytest.approx(1.0, abs=1e-12)

    def test_square_root_law_recovered(self):
        records = [_synthetic_record(i, w, 3.0 * np.sqrt(w))
                   for i, w in enumerate((1e-4, 1e-3, 1e-2, 1e-1))]
        assert estimate_holder_exponent(records) == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_records_rejected(self):
        records = [_synthetic_record(0, 1e-2, 1e-2), _synthetic_record(1, 1e-1, 1e-1)]
        with pytest.raises(StabilityError):
            estimate_holder_exponent(records)

    def test_zero_distance_records_filtered(self):
        records = [_synthetic_record(i, w, w) for i, w in enumerate((1e-3, 1e-2, 1e-1))]
        records.append(_synthetic_record(3, 0.0, 0.0))
        assert estimate_holder_exponent(records) == pytest.approx(1.0, abs=1e-12)


class TestExperiment:
    def test_translation_moves_solution_exactly(self, median_problem):
        plans = [ShiftPlan([eps]) for eps in (1e-3, 1e-2, 1e-1)]
        records = run_stability_experiment(median_problem, plans, [1, 2, 3])
        for plan, rec in zip(plans, records):
            eps = plan.param
            assert abs(rec.w1 - eps) <= 1e-6
            assert abs(rec.d_hausdorff - eps) <= 1e-6
        assert estimate_holder_exponent(records) == pytest.approx(1.0, abs=1e-6)

    def test_zero_perturbation(self, median_problem):
        records = run_stability_experiment(median_problem, [ShiftPlan([0.0])], [4])
        assert records[0].w1 <= 1e-12
        assert records[0].d_hausdorff <= 1e-9
        assert records[0].ratio is None

    def test_region_condition_recorded(self, median_problem):
        region = RegionV([0.1], [0.9], 0.05)
        records = run_stability_experiment(median_problem, [ShiftPlan([0.01])], [5],
                                           region=region)
        assert records[0].in_region is True

    def test_jitter_ratios_bounded(self, median_problem):
        plans, seeds = [], []
        for sigma in (1e-3, 1e-2, 1e-1):
            for k in range(5):
                plans.append(JitterPlan(sigma))
                seeds.append(1000 + 17 * k + int(sigma * 1e4))
        records = run_stability_experiment(median_problem, plans, seeds)
        ratios = [r.ratio for r in records if r.ratio is not None]
        assert ratios
        assert max(ratios) / np.median(ratios) <= 10.0
        assert estimate_holder_exponent(records) >= 0.4

    def test_singleton_reproducibility(self, median_problem):
        a = run_stability_experiment(median_problem, [JitterPlan(0.05)], [7])
        b = run_stability_experiment(median_problem, [JitterPlan(0.05)], [7])
        assert a[0].x_star_nu.tobytes() == b[0].x_star_nu.tobytes()
        assert a[0].w1 == b[0].w1

    def test_certified_singleton_across_solver_paths(self, rd_1d, box_1d):
        # under a certified positive modulus the minimizer is unique, so
        # independent solve paths must land on the same point
        from recourselab.solver import FirstStage, grid_search_oracle, solve_two_stage

        fs = FirstStage(T=[[1.0]], h=[0.0], H=None, A_X=[[1.0], [-1.0]], b_X=[1.0, 0.0])
        p = TwoStageProblem(fs, rd_1d, box_1d, RiskSpec.expectation())
        a = solve_two_stage(p, SolveOptions(tol=1e-8))
        b = grid_search_oracle(p, 1e-4)
        assert np.linalg.norm(a.x_star - b.x_star) <= 1e-5
        assert np.linalg.norm(a.x_star - 0.5) <= 1e-5

    def test_oracle_set_mode(self, median_problem):
        opts = StabilityOptions(argmin_sets="oracle", oracle_step=1e-3)
        records = run_stability_experiment(median_problem, [ShiftPlan([0.01])], [9],
                                           options=opts)
        assert abs(records[0].d_hausdorff - 0.01) <= 2e-3

    def test_seed_broadcast_from_int(self, median_problem):
        a = run_stability_experiment(median_problem, [JitterPlan(0.02)] * 2, 99)
        b = run_stability_experiment(median_problem, [JitterPlan(0.02)] * 2, 99)
        assert a[0].seed == b[0].seed
        assert a[0].seed != a[1].seed

    def test_mismatched_seed_count_rejected(self, median_problem):
        with pytest.raises(StabilityError):
            run_stability_experiment(median_problem, [ShiftPlan([0.1])], [1, 2])


class TestCsv:
    def test_header_and_determinism(self, median_problem):
        plans = [ShiftPlan([0.01]), JitterPlan(0.02)]
        records = run_stability_experiment(median_problem, plans, [1, 2])
        text = records_to_csv(records)
        header = text.splitlines()[0].split(",")
        assert header[:9] == ["plan_id", "kind", "param", "seed", "w1", "d_hausdorff",
                              "ratio", "value_mu", "value_nu"]
        assert "x_star_mu_0" in header and "x_star_nu_0" in header
        again = records_to_csv(run_stability_experiment(median_problem, plans, [1, 2]))
        assert text == again

    def test_empty_rejected(self):
        with pytest.raises(StabilityError):
            records_to_csv([])
