import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourselab import lp as lp_module
from recourselab.lp import (DEFAULT_OPTIONS, LinearProgram, LpInputError, LpNumericalError,
                            SimplexOptions, _block_inverse, _crash, _Tableau, check_feasible,
                            dual_objective, solve_lp, verify_optimality)
from recourselab.measures import DiscreteMeasure
from recourselab.risk import RiskSpec
from recourselab.solver import (FirstStage, RecourseData, TwoStageProblem,
                                build_deterministic_equivalent)

from .oracles import scipy_lp


def test_equality_row_example():
    lp = LinearProgram.minimize([1.0, 1.0], [[1.0, -1.0]], ["=="], [0.7])
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.7, abs=1e-9)
    assert out.x == pytest.approx([0.7, 0.0], abs=1e-9)


def test_infeasible_nonnegative_equality():
    out = solve_lp(LinearProgram.minimize([1.0], [[1.0]], ["=="], [-1.0]))
    assert out.status == "infeasible"


def test_unbounded_ray():
    out = solve_lp(LinearProgram.maximize([1.0], np.zeros((0, 1)), [], []))
    assert out.status == "unbounded"


def test_check_feasible_examples():
    assert check_feasible([[1.0, -1.0]], ["=="], [5.0])
    assert not check_feasible([[1.0]], ["=="], [-1.0])
    # 2x2 system solves to y1 = 2 which breaks the upper bound
    assert not check_feasible([[1.0, 1.0], [1.0, -1.0]], ["==", "=="], [1.0, 3.0],
                              lb=[0.0, 0.0], ub=[1.0, 1.0])


def test_free_variable_and_max_sense():
    lp = LinearProgram.maximize([1.0], [[1.0]], ["<="], [4.0],
                                lb=[-np.inf], ub=[np.inf])
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(4.0)
    assert dual_objective(lp, out) == pytest.approx(4.0)


def test_input_validation():
    with pytest.raises(LpInputError):
        LinearProgram.minimize([1.0, 2.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(LpInputError):
        LinearProgram.minimize([np.nan], [[1.0]], ["<="], [1.0])
    with pytest.raises(LpInputError):
        LinearProgram.minimize([1.0], [[1.0]], ["<?"], [1.0])


def _random_solvable(rng):
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    A = rng.normal(size=(m, n)).round(3)
    x0 = rng.uniform(0.0, 2.0, size=n)
    senses = [str(rng.choice(["<=", "==", ">="])) for _ in range(m)]
    b = A @ x0
    for i, s in enumerate(senses):
        if s == "<=":
            b[i] += rng.uniform(0.0, 1.0)
        elif s == ">=":
            b[i] -= rng.uniform(0.0, 1.0)
    c = rng.normal(size=n).round(3)
    return LinearProgram.minimize(c, A, senses, b, lb=np.zeros(n), ub=np.full(n, 10.0))


def test_strong_duality_on_random_solvable_lps():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        lp = _random_solvable(rng)
        out = solve_lp(lp)
        assert out.status == "optimal"
        assert abs(out.value - dual_objective(lp, out)) <= 1e-7 * (1.0 + abs(out.value))
        assert verify_optimality(lp, out) <= 1e-8
        status, ref, _ = scipy_lp(lp.c, lp.A, lp.senses, lp.b, [(0.0, 10.0)] * lp.n)
        assert status == "optimal"
        assert out.value == pytest.approx(ref, abs=1e-7, rel=1e-7)


def test_status_classification_matches_reference():
    rng = np.random.default_rng(99)
    agree = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n)).round(2)
        b = rng.normal(size=m).round(2)
        senses = [str(rng.choice(["<=", "==", ">="])) for _ in range(m)]
        c = rng.normal(size=n).round(2)
        lp = LinearProgram.minimize(c, A, senses, b)
        out = solve_lp(lp)
        status, ref, _ = scipy_lp(c, A, senses, b, [(0.0, None)] * n)
        assert out.status == status
        agree[status] += 1
        if status == "optimal":
            assert out.value == pytest.approx(ref, abs=1e-7, rel=1e-7)
    assert min(agree.values()) > 0  # the sample hit every status


def test_feasibility_agrees_with_solver_status():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n)).round(2)
        b = rng.normal(size=m).round(2)
        senses = [str(rng.choice(["<=", "==", ">="])) for _ in range(m)]
        lp = LinearProgram.minimize(np.zeros(n), A, senses, b)
        out = solve_lp(lp)
        assert check_feasible(A, senses, b) == (out.status == "optimal")


def test_basis_indices_distinct_and_valid():
    lp = LinearProgram.minimize([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [">="], [1.0])
    out = solve_lp(lp)
    assert len(set(out.basis)) == len(out.basis)
    assert all(0 <= j < lp.n for j in out.basis)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_determinism_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    lp = _random_solvable(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status
    assert a.value == b.value
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.basis == b.basis


def test_degenerate_redundant_rows():
    # duplicated equality rows: phase 1 must pin the redundant artificial
    lp = LinearProgram.minimize([1.0, 1.0],
                                [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                                ["==", "==", "=="], [1.0, 1.0, 0.0])
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_zero_rhs_ge_rows_match_reference():
    # >= rows with b = 0 start on their slack, negated; their duals come back
    # through the row sign, which verify_optimality checks
    rng = np.random.default_rng(20261018)
    flipped = 0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n)).round(3)
        x0 = rng.uniform(0.0, 2.0, size=n)
        senses = [str(rng.choice(["<=", "==", ">=", ">="])) for _ in range(m)]
        b = A @ x0
        for i, sense in enumerate(senses):
            if sense == ">=":
                A[i] *= np.sign(b[i]) or 1.0  # x0 stays feasible for A_i x >= 0
                b[i] = 0.0
                flipped += 1
            elif sense == "<=":
                b[i] += rng.choice([0.0, rng.uniform(0.0, 1.0)])
        lp = LinearProgram.minimize(rng.normal(size=n).round(3), A, senses, b,
                                    lb=np.zeros(n), ub=np.full(n, 10.0))
        _assert_matches_reference(lp, solve_lp(lp), 1e-7)
    assert flipped > 100


def test_zero_rhs_ge_rows_need_no_phase_one():
    # x1 + x2 <= 4 inside the cone 2 x2 <= x1 <= 3 x2: only the slack basis
    lp = LinearProgram.minimize([-1.0, -2.0], [[1.0, 1.0], [1.0, -2.0], [-1.0, 3.0]],
                                ["<=", ">=", ">="], [4.0, 0.0, 0.0])
    runs = []
    original = _Tableau.run

    def spy(self, cost, eligible, is_artificial=None):
        runs.append(is_artificial is not None and bool(is_artificial.any()))
        return original(self, cost, eligible, is_artificial)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "run", spy)
        out = solve_lp(lp)
    assert runs == [False]  # one run, phase 2, with no artificial column
    assert out.status == "optimal"
    assert out.x == pytest.approx([8.0 / 3.0, 4.0 / 3.0], abs=1e-12)
    assert out.value == pytest.approx(-16.0 / 3.0, abs=1e-12)
    assert verify_optimality(lp, out) <= 1e-12


def _block_angular(rng):
    """Shared free columns and blocks of bounded >= 0 columns, as in a
    scenario LP: per block, == rows over [T_k | W_k] with b of either sign,
    then a >= row with b > 0 and a <= row with b < 0 over the block's columns.
    W_k and the block rows are sparse and random. A random point satisfies
    every row, so the LP is feasible, and the stacked T_k pin the free
    columns, so it is bounded."""
    n0 = int(rng.integers(1, 3))
    blocks = int(rng.integers(1, 5))
    widths = rng.integers(2, 5, size=blocks)
    n = n0 + int(widths.sum())
    x0 = np.concatenate([rng.normal(size=n0), rng.uniform(0.0, 2.0, size=n - n0)])
    rows, senses, b = [], [], []
    start = n0
    for width in widths:
        for sense in ["=="] * -(-n0 // blocks) + [">=", "<="]:
            row = np.zeros(n)
            if sense == "==":
                row[:n0] = rng.normal(size=n0).round(2)
            row[start: start + width] = rng.normal(size=width).round(2) * (rng.random(width) < 0.5)
            value = row @ x0
            if sense == ">=" and value < 0.0 or sense == "<=" and value > 0.0:
                row, value = -row, -value
            rows.append(row)
            senses.append(sense)
            b.append(value if sense == "==" else value * rng.uniform(0.2, 0.9))
        start += width
    lb = np.concatenate([np.full(n0, -np.inf), np.zeros(n - n0)])
    ub = np.concatenate([np.full(n0, np.inf), x0[n0:] + rng.uniform(0.5, 2.0, size=n - n0)])
    return LinearProgram.minimize(rng.normal(size=n).round(3), np.array(rows), senses,
                                  np.array(b), lb=lb, ub=ub)


def _phase_one_spy(mp):
    """Patch _Tableau.run to record, per run, whether an artificial column is
    basic when it starts."""
    runs = []
    original = _Tableau.run

    def spy(self, cost, eligible, is_artificial=None):
        runs.append(is_artificial is not None and bool(is_artificial[self.basis].any()))
        return original(self, cost, eligible, is_artificial)

    mp.setattr(_Tableau, "run", spy)
    return runs


def test_block_angular_lps_match_reference():
    # a few of these LPs start on the crash basis; most find no triangular
    # basis by its rule and go through phase 1
    rng = np.random.default_rng(20261019)
    crashed = 0
    for _ in range(100):
        lp = _block_angular(rng)
        with pytest.MonkeyPatch.context() as mp:
            runs = _phase_one_spy(mp)
            out = solve_lp(lp)
        crashed += not runs[0]
        _assert_matches_reference(lp, out, 1e-7)
    assert 0 < crashed < 100


# Beale's LP: Dantzig pricing with lowest-index ties cycles on it forever
BEALE = dict(c=[-0.75, 20.0, -0.5, 6.0],
             A=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
             senses=["<="] * 3, b=[0.0, 0.0, 1.0])


def test_beale_cycling_lp_reaches_optimum():
    out = solve_lp(LinearProgram.minimize(**BEALE))
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.25, abs=1e-12)
    assert out.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_pure_dantzig_cycles_on_beale(monkeypatch):
    # without the Bland fallback the same LP never leaves its degenerate vertex
    monkeypatch.setattr(lp_module, "DEGENERATE_STREAK", 10**6)
    with pytest.raises(LpNumericalError, match="iteration cap"):
        solve_lp(LinearProgram.minimize(**BEALE), SimplexOptions(max_iters=2000))


# streak 0 prices every pivot by Bland's rule, the anti-cycling fallback; the
# tests above run with the default streak, that is with Dantzig pricing
@pytest.mark.parametrize("check", [test_strong_duality_on_random_solvable_lps,
                                   test_status_classification_matches_reference,
                                   test_determinism_bit_for_bit,
                                   test_zero_rhs_ge_rows_match_reference,
                                   test_zero_rhs_ge_rows_need_no_phase_one,
                                   test_block_angular_lps_match_reference],
                         ids=["strong-duality-bland", "status-bland", "determinism-bland",
                              "zero-rhs-ge-bland", "no-phase-one-bland", "block-angular-bland"])
def test_reference_checks_under_bland_pricing(check, monkeypatch):
    monkeypatch.setattr(lp_module, "DEGENERATE_STREAK", 0)
    check()


def _assert_matches_reference(lp, out, rel):
    assert out.status == "optimal"
    assert verify_optimality(lp, out) <= 1e-8
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lp.lb, lp.ub)]
    status, ref, _ = scipy_lp(lp.c, lp.A, lp.senses, lp.b, bounds)
    assert status == "optimal"
    assert out.value == pytest.approx(ref, abs=rel, rel=rel)


def test_refactor_every_pivot_on_random_lps():
    # every pivot rebuilds the inverse, with structural columns in the basis
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        lp = _random_solvable(rng)
        _assert_matches_reference(lp, solve_lp(lp, SimplexOptions(refactor_every=1)), 1e-7)


def _det_eq(risk, s=1, atoms=120, seed=7, lo=0.0):
    """Det-eq LP over the box [lo, 1]^s with the L1 recourse W = [I, -I]."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.8, 1.2, size=2 * s)
    eye = np.eye(s)
    stage = FirstStage(T=eye, h=rng.uniform(-0.1, 0.1, size=s), H=None,
                       A_X=np.vstack([eye, -eye]), b_X=np.r_[np.ones(s), np.zeros(s) - lo])
    weights = rng.dirichlet(np.full(atoms, 5.0))
    mu = DiscreteMeasure(rng.uniform(size=(atoms, s)), weights / weights.sum())
    problem = TwoStageProblem(stage, RecourseData(np.hstack([eye, -eye]), q), mu, risk)
    return build_deterministic_equivalent(problem)


def _semideviation_det_eq(seed=7, atoms=120):
    return _det_eq(RiskSpec.upper_semideviation(), atoms=atoms, seed=seed)


def test_refactor_every_pivot_on_det_equivalent_lp():
    lp = _semideviation_det_eq()
    assert lp.m == 243
    out = solve_lp(lp, SimplexOptions(refactor_every=1))
    _assert_matches_reference(lp, out, 1e-9)
    assert out.value == pytest.approx(solve_lp(lp).value, rel=1e-9)


# every det-eq shape the crash basis covers: one y column per scenario row,
# t on the mean row, w_k on the excess rows of b > 0 (eta < 0) or v_k / w_k
# on the excess rows whose slack it would leave negative, and x on a first
# stage row x >= lo > 0, after which some scenario rows need a y- column
DET_EQ_CASES = {
    "dp-1d": (RiskSpec.upper_semideviation(), 1, 120),
    "ee-1d-negative-eta": (RiskSpec.expected_excess(-0.3), 1, 60),
    "ee-2d": (RiskSpec.expected_excess(0.45), 2, 40),
    "e-2d": (RiskSpec.expectation(), 2, 30),
    "dp-1d-lo": (RiskSpec.upper_semideviation(), 1, 60, 11, 0.3),
}


@pytest.mark.parametrize("case", DET_EQ_CASES.values(), ids=DET_EQ_CASES.keys())
def test_det_equivalent_lps_start_on_the_crash_basis(case, monkeypatch):
    lp = _det_eq(*case)
    runs = _phase_one_spy(monkeypatch)
    out = solve_lp(lp)
    assert runs == [False]  # one run, phase 2, from a basis with no artificial
    _assert_matches_reference(lp, out, 1e-9)


def _singular_crash(A, b, nhat, start, is_artificial):
    return [0] * len(start)


def _crash_without_repairs(A, b, nhat, start, is_artificial):
    """The crash basis with the slacks put back on the rows it repaired, so
    those slacks are basic at a negative value."""
    basis = _crash(A, b, nhat, start, is_artificial)
    repaired = [i for i, k in enumerate(start) if not is_artificial[k] and basis[i] != k]
    assert repaired
    for i in repaired:
        basis[i] = start[i]
    return basis


@pytest.mark.parametrize("bad_crash", [_singular_crash, _crash_without_repairs],
                         ids=["singular", "negative-basic-value"])
def test_refused_crash_basis_falls_back_to_phase_one(bad_crash, monkeypatch):
    lp = _det_eq(RiskSpec.upper_semideviation(), atoms=40)
    monkeypatch.setattr(lp_module, "_crash", bad_crash)
    runs = _phase_one_spy(monkeypatch)
    out = solve_lp(lp)
    assert runs == [True, False]  # phase 1 from the slack-and-artificial start, then phase 2
    _assert_matches_reference(lp, out, 1e-9)


def _mixed_basis(rng, m, k):
    """m x m basis: k dense columns, the rest single nonzeros (+-1 or scaled)
    on distinct rows, columns shuffled."""
    B = np.zeros((m, m))
    rows = rng.permutation(m)
    dense_rows = rows[:k]
    B[:, :k] = rng.normal(size=(m, k))
    B[dense_rows, np.arange(k)] += 4.0 * np.sqrt(m)  # keeps the dense block well conditioned
    singles = rows[k:]
    B[singles, np.arange(k, m)] = rng.choice([-1.0, 1.0, 2.5, -0.4], size=m - k)
    return B[:, rng.permutation(m)]


@pytest.mark.parametrize("m", [1, 5, 40])
def test_block_inverse_matches_dense_inverse(m):
    rng = np.random.default_rng(m)
    for k in range(m + 1):
        B = _mixed_basis(rng, m, k)
        np.testing.assert_allclose(_block_inverse(B), np.linalg.inv(B), rtol=0.0, atol=1e-12)


def test_singular_basis_raises():
    B = _mixed_basis(np.random.default_rng(3), 6, 2)
    # two single-nonzero columns on one row
    singles = np.flatnonzero(np.count_nonzero(B, axis=0) == 1)
    B[:, singles[0]] = B[:, singles[1]]
    with pytest.raises(LpNumericalError):
        _block_inverse(B)
    with pytest.raises(LpNumericalError):
        _Tableau(B, np.ones(6), list(range(6)), DEFAULT_OPTIONS)
    # a rank-deficient block of dense columns
    A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0], [3.0, 6.0, 0.0]])
    with pytest.raises(LpNumericalError):
        _Tableau(A, np.ones(3), [0, 1, 2], DEFAULT_OPTIONS)


def _perturbed(inverse):
    def perturbed(B):
        return inverse(B) + 1e-3
    return perturbed


def test_refactor_retries_with_dense_inverse(monkeypatch):
    lps = [_random_solvable(np.random.default_rng(seed)) for seed in range(20)]
    opts = SimplexOptions(refactor_every=1)
    expected = [solve_lp(lp, opts).value for lp in lps]
    monkeypatch.setattr(lp_module, "_block_inverse", _perturbed(_block_inverse))
    for lp, value in zip(lps, expected):
        out = solve_lp(lp, opts)
        assert out.status == "optimal"
        assert out.value == pytest.approx(value, rel=1e-9, abs=1e-9)
    # the dense retry fails as well: the residual check still raises
    monkeypatch.setattr(np.linalg, "inv", _perturbed(np.linalg.inv))
    with pytest.raises(LpNumericalError, match="residual"):
        solve_lp(lps[0], opts)
