import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourselab import measures
from recourselab.lp import LpNumericalError
from recourselab.measures import (BoxDensityMeasure, DiscreteMeasure, JitterPlan,
                                  MeasureError, RegionV, ResamplePlan, ShiftPlan,
                                  check_a3_a4, discretize, perturb, wasserstein1)

from .oracles import w1_quantile_1d, w1_transport_lp


def delta(z):
    return DiscreteMeasure.point_mass(z)


def test_w1_single_route():
    assert wasserstein1(delta([0.0]), delta([1.0])) == pytest.approx(1.0)


def test_w1_split_mass():
    mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert wasserstein1(mu, delta([1.0])) == pytest.approx(1.0)


def test_w1_identity(nine_atoms):
    assert wasserstein1(nine_atoms, nine_atoms) <= 1e-12


def test_w1_dimension_mismatch():
    with pytest.raises(MeasureError):
        wasserstein1(delta([0.0]), delta([0.0, 0.0]))


def _random_measure(rng, s, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(size=(k, s)).round(3)
    w = rng.uniform(0.2, 1.0, size=k)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return DiscreteMeasure(atoms, w)


def test_w1_matches_quantile_oracle_1d():
    rng = np.random.default_rng(31)
    for _ in range(40):
        mu = _random_measure(rng, 1)
        nu = _random_measure(rng, 1)
        ref = w1_quantile_1d(mu.atoms, mu.weights, nu.atoms, nu.weights)
        assert wasserstein1(mu, nu) == pytest.approx(ref, abs=1e-9)


def test_w1_metric_axioms_random_triples():
    rng = np.random.default_rng(17)
    for s in (1, 2):
        for _ in range(15):
            mu, nu, rho = (_random_measure(rng, s) for _ in range(3))
            d_ab = wasserstein1(mu, nu)
            d_ba = wasserstein1(nu, mu)
            assert d_ab >= 0.0
            assert d_ab == d_ba  # canonical argument order makes this exact
            assert wasserstein1(mu, mu) <= 1e-9
            assert wasserstein1(mu, rho) <= d_ab + wasserstein1(nu, rho) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_w1_translation(v1, v2):
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.5], [0.2, -0.3]], [0.5, 0.25, 0.25])
    v = np.array([v1, v2])
    nu = perturb(mu, ShiftPlan(v), seed=0)
    assert abs(wasserstein1(mu, nu) - np.linalg.norm(v)) <= 1e-9


def _matches_transport_lp(mu, nu):
    ref = w1_transport_lp(mu.atoms, mu.weights, nu.atoms, nu.weights)
    return wasserstein1(mu, nu) == pytest.approx(ref, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 40), st.integers(1, 39),
       st.integers(0, 2**32 - 1))
def test_w1_matches_dense_transport_lp(s, K, L, seed):
    L += L >= K  # K != L
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(rng.normal(size=(K, s)), rng.dirichlet(np.ones(K)))
    nu = DiscreteMeasure(rng.uniform(-1.0, 2.0, size=(L, s)), rng.dirichlet(np.ones(L)))
    assert _matches_transport_lp(mu, nu)


# streak 0 prices every pivot by Bland's rule, the anti-cycling fallback
PRICING = pytest.mark.parametrize("streak", [measures.TRANSPORT_DEGENERATE_STREAK, 0],
                                  ids=["dantzig", "bland"])


def _degenerate_pairs():
    """Pairs of measures that make the transport basis degenerate."""
    rng = np.random.default_rng(404)
    base = DiscreteMeasure(rng.uniform(size=(20, 2)), rng.dirichlet(np.full(20, 5.0)))
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    equal = np.full(36, 1.0 / 36)
    zero_a = rng.dirichlet(np.ones(12))
    zero_a[[0, 5, 11]] = 0.0
    zero_a /= zero_a.sum()
    zero_b = np.concatenate([[0.0], rng.dirichlet(np.ones(8)), [0.0]])
    off = rng.dirichlet(np.ones(15))
    off[0] += 8e-13  # the weights sum to 1 + 8e-13, inside WEIGHT_TOL
    return {
        "resampled-duplicates": (base, perturb(base, ResamplePlan(35), seed=3)),
        "equal-weights-grid": (DiscreteMeasure(grid, equal),
                               DiscreteMeasure(grid[::-1] + [0.5, 0.0], equal)),
        "equal-weights-random": (DiscreteMeasure(rng.normal(size=(25, 3)), np.full(25, 0.04)),
                                 DiscreteMeasure(rng.normal(size=(25, 3)), np.full(25, 0.04))),
        "zero-weight-atoms": (DiscreteMeasure(rng.normal(size=(12, 2)), zero_a),
                              DiscreteMeasure(rng.normal(size=(10, 2)), zero_b)),
        "point-mass-vs-measure": (delta([0.3, -0.2]), base),
        "point-masses": (delta([0.0, 0.0, 1.0]), delta([1.0, 2.0, -1.0])),
        "weight-sums-differ": (DiscreteMeasure(rng.normal(size=(15, 2)), off),
                               DiscreteMeasure(rng.normal(size=(9, 2)), rng.dirichlet(np.ones(9)))),
    }


@PRICING
@pytest.mark.parametrize("family", sorted(_degenerate_pairs()))
def test_w1_degenerate_families(family, streak, monkeypatch):
    monkeypatch.setattr(measures, "TRANSPORT_DEGENERATE_STREAK", streak)
    mu, nu = _degenerate_pairs()[family]
    assert _matches_transport_lp(mu, nu)
    assert wasserstein1(mu, nu) == wasserstein1(nu, mu)


@PRICING
def test_w1_identical_measures(streak, monkeypatch):
    monkeypatch.setattr(measures, "TRANSPORT_DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(8)
    atoms, weights = rng.normal(size=(30, 2)), rng.dirichlet(np.ones(30))
    mu = DiscreteMeasure(atoms, weights)
    order = rng.permutation(30)
    assert wasserstein1(mu, DiscreteMeasure(atoms.copy(), weights.copy())) <= 1e-12
    assert wasserstein1(mu, DiscreteMeasure(atoms[order], weights[order])) <= 1e-12


def test_w1_scale_guard():
    rng = np.random.default_rng(200)
    mu = DiscreteMeasure(rng.uniform(size=(200, 2)), rng.dirichlet(np.ones(200)))
    nu = DiscreteMeasure(rng.uniform(size=(200, 2)), np.full(200, 1.0 / 200))
    t0 = time.perf_counter()
    d = wasserstein1(mu, nu)
    assert time.perf_counter() - t0 < 5.0
    # bounds that need no LP: Jensen below, the independent coupling above
    mean_gap = np.linalg.norm(mu.weights @ mu.atoms - nu.weights @ nu.atoms)
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    assert mean_gap - 1e-12 <= d <= mu.weights @ cost @ nu.weights


def test_w1_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(measures, "TRANSPORT_PIVOTS_PER_NODE", 0)
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[1.0, 0.0], [0.0, 0.0]], [0.5, 0.5])
    with pytest.raises(LpNumericalError):
        wasserstein1(mu, nu)


def test_discretize_examples():
    dm = discretize(BoxDensityMeasure([0.0], [1.0]), 2)
    assert dm.atoms.ravel().tolist() == [0.25, 0.75]
    assert dm.weights.tolist() == [0.5, 0.5]
    dm2 = discretize(BoxDensityMeasure([0.0, 0.0], [1.0, 1.0]), 2)
    assert sorted(map(tuple, dm2.atoms.tolist())) == [
        (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    assert np.all(dm2.weights == 0.25)
    dm4 = discretize(BoxDensityMeasure([0.0], [2.0]), 4)
    assert dm4.atoms.ravel().tolist() == [0.25, 0.75, 1.25, 1.75]
    assert np.all(dm4.weights == 0.25)
    assert math.fsum(dm4.weights.tolist()) == 1.0


def test_discretize_guards():
    with pytest.raises(MeasureError):
        discretize(BoxDensityMeasure([0.0], [1.0]), 0)
    with pytest.raises(MeasureError):
        discretize(BoxDensityMeasure([0.0] * 4, [1.0] * 4), 100)  # 10^8 atoms


def test_discretize_first_moment_converges():
    box = BoxDensityMeasure([0.0], [2.0])
    errs = []
    for res in (4, 8, 16, 32):
        dm = discretize(box, res)
        errs.append(abs(float(dm.weights @ dm.atoms.ravel()) - 1.0))
    assert all(e <= 1e-12 for e in errs)  # midpoint rule is exact for the mean
    # and the second moment error shrinks like the square of the cell width
    errs2 = []
    for res in (4, 8, 16):
        dm = discretize(box, res)
        errs2.append(abs(float(dm.weights @ (dm.atoms.ravel() ** 2)) - 4.0 / 3.0))
    assert errs2[2] < errs2[1] < errs2[0]


def test_a3_a4_box_inclusion():
    box = BoxDensityMeasure([0.0], [1.0])
    rep = check_a3_a4(box, RegionV([0.3], [0.7], 0.1))
    assert rep.a3 and rep.a4
    assert rep.r == pytest.approx(1.0)
    rep2 = check_a3_a4(box, RegionV([0.05], [0.95], 0.1))
    assert rep2.a3 and not rep2.a4


def test_a3_a4_discrete(nine_atoms):
    rep = check_a3_a4(nine_atoms, RegionV([0.3], [0.7], 0.1))
    assert rep.a3 and not rep.a4


def test_perturb_shift_translation():
    nu = perturb(delta([0.0]), ShiftPlan([0.3]), seed=0)
    assert nu.atoms.ravel().tolist() == [0.3]
    assert wasserstein1(delta([0.0]), nu) == pytest.approx(0.3)


def test_perturb_jitter_zero_noop(nine_atoms):
    nu = perturb(nine_atoms, JitterPlan(0.0), seed=42)
    assert np.array_equal(nu.atoms, nine_atoms.atoms)


def test_perturb_jitter_determinism(nine_atoms):
    a = perturb(nine_atoms, JitterPlan(0.05), seed=42)
    b = perturb(nine_atoms, JitterPlan(0.05), seed=42)
    c = perturb(nine_atoms, JitterPlan(0.05), seed=43)
    assert a.atoms.tobytes() == b.atoms.tobytes()
    assert a.atoms.tobytes() != c.atoms.tobytes()
    assert np.abs(a.atoms - nine_atoms.atoms).max() <= 0.05


def test_perturb_resample_support():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = perturb(mu, ResamplePlan(4), seed=11)
    assert nu.n_atoms == 4
    assert np.all(nu.weights == 0.25)
    assert set(nu.atoms.ravel().tolist()) <= {0.0, 1.0}


def test_measure_validation():
    with pytest.raises(MeasureError):
        DiscreteMeasure([[0.0]], [0.5])
    with pytest.raises(MeasureError):
        DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])
    with pytest.raises(MeasureError):
        BoxDensityMeasure([0.0], [0.0])
    with pytest.raises(MeasureError):
        RegionV([0.0], [1.0], 0.0)
