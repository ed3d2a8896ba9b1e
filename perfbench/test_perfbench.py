"""Self-check of the benchmark.

    python3 -m pytest perfbench -q

A handful of ops of each workload must pass their checks (the box-measure
solve must fail, on its named fault), and every check must reject a
deliberately wrong output, so that none of them is vacuous.
"""

import copy
import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run as bench
import workloads

SEED = 5


@pytest.fixture(scope="module")
def rl():
    if bench.SRC not in sys.path:
        sys.path.insert(0, bench.SRC)
    return bench.fresh_import()


@pytest.fixture(scope="module")
def work_dir():
    path = os.path.join(bench.WORK, f"selfcheck-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def execute(rl, ops, work_dir, tag="t"):
    paths = workloads.write_inputs(ops, work_dir, tag)
    return [bench.run_op(rl.cli.main, op.argv(*p), p[2]) for op, p in zip(ops, paths)]


def first_of_kind(workload, kind):
    return next(op for op in workloads.round_ops(workload, SEED) if op.kind == kind)


@pytest.fixture(scope="module")
def outputs(rl, work_dir):
    """One op of every kind, run once: {kind: (op, rc, text)}."""
    out = {}
    for workload in workloads.WORKLOADS:
        kinds = {}
        for op in workloads.round_ops(workload, SEED):
            kinds.setdefault(op.kind, op)
        ops = list(kinds.values())
        for op, (rc, text, _, _) in zip(ops, execute(rl, ops, work_dir, workload)):
            out[op.kind] = (op, rc, text)
    return out


def expect(status, op, rc, text, fragment=""):
    verdict, reason = bench.classify(checks, op, rc, text, "")
    assert verdict == status, reason
    assert fragment in reason, reason


# --- a handful of ops per workload --------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_handful_of_ops_pass_their_checks(rl, work_dir, workload):
    ops = workloads.round_ops(workload, SEED)[:6]
    for op, (rc, text, stderr, _) in zip(ops, execute(rl, ops, work_dir, workload)):
        status, reason = bench.classify(checks, op, rc, text, stderr)
        if op.kind == "solve-box-dp":
            assert (status, reason) == ("failed", "output is not RFC 8259 JSON: it contains Infinity")
        else:
            assert status == "ok", f"{op.kind}: {reason}"


def test_inputs_come_only_from_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.round_ops(workload, 7), workloads.round_ops(workload, 7)
        assert [(o.flags, o.problem, o.plans) for o in a] == [(o.flags, o.problem, o.plans) for o in b]
        c = workloads.round_ops(workload, 8)
        assert [o.problem for o in a if o.kind != "solve-box-dp"] != \
            [o.problem for o in c if o.kind != "solve-box-dp"]
        assert [o.kind for o in a] == [o.kind for o in c]
    box = [o.problem for o in workloads.round_ops("solve-mix", 7) + workloads.round_ops("solve-mix", 8)
           if o.kind == "solve-box-dp"]
    assert all(p == box[0] for p in box)


def test_warmup_ops_are_not_timed_inputs():
    for workload in workloads.WORKLOADS:
        timed = [o.problem for o in workloads.round_ops(workload, SEED) if o.kind != "solve-box-dp"]
        warm = workloads.warmup_ops(workload)
        assert sorted(o.kind for o in warm) == sorted({o.kind for o in workloads.round_ops(workload, SEED)})
        assert not any(o.problem in timed for o in warm if o.kind != "solve-box-dp")


def test_rounds_must_repeat_byte_identical_outputs(outputs):
    op, rc, text = outputs["certify-expectation"]
    results = [[(rc, text, "", 0.1), (rc, text, "", 0.1), (rc, text.replace("0", "1", 1), "", 0.1)]]
    attempted, failed, wrong, reasons = bench.tally(checks, [op], results)
    assert (attempted, failed, wrong) == (3, 0, 1)
    assert list(reasons) == [(op.kind, "wrong", "output differs between rounds for identical input")]


# --- strict parsing and exit codes ---------------------------------------------------


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_non_json_numbers_are_failures(token):
    with pytest.raises(checks.OpFailed, match="RFC 8259"):
        checks.strict_json('{"value": %s}' % token)


def test_error_exit_codes_are_failures(outputs):
    for kind, rc in (("certify-expectation", 2), ("solve-ee-1d", 4), ("stability", 4)):
        op, _, text = outputs[kind]
        expect("failed", op, rc, text, "exited")


# --- certify -------------------------------------------------------------------------


def edit_json(text, fn):
    obj = json.loads(text)
    fn(obj)
    return json.dumps(obj)


def test_certify_output_passes(outputs):
    for kind in ("certify-expectation", "certify-expected_excess", "certify-upper_semideviation"):
        op, rc, text = outputs[kind]
        expect("ok", op, rc, text)


def test_certify_rejects_a_perturbed_worst_ratio(outputs):
    op, rc, text = outputs["certify-upper_semideviation"]

    def bump(o):
        o["worst_pair"]["ratio"] = o["worst_pair"]["ratio"] * (1 + 1e-7) + 1e-9
        o["kappa_hat"] = max(o["worst_pair"]["ratio"], 0.0)

    expect("wrong", op, rc, edit_json(text, bump), "recomputed from the grid atoms")


def test_certify_rejects_kappa_not_max_of_ratio(outputs):
    op, rc, text = outputs["certify-expectation"]
    expect("wrong", op, rc, edit_json(text, lambda o: o.update(kappa_hat=o["kappa_hat"] * 1.01)),
           "kappa_hat")


def test_certify_rejects_a_worst_pair_outside_the_region(outputs):
    op, rc, text = outputs["certify-expected_excess"]
    hi = op.problem["region"]["hi"]
    expect("wrong", op, rc, edit_json(text, lambda o: o["worst_pair"].update(x=[hi[0] + 0.01, hi[1]])),
           "outside the region")


def test_certify_rejects_an_exit_code_that_contradicts_the_verdict(outputs):
    op, rc, text = outputs["certify-expectation"]
    expect("wrong", op, 3 if rc == 0 else 0, text, "does not match verdict")


def test_certify_rejects_a_wrong_pair_count(outputs):
    op, rc, text = outputs["certify-expectation"]
    expect("wrong", op, rc, edit_json(text, lambda o: o.update(n_pairs=o["n_pairs"] + 1)), "n_pairs")


# --- solve ---------------------------------------------------------------------------


def moved(op, text, dx):
    """Output whose x_star moved by dx (and stays feasible) with the value
    recomputed there, so only an optimality check can reject it."""
    obj = json.loads(text)
    x = np.clip(np.asarray(obj["x_star"]) + dx, 0.2 if op.kind == "solve-box-dp" else 0.0,
                0.8 if op.kind == "solve-box-dp" else 1.0)
    atoms, weights = checks.measure_atoms(op.problem, op.meta.get("resolution"))
    obj["x_star"] = x.tolist()
    obj["value"] = float(checks.objective(op.problem, atoms, weights, x[None, :])[0])
    return json.dumps(obj)


@pytest.mark.parametrize("kind", ["solve-ee-1d", "solve-dp-1d", "solve-ee-2d", "solve-dp-2d"])
def test_det_equivalent_rejects_a_suboptimal_point(outputs, kind):
    op, rc, text = outputs[kind]
    expect("ok", op, rc, text)
    x = np.asarray(json.loads(text)["x_star"])
    expect("wrong", op, rc, moved(op, text, np.where(x < 0.5, 1.0, -1.0)), "HiGHS optimum")


def test_solve_rejects_a_perturbed_value(outputs):
    op, rc, text = outputs["solve-dp-2d"]
    expect("wrong", op, rc, edit_json(text, lambda o: o.update(value=o["value"] + 1e-6)),
           "at the reported x_star")


def test_solve_rejects_an_infeasible_point(outputs):
    op, rc, text = outputs["solve-ee-1d"]
    expect("wrong", op, rc, edit_json(text, lambda o: o.update(x_star=[1.001])), "violates X")


def test_quadratic_solve_rejects_a_point_off_the_grid_minimum(outputs):
    op, rc, text = outputs["solve-quad-dp"]
    expect("ok", op, rc, text)
    x = json.loads(text)["x_star"][0]
    expect("wrong", op, rc, moved(op, text, -0.01 if x > 0.5 else 0.01), "grid minimum")


def test_quadratic_solve_without_a_certified_gap_fails(outputs):
    op, rc, text = outputs["solve-quad-dp"]
    text = edit_json(text, lambda o: o["log"].update(gap_certificate=1e-3))
    expect("failed", op, rc, text, "no certified gap")


def box_success(op):
    """A box-measure solve output as it should read once the fault is mended:
    the grid minimizer with a zero gap."""
    atoms, weights = checks.measure_atoms(op.problem, op.meta["resolution"])
    axis = np.linspace(0.2, 0.8, 121)
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    vals = np.concatenate([checks.objective(op.problem, atoms, weights, pts[i:i + 400])
                           for i in range(0, pts.shape[0], 400)])
    best = int(np.argmin(vals))
    return json.dumps({"x_star": pts[best].tolist(), "value": float(vals[best]), "path": "subgradient",
                       "log": {"iterations": 40, "gap_certificate": 0.0}})


def test_box_solve_check_accepts_a_certified_minimum_and_rejects_a_moved_one(outputs):
    op, _, _ = outputs["solve-box-dp"]
    good = box_success(op)
    expect("ok", op, 0, good)
    expect("wrong", op, 0, moved(op, good, np.array([0.05, -0.05])), "grid minimum")


# --- stability -----------------------------------------------------------------------


def edit_csv(text, row, **changes):
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row].update({k: repr(float(v)) for k, v in changes.items()})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def row_of(text, row):
    return list(csv.DictReader(io.StringIO(text)))[row]


def test_stability_output_passes(outputs):
    op, rc, text = outputs["stability"]
    expect("ok", op, rc, text)


@pytest.mark.parametrize("row", [0, 1, 2, 3])
def test_stability_rejects_a_perturbed_w1(outputs, row):
    op, rc, text = outputs["stability"]
    r = row_of(text, row)
    w1 = float(r["w1"]) * (1 + 1e-6)
    bad = edit_csv(text, row, w1=w1, ratio=float(r["d_hausdorff"]) / np.sqrt(w1))
    expect("wrong", op, rc, bad, "!= HiGHS")


def test_shift_w1_must_equal_the_shift_length(outputs, monkeypatch):
    op, rc, text = outputs["stability"]
    r = row_of(text, 0)
    assert r["kind"] == "shift"
    w1 = float(r["w1"]) * (1 + 1e-6)
    bad = edit_csv(text, 0, w1=w1, ratio=float(r["d_hausdorff"]) / np.sqrt(w1))
    monkeypatch.setattr(checks, "transport_cost", lambda *a: w1)   # an LP that agrees with the output
    expect("wrong", op, rc, bad, "shift by |v|")


def test_stability_rejects_a_perturbed_ratio(outputs):
    op, rc, text = outputs["stability"]
    expect("wrong", op, rc, edit_csv(text, 2, ratio=float(row_of(text, 2)["ratio"]) * (1 + 1e-9)),
           "d_H / sqrt(w1)")


def test_stability_rejects_a_perturbed_hausdorff_distance(outputs):
    op, rc, text = outputs["stability"]
    expect("wrong", op, rc, edit_csv(text, 1, d_hausdorff=float(row_of(text, 1)["d_hausdorff"]) + 1e-6),
           "d_hausdorff")


def test_stability_rejects_a_perturbed_value(outputs):
    op, rc, text = outputs["stability"]
    expect("wrong", op, rc, edit_csv(text, 3, value_nu=float(row_of(text, 3)["value_nu"]) + 1e-5),
           "value_nu")


def test_stability_rejects_an_undocumented_header(outputs):
    op, rc, text = outputs["stability"]
    expect("wrong", op, rc, text.replace("d_hausdorff", "dh", 1), "header")


def test_stability_rejects_a_perturbation_other_than_the_plan(outputs):
    op, rc, text = outputs["stability"]
    other = copy.deepcopy(op)
    other.plans[1]["sigma"] *= 1.5
    expect("wrong", other, rc, text, "param")


# --- tracing -------------------------------------------------------------------------


def test_two_traced_runs_count_the_same(rl, work_dir):
    import spans

    ops = [first_of_kind("certify-box2d", "certify-upper_semideviation"),
           first_of_kind("solve-mix", "solve-dp-1d"), first_of_kind("solve-mix", "solve-quad-dp"),
           first_of_kind("solve-mix", "solve-box-dp"), first_of_kind("stability-transport", "stability")]
    original = rl.lp.solve_lp
    counted = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install(rl)
        try:
            execute(rl, ops, work_dir, "trace")
        finally:
            tracer.uninstall()
        counted.append({k: v for k, v in tracer.metrics(1).items() if spans.PER_LAYER[k] == "count"})
    assert rl.lp.solve_lp is original and rl.solver.solve_lp is original
    assert counted[0] == counted[1]
    c = counted[0]
    assert set(c) == {k for k, u in spans.PER_LAYER.items() if u == "count"}
    assert c["lp.pivots"] > 0 and c["risk.atom_vertex_products"] > 0
    assert c["measures.w1_calls"] == 4 and c["stability.records"] == 4
    # stability solves the base and four perturbed measures; the box solve is not certified
    assert c["solver.solves"] == 3 + 5 and c["solver.certified_solves"] == 2 + 5
    assert c["measures.discretize_calls"] > 0
    assert c["certify.pairs"] == workloads.CERTIFY_PAIRS["upper_semideviation"]


# --- a directory without the program ------------------------------------------------


def test_refuses_to_run_without_the_program(work_dir):
    bare = os.path.join(work_dir, "bare")
    os.makedirs(os.path.join(bare, "perfbench"), exist_ok=True)
    for name in ("run.py", "workloads.py", "checks.py", "spans.py"):
        shutil.copy(os.path.join(bench.HERE, name), os.path.join(bare, "perfbench", name))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=120, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
