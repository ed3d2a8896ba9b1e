import json

import pytest

from recourselab.cli import main

BENCH_1D = {
    "first_stage": {"T": [[1.0]], "h": [0.0], "H": None,
                    "X": {"A": [[1.0], [-1.0]], "b": [1.0, 0.0]}},
    "recourse": {"W": [[1.0, -1.0]], "q": [1.0, 1.0]},
    "measure": {"type": "uniform_box", "lo": [0.0], "hi": [1.0]},
    "risk": {"kind": "expectation"},
    "region": {"lo": [0.1], "hi": [0.9], "rho": 0.1},
}

MEDIAN = {
    "first_stage": {"T": [[1.0]], "h": [0.0],
                    "X": {"A": [[1.0], [-1.0]], "b": [1.0, 0.0]}},
    "recourse": {"W": [[1.0, -1.0]], "q": [1.0, 1.0]},
    "measure": {"type": "discrete",
                "atoms": [[k / 10.0] for k in range(1, 10)],
                "weights": [1.0 / 9.0] * 9},
    "risk": {"kind": "expectation"},
    "region": {"lo": [0.1], "hi": [0.9], "rho": 0.1},
}


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(BENCH_1D))
    return str(path)


@pytest.fixture
def median_file(tmp_path):
    path = tmp_path / "median.json"
    path.write_text(json.dumps(MEDIAN))
    return str(path)


def test_inspect_benchmark(bench_file, tmp_path):
    out = tmp_path / "fan.json"
    code = main(["inspect", "--problem", bench_file, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["vertices"]) == 2
    a = payload["assumptions"]
    assert a["a1"] and a["a2"] and a["a5"] and a["a6"]


def test_inspect_reports_failures_with_exit_zero(tmp_path):
    problem = dict(BENCH_1D)
    problem["recourse"] = {"W": [[1.0, -1.0]], "q": [0.0, 0.0]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "fan.json"
    assert main(["inspect", "--problem", str(path), "--out", str(out)]) == 0
    a = json.loads(out.read_text())["assumptions"]
    assert not a["a2"] and not a["a5"]


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["inspect", "--problem", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_measure_field_is_input_error(tmp_path):
    problem = {k: v for k, v in MEDIAN.items() if k != "measure"}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(path)]) == 2


def test_nonexistent_problem_file_is_input_error(tmp_path):
    assert main(["inspect", "--problem", str(tmp_path / "nope.json")]) == 2


def test_seed_out_of_range_is_input_error(bench_file):
    assert main(["certify", "--problem", bench_file, "--seed", "-3"]) == 2


def test_check_includes_measure_conditions(bench_file, tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--problem", bench_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["measure_conditions"]["a4"] is True


def test_eval_value_and_gradient(bench_file, tmp_path):
    out = tmp_path / "eval.json"
    assert main(["eval", "--problem", bench_file, "--x", "0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(0.25)
    assert payload["grad"] == pytest.approx([0.0])


def test_certify_positive_exit_zero(bench_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--problem", bench_file, "--pairs", "200",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["kappa_hat"] - 2.0) <= 0.05
    assert payload["verdict"] == "certified-positive"


def test_certify_flat_target_exit_three(tmp_path):
    problem = dict(BENCH_1D)
    problem["risk"] = {"kind": "expected_excess", "eta": 1.5}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "cert.json"
    code = main(["certify", "--problem", str(path), "--pairs", "100",
                 "--seed", "7", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verdict"] == "indistinguishable-from-zero"


def test_certify_discrete_measure_warns_and_exits_three(median_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--problem", median_file, "--pairs", "150",
                 "--seed", "7", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert any("A4" in w for w in payload["warnings"])


def test_certify_with_eta_sweep(bench_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--problem", bench_file, "--pairs", "120",
                 "--seed", "3", "--eta-grid=-1,0.2,1.5", "--out", str(out)])
    assert code == 0
    sweep = json.loads(out.read_text())["eta_sweep"]
    assert sweep["points"][0]["kappa_hat"] == pytest.approx(2.0, abs=0.05)
    assert sweep["points"][-1]["kappa_hat"] <= 1e-6


def test_solve_median(median_file, tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", "--problem", median_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["x_star"] == pytest.approx([0.5], abs=1e-9)
    assert payload["path"] == "det-equivalent"


def test_solve_enumerates_the_fan_once(bench_file, tmp_path, monkeypatch):
    from recourselab import cli, geometry, solver

    calls = []

    def counting(rd, *args, **kwargs):
        calls.append(rd)
        return geometry.enumerate_dual_vertices(rd, *args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_dual_vertices", counting)
    monkeypatch.setattr(solver, "enumerate_dual_vertices", counting)
    out = tmp_path / "solve.json"
    # the cutting-plane path builds its objective from the fan the CLI loaded
    assert main(["solve", "--problem", bench_file, "--max-iters", "20", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["path"] == "cutting-plane"
    assert len(calls) == 1


def test_solve_rejects_rank_deficient_recourse(tmp_path):
    problem = dict(MEDIAN)
    problem["recourse"] = {"W": [[0.0, 0.0]], "q": [1.0, 1.0]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "s.json")]) == 2


def test_stability_csv_and_exponent(median_file, tmp_path, capsys):
    plans = [{"kind": "shift", "v": [eps]} for eps in (1e-3, 1e-2, 1e-1)]
    plans_file = tmp_path / "plans.json"
    plans_file.write_text(json.dumps(plans))
    out = tmp_path / "stab.csv"
    code = main(["stability", "--problem", median_file, "--plans", str(plans_file),
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("plan_id,kind,param,seed,w1,d_hausdorff,ratio")
    assert len(lines) == 4
    err = capsys.readouterr().err
    assert "holder exponent estimate: 1.00" in err


def test_reproducibility_byte_identical(median_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["stability", "--problem", median_file, "--seed", "21"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    cert1 = tmp_path / "c1.json"
    cert2 = tmp_path / "c2.json"
    cargv = ["certify", "--problem", median_file, "--pairs", "60", "--seed", "5"]
    main(cargv + ["--out", str(cert1)])
    main(cargv + ["--out", str(cert2)])
    assert cert1.read_bytes() == cert2.read_bytes()


def test_console_script_entry_point(bench_file):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "recourselab.cli", "inspect",
                           "--problem", bench_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertices"]


def test_eval_is_byte_identical_for_any_blas_thread_count(tmp_path):
    # 90 000 atoms: sums over more than 4096 terms must not go through BLAS
    import os
    import subprocess
    import sys

    problem = {"recourse": {"W": [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], "q": [1.0] * 4},
               "measure": {"type": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
               "risk": {"kind": "upper_semideviation"}}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(problem))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "recourselab.cli", "eval", "--problem", str(path),
                               "--resolution", "300", "--x", "0.3,0.6"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


_L1_2D = {"W": [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], "q": [1.0, 1.2, 0.9, 1.1]}
_BOX_2D_X = {"A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "b": [0.8, 0.8, -0.2, -0.2]}


@pytest.mark.parametrize("problem,flags", [
    ({"first_stage": {"T": [[1.0, 0.0], [0.0, 1.0]], "h": [0.0, 0.0], "X": _BOX_2D_X},
      "recourse": _L1_2D,
      "measure": {"type": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
      "risk": {"kind": "upper_semideviation"}}, ["--resolution", "50", "--kappa", "0"]),
    ({"first_stage": {"T": [[1.0, 0.0], [0.0, 1.0]], "h": [0.1, -0.2],
                      "H": [[0.8, 0.2], [0.2, 0.5]], "X": _BOX_2D_X},
      "recourse": _L1_2D,
      "measure": {"type": "discrete",
                  "atoms": [[(7 * k % 19) / 19.0, (11 * k % 23) / 23.0] for k in range(40)],
                  "weights": [1.0 / 40.0] * 40},
      "risk": {"kind": "expected_excess", "eta": 0.5}}, ["--tol", "1e-8"]),
], ids=["box-kappa-0", "quadratic"])
def test_cutting_plane_solve_is_byte_identical_for_any_blas_thread_count(tmp_path, problem, flags):
    import os
    import subprocess
    import sys

    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "recourselab.cli", "solve", "--problem", str(path)]
                              + flags, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["path"] == "cutting-plane"
    assert outputs[0] == outputs[1]


def test_box_solve_writes_certified_strict_json(bench_file, tmp_path):
    # no modulus on a box measure: the cutting-plane path certifies its own gap
    out = tmp_path / "solve.json"
    assert main(["solve", "--problem", bench_file, "--max-iters", "100", "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["path"] == "cutting-plane"
    gap = payload["log"]["gap_certificate"]
    assert isinstance(gap, float) and 0.0 <= gap <= 1e-6
