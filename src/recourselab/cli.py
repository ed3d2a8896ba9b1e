"""Command-line interface.

Subcommands: inspect (dual geometry + assumptions), check (assumptions
plus measure conditions), eval (functional value and gradient at a
point), certify (modulus estimation, optional target sweep), solve, and
stability. Exit codes: 0 success/certified, 2 input error, 3
certification indistinguishable from zero, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .certify import VERDICT_POSITIVE, eta_threshold_sweep, monotonicity_modulus
from .geometry import GeometryError, check_assumptions, enumerate_dual_vertices, fan_to_json_dict
from .lp import LpInputError, LpNumericalError
from .measures import MeasureError, check_a3_a4
from .problem_io import ProblemFormatError, dump_json, load_problem, plans_from_json
# unused eval_q, grad_q: perfbench/spans.py traces the CLI's risk calls by these names
from .risk import RiskError, eval_q, grad_q, make_objective  # noqa: F401
from .rng import validate_seed
from .solver import SolveOptions, SolverError, solve_two_stage
from .stability import (StabilityError, StabilityOptions, estimate_holder_exponent,
                        records_to_csv, run_stability_experiment)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CERTIFIED = 3
EXIT_SOLVER = 4

_INPUT_ERRORS = (ProblemFormatError, GeometryError, MeasureError, RiskError,
                 LpInputError, ValueError)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: which command, which files, which knobs."""

    command: str
    problem: str
    seed: int
    out: str | None = None
    resolution: int | None = None
    threads: int = 1
    pairs: int = 500
    eta_grid: str | None = None
    tol: float = 1e-6
    max_iters: int = 20000
    plans: str | None = None
    x: str | None = None

    def __post_init__(self):
        validate_seed(self.seed)
        for label, path in (("problem", self.problem), ("plans", self.plans)):
            if path is not None and not os.path.exists(path):
                raise ProblemFormatError(f"{label} file does not exist: {path}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    return RunConfig(**fields)


def _write_output(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recourselab",
                                     description="two-stage recourse risk toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--resolution", type=int, default=None,
                       help="quadrature cells per axis for box measures")
        p.add_argument("--threads", type=int, default=1, help="worker cap for sampling loops")

    p_inspect = sub.add_parser("inspect", help="dual vertices, adjacency, assumption report")
    common(p_inspect)

    p_check = sub.add_parser("check", help="assumption report incl. measure conditions")
    common(p_check)

    p_eval = sub.add_parser("eval", help="evaluate the risk functional at a point")
    common(p_eval)
    p_eval.add_argument("--x", required=True, help="comma-separated transformed point")

    p_cert = sub.add_parser("certify", help="estimate the strong-convexity modulus")
    common(p_cert)
    p_cert.add_argument("--pairs", type=int, default=500, help="sampled pairs")
    p_cert.add_argument("--eta-grid", default=None,
                        help="comma-separated targets for an expected-excess sweep")

    p_solve = sub.add_parser("solve", help="solve the two-stage problem")
    common(p_solve)
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--max-iters", type=int, default=20000,
                         help="cut budget of the cutting-plane path")
    p_solve.add_argument("--kappa", type=float, default=0.0,
                         help="accepted and ignored: the cutting-plane path needs no modulus")

    p_stab = sub.add_parser("stability", help="perturb, re-solve, record distances")
    common(p_stab)
    p_stab.add_argument("--plans", default=None, help="JSON file with perturbation plans")
    return parser


def _load(args):
    bundle = load_problem(args.problem)
    fan = enumerate_dual_vertices(bundle.recourse)
    return bundle, fan


def cmd_inspect(args) -> int:
    bundle, fan = _load(args)
    report = check_assumptions(bundle.recourse, fan)
    payload = fan_to_json_dict(fan)
    payload["assumptions"] = report.to_json_dict()
    _write_output(dump_json(payload), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    bundle, fan = _load(args)
    report = check_assumptions(bundle.recourse, fan)
    payload = {"assumptions": report.to_json_dict()}
    if bundle.region is not None:
        payload["measure_conditions"] = check_a3_a4(bundle.measure, bundle.region).to_json_dict()
    _write_output(dump_json(payload), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    bundle, fan = _load(args)
    x = np.array(_float_list(args.x))
    value, grad = make_objective(fan, bundle.measure, bundle.risk,
                                 args.resolution).value_and_grad(x)
    _write_output(dump_json({"x": x.tolist(), "value": value, "grad": grad.tolist()}), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    bundle, fan = _load(args)
    if bundle.region is None:
        raise ProblemFormatError("certify needs a region section in the problem file")
    assumptions = check_assumptions(bundle.recourse, fan)
    conditions = check_a3_a4(bundle.measure, bundle.region)
    warnings = []
    for name, ok in (("A1", assumptions.a1), ("A2", assumptions.a2), ("A5", assumptions.a5),
                     ("A3", conditions.a3), ("A4", conditions.a4)):
        if not ok:
            warnings.append(f"{name} fails")
    if bundle.risk.kind == "upper_semideviation" and not assumptions.a6:
        warnings.append("A6 fails (sufficient, not necessary, for the semideviation)")
    Q = make_objective(fan, bundle.measure, bundle.risk, args.resolution)
    report = monotonicity_modulus(Q, bundle.region, args.pairs, args.seed, threads=args.threads)
    payload = report.to_json_dict()
    payload["warnings"] = warnings
    if args.eta_grid:
        sweep = eta_threshold_sweep(fan, bundle.measure, bundle.region,
                                    _float_list(args.eta_grid), args.pairs, args.seed,
                                    resolution=args.resolution, threads=args.threads)
        payload["eta_sweep"] = sweep.to_json_dict()
    _write_output(dump_json(payload), args.out)
    return EXIT_OK if report.verdict == VERDICT_POSITIVE else EXIT_NOT_CERTIFIED


def cmd_solve(args) -> int:
    bundle, fan = _load(args)
    problem = bundle.two_stage(fan)
    options = SolveOptions(tol=args.tol, max_iters=args.max_iters, resolution=args.resolution)
    result = solve_two_stage(problem, options)
    payload = {
        "x_star": result.x_star.tolist(),
        "value": result.value,
        "path": result.path,
        "log": result.log,
    }
    _write_output(dump_json(payload), args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    bundle, fan = _load(args)
    problem = bundle.two_stage(fan)
    if args.plans:
        with open(args.plans, "r", encoding="utf-8") as fh:
            plans = plans_from_json(json.load(fh))
    else:
        plans = plans_from_json(_default_plans(problem.measure.s))
    records = run_stability_experiment(problem, plans, args.seed, region=bundle.region,
                                       options=StabilityOptions())
    csv_text = records_to_csv(records)
    _write_output(csv_text, args.out)
    try:
        slope = estimate_holder_exponent(records)
        sys.stderr.write(f"holder exponent estimate: {slope:.4f}\n")
    except StabilityError:
        sys.stderr.write("holder exponent estimate: not enough usable records\n")
    return EXIT_OK


def _default_plans(s: int) -> list[dict]:
    unit = [1.0] + [0.0] * (s - 1)
    plans = [{"kind": "shift", "v": [eps * c for c in unit]} for eps in (1e-3, 1e-2, 1e-1)]
    plans += [{"kind": "jitter", "sigma": sig} for sig in (1e-3, 1e-2, 1e-1)]
    return plans


_COMMANDS = {
    "inspect": cmd_inspect,
    "check": cmd_check,
    "eval": cmd_eval,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "stability": cmd_stability,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (SolverError, LpNumericalError, StabilityError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
