"""Seeded operation lists for the three benchmark workloads.

A workload is one round: a fixed list of CLI operations whose inputs come
only from the workload seed. A run repeats whole rounds, so every op kind
keeps the same share of the attempted operations in every run. Everything
here is plain numpy; nothing imports the program.

Every instance uses the L1-type recourse W = [I, -I] with costs q = [q+, q-],
so phi(t) = sum_j max(q+_j t_j, -q-_j t_j) has a closed form that the
checks evaluate without the program's dual-vertex fan.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

CERTIFY_RESOLUTION = 200
BOX_SOLVE_RESOLUTION = 50
BOX_SOLVE_MAX_ITERS = 40
SOLVE_TOL = 1e-6
# The quadratic-cost solve runs diminishing-step subgradient descent until its
# gap certificate is below tol, and its iteration count is heavy-tailed. Over
# 400 random instances each, 24 atoms at tol 1e-6 needed up to 4500 iterations,
# and one 24-atom instance at 1e-5 needed 4800, a sixth of its round's time;
# 60 atoms at tol 1e-5 needed 50 in the median, 200 at p99 and 850 at most.
QUAD_TOL = 1e-5
QUAD_ATOMS = 60

# Pairs per certify op, by risk kind. A semideviation pair costs about 2.7 times
# an expectation or excess pair; these counts make the kinds cost about
# 1 : 1.6 : 2.6, so the median op falls inside the middle kind and the p80
# inside the costliest, not in a gap between two kinds.
CERTIFY_PAIRS = {"expectation": 9, "expected_excess": 15, "upper_semideviation": 9}


@dataclass
class Op:
    """One CLI call. `problem` and `plans` are written to files before any
    timing; `meta` carries what the checks need beyond the files."""

    kind: str
    command: str
    flags: list[str]
    problem: dict
    plans: list | None = None
    meta: dict = field(default_factory=dict)

    def argv(self, problem_path: str, plans_path: str | None, out_path: str) -> list[str]:
        argv = [self.command, "--problem", problem_path, "--out", out_path, "--threads", "1"]
        if plans_path is not None:
            argv += ["--plans", plans_path]
        return argv + self.flags


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def l1_recourse(q_plus, q_minus) -> dict:
    s = len(q_plus)
    eye = np.eye(s)
    return {"W": np.hstack([eye, -eye]).tolist(), "q": [*map(float, q_plus), *map(float, q_minus)]}


def _unit_box_stage(s: int, h, lo: float = 0.0, hi: float = 1.0, H=None) -> dict:
    eye = np.eye(s)
    return {"T": eye.tolist(), "h": [float(v) for v in h], "H": H,
            "X": {"A": np.vstack([eye, -eye]).tolist(), "b": [hi] * s + [-lo] * s}}


def _discrete(rng: np.random.Generator, k: int, s: int) -> dict:
    weights = rng.dirichlet(np.full(k, 5.0))
    weights = weights / weights.sum()
    return {"type": "discrete", "atoms": rng.uniform(0.0, 1.0, size=(k, s)).tolist(),
            "weights": weights.tolist()}


def _risk(kind: str, eta: float | None = None) -> dict:
    return {"kind": kind} if eta is None else {"kind": kind, "eta": float(eta)}


# --- certify-box2d ------------------------------------------------------------

CERTIFY_KINDS = ("expectation", "expected_excess", "upper_semideviation")


def certify_op(rng: np.random.Generator, kind: str) -> Op:
    lo = rng.uniform(0.08, 0.14, size=2)
    hi = rng.uniform(0.86, 0.92, size=2)
    eta = rng.uniform(0.2, 0.6) if kind == "expected_excess" else None
    problem = {
        "recourse": l1_recourse([1.0, 1.0], [1.0, 1.0]),
        "measure": {"type": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "risk": _risk(kind, eta),
        "region": {"lo": lo.tolist(), "hi": hi.tolist(), "rho": 0.05},
    }
    pairs = CERTIFY_PAIRS[kind]
    seed = int(rng.integers(0, 2**63))
    flags = ["--pairs", str(pairs), "--resolution", str(CERTIFY_RESOLUTION), "--seed", str(seed)]
    return Op(f"certify-{kind}", "certify", flags, problem,
              meta={"pairs": pairs, "resolution": CERTIFY_RESOLUTION})


def certify_box2d(seed: int, stream: int) -> list[Op]:
    """24 ops, cycling the three risk kinds."""
    return [certify_op(_rng(seed, stream, 1, i), CERTIFY_KINDS[i % 3]) for i in range(24)]


# --- solve-mix ------------------------------------------------------------------


def det_eq_op(rng: np.random.Generator, s: int, kind: str) -> Op:
    """Expected excess or semideviation on a discrete measure: the CLI takes
    the deterministic-equivalent LP path (about 360 columns). Target, costs
    and linear cost vary in narrow ranges: the LP's pivot count spreads less
    from instance to instance (2-D excess: 17 % -> 10 % coefficient of
    variation), so the op-time quantiles move less from seed to seed."""
    k = 120 if s == 1 else 70
    eta = None
    if kind == "expected_excess":
        eta = rng.uniform(0.15, 0.25) if s == 1 else rng.uniform(0.4, 0.5)
    q = rng.uniform(0.8, 1.2, size=2 * s)
    problem = {
        "first_stage": _unit_box_stage(s, rng.uniform(-0.1, 0.1, size=s)),
        "recourse": l1_recourse(q[:s], q[s:]),
        "measure": _discrete(rng, k, s),
        "risk": _risk(kind, eta),
    }
    short = "ee" if kind == "expected_excess" else "dp"
    return Op(f"solve-{short}-{s}d", "solve", [], problem)


def quad_op(rng: np.random.Generator) -> Op:
    """Semideviation plus c x^2 on few atoms: the subgradient path, which
    stops on a certified gap because kappa = 2c is a valid modulus."""
    c = rng.uniform(0.5, 1.5)
    q = rng.uniform(0.5, 1.5, size=2)
    problem = {
        "first_stage": _unit_box_stage(1, [rng.uniform(-0.3, 0.3)], H=[[float(c)]]),
        "recourse": l1_recourse(q[:1], q[1:]),
        "measure": _discrete(rng, QUAD_ATOMS, 1),
        "risk": _risk("upper_semideviation"),
    }
    flags = ["--kappa", repr(2.0 * float(c)), "--tol", repr(QUAD_TOL)]
    return Op("solve-quad-dp", "solve", flags, problem, meta={"tol": QUAD_TOL})


def box_solve_op() -> Op:
    """Semideviation on the 2-D uniform box with kappa = 0. Its inputs do not
    depend on the seed: it fails the same way every time, because the
    subgradient path certifies no gap without a modulus and writes
    `Infinity` into its JSON."""
    problem = {
        "first_stage": _unit_box_stage(2, [0.0, 0.0], lo=0.2, hi=0.8),
        "recourse": l1_recourse([1.0, 1.0], [1.0, 1.0]),
        "measure": {"type": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "risk": _risk("upper_semideviation"),
    }
    flags = ["--resolution", str(BOX_SOLVE_RESOLUTION), "--max-iters", str(BOX_SOLVE_MAX_ITERS),
             "--tol", repr(SOLVE_TOL)]
    return Op("solve-box-dp", "solve", flags, problem,
              meta={"tol": SOLVE_TOL, "resolution": BOX_SOLVE_RESOLUTION})


SOLVE_DET_EQ = ((1, "expected_excess"), (1, "upper_semideviation"),
                (2, "expected_excess"), (2, "upper_semideviation"))


def solve_mix(seed: int, stream: int) -> list[Op]:
    """48 groups of seven ops: the four det-equivalent kinds, two quadratic-cost
    solves and the box solve. By cost the kinds sort as quad, quad, box, ee-2d,
    dp-2d, ee-1d, dp-1d, so the median op lies inside ee-2d and the p80 inside
    ee-1d; with six equal shares the median would sit in the gap between two
    kinds."""
    ops = []
    for i in range(48):
        for j, (s, kind) in enumerate(SOLVE_DET_EQ):
            ops.append(det_eq_op(_rng(seed, stream, 2, i, j), s, kind))
        ops.append(quad_op(_rng(seed, stream, 2, i, 8)))
        ops.append(quad_op(_rng(seed, stream, 2, i, 9)))
        ops.append(box_solve_op())
    return ops


# --- stability-transport --------------------------------------------------------

STABILITY_ATOMS = 30


def stability_op(rng: np.random.Generator) -> Op:
    k = STABILITY_ATOMS
    problem = {
        "first_stage": _unit_box_stage(2, rng.uniform(-0.1, 0.1, size=2)),
        "recourse": l1_recourse([1.0, 1.0], [1.0, 1.0]),
        "measure": _discrete(rng, k, 2),
        "risk": _risk("expectation"),
    }
    direction = rng.normal(size=2)
    v = direction / np.linalg.norm(direction) * rng.uniform(0.01, 0.05)
    plans = [{"kind": "shift", "v": v.tolist()},
             {"kind": "jitter", "sigma": float(rng.uniform(0.005, 0.02))},
             {"kind": "jitter", "sigma": float(rng.uniform(0.03, 0.08))},
             {"kind": "resample", "n": k}]
    seed = int(rng.integers(0, 2**63))
    return Op("stability", "stability", ["--seed", str(seed)], problem, plans=plans)


def stability_transport(seed: int, stream: int) -> list[Op]:
    return [stability_op(_rng(seed, stream, 3, i)) for i in range(48)]


WORKLOADS = {
    "certify-box2d": certify_box2d,
    "solve-mix": solve_mix,
    "stability-transport": stability_transport,
}


ROUND_STREAM = 0
WARMUP_STREAM = 1
WARMUP_SEED = 0


def round_ops(workload: str, seed: int) -> list[Op]:
    """The seeded list of operations that every round of a run repeats."""
    return WORKLOADS[workload](seed, ROUND_STREAM)


def warmup_ops(workload: str) -> list[Op]:
    """One op per kind. The same for every seed, so set-up does the same work
    in every run, and drawn from a stream no round uses, so no timed input has
    run before (the fixed-input box solve excepted)."""
    firsts: dict[str, Op] = {}
    for op in WORKLOADS[workload](WARMUP_SEED, WARMUP_STREAM):
        firsts.setdefault(op.kind, op)
    return list(firsts.values())


def write_inputs(ops: list[Op], work_dir: str, tag: str) -> list[tuple[str, str | None, str]]:
    """Write each op's problem (and plans) file; return (problem, plans, out) paths."""
    paths = []
    for i, op in enumerate(ops):
        base = os.path.join(work_dir, f"{tag}{i:03d}")
        with open(base + ".problem.json", "w", encoding="utf-8") as fh:
            json.dump(op.problem, fh)
        plans = None
        if op.plans is not None:
            plans = base + ".plans.json"
            with open(plans, "w", encoding="utf-8") as fh:
                json.dump(op.plans, fh)
        paths.append((base + ".problem.json", plans, base + ".out"))
    return paths
