"""Per-layer tracing of the program from outside it.

`Tracer.install` rebinds the public functions at each module boundary of
recourselab to timing wrappers: the name is replaced in every module that
imported it (for example `solve_lp` in `solver`, `measures` and `geometry`,
and `discretize` in `risk`), so the program's code is untouched. Spans
(name, start, end, parent) stay in memory and are written out at the end.
Counts come from the arguments and return values of those calls. A few
calls inside a layer (`phi_many`, `cell_measures`, `feasible_box`, the
projector) get a counting wrapper without a span, so their time stays in
the caller's self time.

A layer's self time is the duration of its spans minus the part their
child spans cover. Untraced runs never install anything.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

PER_LAYER = {
    "lp.calls": "count", "lp.pivots": "count", "lp.self_s": "s", "lp.us_per_pivot": "us",
    "measures.w1_calls": "count", "measures.w1_columns": "count", "measures.w1_s": "s",
    "measures.discretize_calls": "count", "measures.discretize_atoms": "count",
    "measures.discretize_s": "s",
    "risk.calls": "count", "risk.atom_vertex_products": "count", "risk.self_s": "s",
    "risk.ns_per_product": "ns",
    "geometry.fan_enumerations": "count", "geometry.fan_s": "s",
    "certify.pairs": "count", "certify.self_s": "s", "certify.s_per_pair": "s",
    "solver.solves": "count", "solver.certified_solves": "count",
    "solver.det_eq_columns": "count", "solver.subgradient_iterations": "count",
    "solver.feasible_box_lps": "count", "solver.projections": "count", "solver.self_s": "s",
    "stability.records": "count", "stability.self_s": "s",
    "problem_io.load_s": "s", "problem_io.dump_s": "s", "cli.self_s": "s",
}


def _atoms(measure, resolution) -> int:
    """Atoms the atom pass runs over; 0 for the closed-form 1-D box."""
    if hasattr(measure, "n_atoms"):
        return measure.n_atoms
    return 0 if measure.s == 1 else int(resolution) ** measure.s


def _lp(counts, args, kwargs, out):
    counts["lp.pivots"] += out.iterations


def _w1(counts, args, kwargs, out):
    counts["measures.w1_columns"] += args[0].n_atoms * args[1].n_atoms


def _discretize(counts, args, kwargs, out):
    counts["measures.discretize_atoms"] += out.n_atoms


def _phi_many(counts, args, kwargs, out):
    fan, pts = args[0], args[1]
    counts["risk.atom_vertex_products"] += pts.shape[0] * fan.n_vertices


def _cell_measures(counts, args, kwargs, out):
    fan, measure = args[0], args[1]
    resolution = args[4] if len(args) > 4 else kwargs.get("resolution")
    counts["risk.atom_vertex_products"] += _atoms(measure, resolution) * fan.n_vertices


def _eval_q_many(counts, args, kwargs, out):
    fan, measure = args[0], args[1]
    resolution = args[4] if len(args) > 4 else kwargs.get("resolution")
    counts["risk.atom_vertex_products"] += len(out) * _atoms(measure, resolution) * fan.n_vertices


def _pairs(counts, args, kwargs, out):
    counts["certify.pairs"] += out.n_pairs


def _solve(counts, args, kwargs, out):
    options = args[1] if len(args) > 1 else kwargs.get("options")
    tol = 1e-6 if options is None else options.tol
    if out.path == "det-equivalent":
        counts["solver.certified_solves"] += 1
        counts["solver.det_eq_columns"] += out.log["lp_columns"]
        return
    counts["solver.subgradient_iterations"] += out.log.get("iterations", 0)
    gap = out.log.get("gap_certificate", math.inf)
    if math.isfinite(gap) and gap <= tol:
        counts["solver.certified_solves"] += 1


def _feasible_box(counts, args, kwargs, out):
    counts["solver.feasible_box_lps"] += 2 * args[0].n


def _projection(counts, args, kwargs, out):
    counts["solver.projections"] += 1


def _records(counts, args, kwargs, out):
    counts["stability.records"] += len(out)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn, count):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(counts, args, kwargs, out)
            return out

        return wrapper

    def _rebind(self, owners, attr, wrapper):
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self, rl):
        """Wrap the boundaries of the imported package `rl` (recourselab)."""
        cli, pio, geo, meas = rl.cli, rl.problem_io, rl.geometry, rl.measures
        risk, cert, solver, stab, lp = rl.risk, rl.certify, rl.solver, rl.stability, rl.lp
        span, counted, rebind = self._span, self._counted, self._rebind

        rebind([cli], "main", span("cli.main", cli.main))
        # lp: rebinding inside lp too makes check_feasible's own solve a span
        rebind([lp, geo, meas, solver], "solve_lp", span("lp.solve_lp", lp.solve_lp, _lp))
        rebind([geo], "check_feasible", span("lp.check_feasible", lp.check_feasible))
        # problem_io
        for name in ("load_problem", "dump_json", "plans_from_json"):
            rebind([cli], name, span(f"problem_io.{name}", getattr(pio, name)))
        # geometry
        rebind([cli, solver], "enumerate_dual_vertices",
               span("geometry.enumerate_dual_vertices", geo.enumerate_dual_vertices))
        rebind([cli], "check_assumptions", span("geometry.check_assumptions", geo.check_assumptions))
        rebind([risk], "phi_many", counted(geo.phi_many, _phi_many))
        # measures
        rebind([cli], "check_a3_a4", span("measures.check_a3_a4", meas.check_a3_a4))
        rebind([stab], "wasserstein1", span("measures.wasserstein1", meas.wasserstein1, _w1))
        rebind([stab], "perturb", span("measures.perturb", meas.perturb))
        rebind([risk], "discretize", span("measures.discretize", meas.discretize, _discretize))
        # risk: counters on the atom passes inside the layer, spans at its boundary
        rebind([risk], "cell_measures", counted(risk.cell_measures, _cell_measures))
        rebind([risk], "eval_q_many", counted(risk.eval_q_many, _eval_q_many))
        for name in ("eval_q", "grad_q", "make_objective"):
            rebind([cli], name, span(f"risk.{name}", getattr(risk, name)))
        for name in ("eval_q", "grad_q", "eval_q_many"):
            rebind([solver], name, span(f"risk.{name}", getattr(risk, name)))
        rebind([cert], "make_objective", span("risk.make_objective", risk.make_objective))
        for name in ("value", "grad"):
            method = getattr(risk.RiskObjective, name)
            rebind([risk.RiskObjective], name, span(f"risk.RiskObjective.{name}", method))
        # certify
        rebind([cli], "monotonicity_modulus",
               span("certify.monotonicity_modulus", cert.monotonicity_modulus, _pairs))
        rebind([cli], "eta_threshold_sweep", span("certify.eta_threshold_sweep", cert.eta_threshold_sweep))
        # solver
        rebind([cli, stab], "solve_two_stage", span("solver.solve_two_stage", solver.solve_two_stage, _solve))
        rebind([stab], "grid_search_oracle", span("solver.grid_search_oracle", solver.grid_search_oracle))
        rebind([solver], "feasible_box", counted(solver.feasible_box, _feasible_box))
        rebind([solver.PolyhedralProjector], "__call__",
               counted(solver.PolyhedralProjector.__call__, _projection))
        # stability
        rebind([cli], "run_stability_experiment",
               span("stability.run_stability_experiment", stab.run_stability_experiment, _records))
        for name in ("records_to_csv", "estimate_holder_exponent"):
            rebind([cli], name, span(f"stability.{name}", getattr(stab, name)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, incl, calls = Counter(), Counter(), Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name.split(".")[0]] += end - start - child
            incl[name] += end - start
            calls[name] += 1
        c = self.counts
        pivots, products, pairs = c["lp.pivots"], c["risk.atom_vertex_products"], c["certify.pairs"]
        total = {
            "lp.calls": calls["lp.solve_lp"], "lp.pivots": pivots, "lp.self_s": self_s["lp"],
            "lp.us_per_pivot": 1e6 * self_s["lp"] / pivots if pivots else 0.0,
            "measures.w1_calls": calls["measures.wasserstein1"],
            "measures.w1_columns": c["measures.w1_columns"], "measures.w1_s": incl["measures.wasserstein1"],
            "measures.discretize_calls": calls["measures.discretize"],
            "measures.discretize_atoms": c["measures.discretize_atoms"],
            "measures.discretize_s": incl["measures.discretize"],
            "risk.calls": sum(n for name, n in calls.items() if name.startswith("risk.")),
            "risk.atom_vertex_products": products, "risk.self_s": self_s["risk"],
            "risk.ns_per_product": 1e9 * self_s["risk"] / products if products else 0.0,
            "geometry.fan_enumerations": calls["geometry.enumerate_dual_vertices"],
            "geometry.fan_s": incl["geometry.enumerate_dual_vertices"],
            "certify.pairs": pairs, "certify.self_s": self_s["certify"],
            "certify.s_per_pair": incl["certify.monotonicity_modulus"] / pairs if pairs else 0.0,
            "solver.solves": calls["solver.solve_two_stage"],
            "solver.certified_solves": c["solver.certified_solves"],
            "solver.det_eq_columns": c["solver.det_eq_columns"],
            "solver.subgradient_iterations": c["solver.subgradient_iterations"],
            "solver.feasible_box_lps": c["solver.feasible_box_lps"],
            "solver.projections": c["solver.projections"], "solver.self_s": self_s["solver"],
            "stability.records": c["stability.records"], "stability.self_s": self_s["stability"],
            "problem_io.load_s": incl["problem_io.load_problem"],
            "problem_io.dump_s": incl["problem_io.dump_json"], "cli.self_s": self_s["cli"],
        }
        ratios = ("lp.us_per_pivot", "risk.ns_per_product", "certify.s_per_pair")
        return {k: v if k in ratios else v / rounds for k, v in total.items()}

    def dump(self, path: str, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
