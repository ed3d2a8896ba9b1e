"""JSON schemas for problems, measures, plans, and reports.

Problem files carry the recourse data, a measure, a risk spec, and
optionally the first stage and a certification region:

    {
      "first_stage": {"T": [[...]], "h": [...], "H": [[...]], "X": {"A": [[...]], "b": [...]}},
      "recourse":    {"W": [[...]], "q": [...]},
      "measure":     {"type": "discrete", "atoms": [[...]], "weights": [...]}
                   | {"type": "uniform_box", "lo": [...], "hi": [...]},
      "risk":        {"kind": "expected_excess", "eta": 0.25},
      "region":      {"lo": [...], "hi": [...], "rho": 0.1}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import DualVertexFan, RecourseData
from .measures import (BoxDensityMeasure, DiscreteMeasure, JitterPlan, Measure,
                       PerturbationPlan, RegionV, ResamplePlan, ShiftPlan)
from .risk import RiskSpec
from .solver import FirstStage, TwoStageProblem


class ProblemFormatError(ValueError):
    """Malformed or incomplete problem file."""


@dataclass(frozen=True)
class ProblemBundle:
    recourse: RecourseData
    measure: Measure
    risk: RiskSpec
    first_stage: FirstStage | None
    region: RegionV | None

    def two_stage(self, fan: DualVertexFan | None = None) -> TwoStageProblem:
        """The two-stage problem; `fan`, when given, is the recourse data's
        fan, so the solver does not enumerate it again."""
        if self.first_stage is None:
            raise ProblemFormatError("problem file has no first_stage section")
        return TwoStageProblem(self.first_stage, self.recourse, self.measure, self.risk, fan)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ProblemFormatError(f"missing field {key!r} in {where}")
    return mapping[key]


def measure_from_dict(d: dict) -> Measure:
    kind = _require(d, "type", "measure")
    if kind == "discrete":
        return DiscreteMeasure(np.asarray(_require(d, "atoms", "measure"), dtype=float),
                               np.asarray(_require(d, "weights", "measure"), dtype=float))
    if kind == "uniform_box":
        return BoxDensityMeasure(np.asarray(_require(d, "lo", "measure"), dtype=float),
                                 np.asarray(_require(d, "hi", "measure"), dtype=float))
    raise ProblemFormatError(f"unknown measure type {kind!r}")


def measure_to_dict(m: Measure) -> dict:
    if isinstance(m, DiscreteMeasure):
        return {"type": "discrete", "atoms": m.atoms.tolist(), "weights": m.weights.tolist()}
    return {"type": "uniform_box", "lo": m.lo.tolist(), "hi": m.hi.tolist()}


def risk_from_dict(d: dict) -> RiskSpec:
    kind = _require(d, "kind", "risk")
    eta = d.get("eta")
    return RiskSpec(kind, None if eta is None else float(eta))


def region_from_dict(d: dict) -> RegionV:
    return RegionV(np.asarray(_require(d, "lo", "region"), dtype=float),
                   np.asarray(_require(d, "hi", "region"), dtype=float),
                   float(_require(d, "rho", "region")))


def first_stage_from_dict(d: dict) -> FirstStage:
    X = _require(d, "X", "first_stage")
    return FirstStage(
        T=np.asarray(_require(d, "T", "first_stage"), dtype=float),
        h=np.asarray(_require(d, "h", "first_stage"), dtype=float),
        H=np.asarray(d["H"], dtype=float) if d.get("H") is not None else None,
        A_X=np.asarray(_require(X, "A", "first_stage.X"), dtype=float),
        b_X=np.asarray(_require(X, "b", "first_stage.X"), dtype=float),
    )


def load_problem(path: str) -> ProblemBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"problem file {path} is not valid JSON: {exc}") from exc
    return problem_from_dict(raw)


def problem_from_dict(raw: dict) -> ProblemBundle:
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    rec = _require(raw, "recourse", "problem")
    try:
        recourse = RecourseData(np.asarray(_require(rec, "W", "recourse"), dtype=float),
                                np.asarray(_require(rec, "q", "recourse"), dtype=float))
        measure = measure_from_dict(_require(raw, "measure", "problem"))
        risk = risk_from_dict(_require(raw, "risk", "problem"))
        first_stage = first_stage_from_dict(raw["first_stage"]) if raw.get("first_stage") else None
        region = region_from_dict(raw["region"]) if raw.get("region") else None
    except (ValueError, TypeError) as exc:
        raise ProblemFormatError(str(exc)) from exc
    return ProblemBundle(recourse, measure, risk, first_stage, region)


def plans_from_json(raw) -> list[PerturbationPlan]:
    if not isinstance(raw, list):
        raise ProblemFormatError("plans file must hold a JSON list")
    out: list[PerturbationPlan] = []
    for i, d in enumerate(raw):
        kind = _require(d, "kind", f"plan {i}")
        if kind == "shift":
            out.append(ShiftPlan(np.asarray(_require(d, "v", f"plan {i}"), dtype=float)))
        elif kind == "jitter":
            out.append(JitterPlan(float(_require(d, "sigma", f"plan {i}"))))
        elif kind == "resample":
            out.append(ResamplePlan(int(_require(d, "n", f"plan {i}"))))
        else:
            raise ProblemFormatError(f"unknown plan kind {kind!r}")
    return out


def dump_json(obj: dict) -> str:
    """Canonical RFC 8259 JSON: sorted keys, stable float repr, newline. A
    non-finite number raises instead of being written as Infinity or NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
