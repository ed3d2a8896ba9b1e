"""Benchmark of recourselab's CLI, one workload per process.

    python3 perfbench/run.py --workload certify-box2d --seed 1 --seconds 25 --trace 0

Every operation is `recourselab.cli.main([...])` called in-process with
`--out` in a scratch directory and `--threads 1`. A run sets up (imports the
package from this checkout's `src/` and runs one untimed warm-up op per op
kind, five times, reporting the median), then repeats whole rounds of the
workload's seeded op list until `--seconds` have passed, reads peak RSS, and
only then checks every output (checks.py, which imports scipy). The last
line of stdout is the JSON result: end-to-end metrics with `--trace 0`,
per-layer metrics (spans.py) with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")

SETUP_SAMPLES = 5
TAIL_PERCENTILE = 80

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def fresh_import():
    """Import recourselab from this checkout's src/, dropping any earlier
    import first, so each set-up sample pays the package import again."""
    for name in [m for m in sys.modules if m == "recourselab" or m.startswith("recourselab.")]:
        del sys.modules[name]
    rl = importlib.import_module("recourselab")
    if os.path.dirname(os.path.dirname(os.path.abspath(rl.__file__))) != SRC:
        raise ImportError(f"recourselab was imported from {rl.__file__}, not from {SRC}")
    importlib.import_module("recourselab.cli")
    return rl


def run_op(main, argv, out_path):
    """One timed CLI call; returns (exit code or None if it raised, output, stderr, seconds)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    text = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    return rc, text, err.getvalue(), seconds


def classify(checks, op, rc, text, stderr):
    """(status, reason) with status 'ok', 'failed' or 'wrong'."""
    if rc is None:
        return "failed", "raised: " + stderr.strip().splitlines()[-1]
    if text is None:
        return "failed", f"exit {rc} and no output; stderr: {stderr.strip()}"
    try:
        checks.check(op, rc, text)
    except checks.OpFailed as exc:
        return "failed", str(exc)
    except checks.WrongOutput as exc:
        return "wrong", str(exc)
    return "ok", ""


def tally(checks, ops, results):
    """Check the first output of every op; later rounds ran identical inputs,
    so their outputs must be byte-identical to it. Returns attempted, failed,
    wrong and a count per (kind, status, reason)."""
    attempted = failed = wrong = 0
    reasons = {}
    for op, runs in zip(ops, results):
        first = runs[0]
        verdict = classify(checks, op, first[0], first[1], first[2])
        for rc, text, _, _ in runs:
            attempted += 1
            if (rc, text) != (first[0], first[1]):
                status = ("wrong", "output differs between rounds for identical input")
            else:
                status = verdict
            if status[0] != "ok":
                failed += status[0] == "failed"
                wrong += status[0] == "wrong"
                reasons[(op.kind,) + status] = reasons.get((op.kind,) + status, 0) + 1
    return attempted, failed, wrong, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "recourselab", "__init__.py")):
        print(f"error: no recourselab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = workloads.round_ops(args.workload, args.seed)
    warm = workloads.warmup_ops(args.workload)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = workloads.write_inputs(ops, work, "op")
        warm_paths = workloads.write_inputs(warm, work, "warm")

        setup = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            rl = fresh_import()
            for op, (problem, plans, out) in zip(warm, warm_paths):
                run_op(rl.cli.main, op.argv(problem, plans, out), out)
            setup.append(time.perf_counter() - start)

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(rl)
        argvs = [op.argv(*p) for op, p in zip(ops, paths)]
        results = [[] for _ in ops]
        rounds = 0
        start = time.perf_counter()
        while True:
            for i, argv_i in enumerate(argvs):
                results[i].append(run_op(rl.cli.main, argv_i, paths[i][2]))
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import checks  # imports scipy lazily, after the RSS reading

    attempted, failed, wrong, reasons = tally(checks, ops, results)

    times = [r[3] for runs in results for r in runs]
    end_to_end = {
        "ops_per_s": attempted / wall,
        "op_p50_s": statistics.median(times),
        "op_tail_s": statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"round {len(ops)} ops  rounds {rounds}  timed {wall:.2f} s")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END[name]}")
    print(f"  setup samples: {', '.join(f'{s:.4f}' for s in setup)} s;"
          f" op_tail_s is p{TAIL_PERCENTILE} over {len(times)} ops")
    by_kind = {}
    for op, runs in zip(ops, results):
        by_kind.setdefault(op.kind, []).extend(r[3] for r in runs)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:<32} {len(ts):5d} ops  median {statistics.median(ts):.4f} s")
    print(f"attempted {attempted}  failed {failed}  wrong {wrong}")
    for (kind, status, reason), n in sorted(reasons.items()):
        print(f"  {status} x{n} {kind}: {reason}")
    print("checks: " + (f"{wrong} wrong outputs" if wrong else "all outputs of ops that did not fail are right"))

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        per_layer = tracer.metrics(rounds)
        print("per-layer metrics, per round (the three ratios over all rounds):")
        for name, value in per_layer.items():
            print(f"  {name:<32} {value:14.6g} {spans.PER_LAYER[name]}")
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json"),
                    workload=args.workload, seed=args.seed, rounds=rounds)
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in per_layer.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
