"""One workload in one process: measure, check, print the result line.

Started by ``run.py``, which owns process isolation and passes the
monotonic time at which it spawned this process, so ``setup_s`` counts
interpreter start-up and imports too.  The last line of standard output is
the JSON result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

import spec  # noqa: E402
from common import (  # noqa: E402
    CheckFailed,
    end_to_end,
    per_layer,
    schedule,
)

#: scratch space for WAL files and span dumps, inside the checkout
WORK = CHECKOUT / ".perfbench"


def _load(name: str, seed: int, scale: str, workdir: Path):
    if name in ("sim-fleet", "sim-serving"):
        from sim import SimWorkload
        return SimWorkload(name, seed, scale)
    if name == "service-churn":
        from service import ServiceWorkload
        return ServiceWorkload(seed, scale, workdir=workdir)
    if name == "plan-dense":
        from plan import PlanWorkload
        return PlanWorkload(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def _dump_timings(name, seed, trace, traced, timed) -> None:
    """Keep every repeat's raw timings, so each run can be re-analysed."""
    path = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        kind: [{"build_s": r.build_s, "wall_s": r.wall_s, "work": r.work,
                "segments": r.segments, "op_s": r.op_s} for r in reps]
        for kind, reps in (("traced", traced), ("timed", timed))}))


def run(name: str, *, seed: int, seconds: float, trace: bool,
        spawned_at: float, scale: str = "full") -> dict:
    """Measure one workload; returns the result object (without printing)."""
    workdir = WORK / f"work-{name}-{seed}-{int(spawned_at * 1e6)}"
    attempted = failed = 0
    try:
        workload = _load(name, seed, scale, workdir)
        setup_fixed_s = time.monotonic() - spawned_at
        timed, traced, tracer = schedule(
            workload.repeat, seconds=seconds, trace=trace,
            min_repeats=workload.min_repeats,
            traced_reference=workload.traced_reference)
        repeats = traced + timed
        for label, reps in (("traced", traced), ("timed", timed)):
            print(f"[{name}] {label} repeats: " + " ".join(
                f"{r.work / r.wall_s:.6g}/s ({r.wall_s:.2f}s, build "
                f"{r.build_s:.2f}s)" for r in reps), file=sys.stderr)
        _dump_timings(name, seed, trace, traced, timed)
        attempted = sum(r.attempted for r in repeats)
        failed = sum(r.failed for r in repeats)
        workload.check(repeats)
        if trace:
            metrics = per_layer(tracer, traced, timed, spec.LAYERS,
                                spec.LAYERS_WITH_PERCENTILES)
            metrics.update(workload.quality(repeats, traced))
            tracer.write(WORK / "traces" / f"{name}-seed{seed}.json",
                         workload=name, seed=seed)
            units = spec.per_layer_metrics()
        else:
            metrics = end_to_end(
                timed, setup_fixed_s=setup_fixed_s,
                builds=[r.build_s for r in repeats],
                pms_used=workload.pms_used(repeats))
            units = [(n, u, b) for n, u, b, _ in spec.END_TO_END]
        unknown = set(metrics) - {n for n, _, _ in units}
        if unknown:
            raise KeyError(f"metrics missing from the spec: {sorted(unknown)}")
        return {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
                        for n, u, _ in units},
        }
    except CheckFailed as exc:
        print(f"[{name}] correctness check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": failed + 1, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), spawned_at=args.spawned_at,
                     scale=args.scale)
    except Exception:
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
