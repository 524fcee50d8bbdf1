"""The repository benchmark: one workload per fresh, single-threaded process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-fleet --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, untraced
                                                # then traced, as a table
    python3 perfbench/run.py --write-spec       # regenerate BENCHMARK.json

A single-workload run prints one JSON result as its last line and exits 0
when every correctness check held.  Isolation is owned here: the worker
runs in its own interpreter with BLAS/OpenMP pinned to one thread and
``REPRO_CACHE_DIR`` unset, so no MapCal solve leaks between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: a run that has not finished by then is killed and reported as failed
TIMEOUT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def isolated_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, *, seed: int, seconds: float, trace: int,
               scale: str = "full") -> tuple[int, str, str]:
    """Run one workload in a fresh process; returns (code, stdout, stderr)."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(spawned_at),
           "--scale", scale]
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=isolated_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\n{workload}: killed after {TIMEOUT_S} s"
        return 124, out, err
    return proc.returncode, out, err


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; print a metric table."""
    status = 0
    for trace in (0, 1):
        for name, _ in spec.WORKLOADS:
            code, out, err = run_worker(name, seed=seed, seconds=seconds,
                                        trace=trace)
            result = last_json(out)
            if code != 0 or result is None:
                status = 1
                sys.stderr.write(err)
                print(f"{name} trace={trace}: FAILED (exit {code})")
                continue
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:<48} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes for the smoke test")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (CHECKOUT / "BENCHMARK.json").write_text(text)
        return 0
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {CHECKOUT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required (or --all / --write-spec)")
    code, out, err = run_worker(args.workload, seed=args.seed,
                                seconds=args.seconds, trace=args.trace,
                                scale=args.scale)
    sys.stderr.write(err)
    if last_json(out) is None:
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
