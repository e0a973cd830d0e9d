"""Benchmark of the conformal-heat command line, run from the repository root.

    python3 bench/run.py --workload kernel-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see bench/workloads.py): `kernel-table`, `apply-field` and
`verify-full`.  Inputs come from --seed.  The CLI runs in one fresh
interpreter per workload (bench/child.py) with BLAS and OpenMP pinned to
one thread, importing the package from ./src.  Every output file is
checked by bench/oracles.py, which does not use the package.

With --trace 0 the last stdout line reports the end-to-end metrics:
  wall_s       median seconds of one pass through the workload's commands
  items_per_s  points, complex samples read + written, or checks per second
  setup_s      median seconds from interpreter start to conformal_heat.cli ready
  peak_rss_mb  peak resident memory of the workload's process
  ok_frac      share of the commands that exited 0 with correct, repeatable output
With --trace 1 it reports the per-layer metrics of bench/tracer.py from a
separate traced run, and trace.overhead_s, the traced minus the untraced
median pass time.  The line before the result holds the environment,
sizes and byte counts of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 11
TIME_LIMIT_S = 170.0
PINNED_THREADS = "1"
EXACT_UNITS = ("count", "bytes")  # traced counts repeat exactly; keep them whole
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONFORMAL_HEAT_TOL"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def spawn(args: list[str], env: dict, deadline: float) -> float:
    """Run bench/child.py to the end; return the seconds until it printed "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - t0))[0]:
            raise BenchError(f"child {args} printed nothing before the time limit")
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} passed the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"child {args} failed with exit code {proc.returncode}")
    return ready


def cache_sizes() -> dict:
    """L1d/L2/L3 sizes in bytes as the C library reports them."""
    out = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            value = subprocess.run(["getconf", level], capture_output=True, text=True,
                                   timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            continue
        if value.isdigit():
            out[level] = int(value)
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": int(PINNED_THREADS),
        "caches": cache_sizes(),
    }


def failures(plan: dict, report: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command the child ran.

    A command fails on a nonzero exit, on output bytes that differ from the
    checked output of the same leg, or when that output fails its oracle.
    """
    attempted = failed = 0
    problems: list[str] = []
    for leg, runs in zip(plan["legs"], report["legs"]):
        attempted += len(runs)
        checked = runs[-1][1]
        leg_problems = oracles.check_leg(leg) if checked else [f"{leg['out']}: not written"]
        problems += leg_problems
        for code, digest, _ in runs:
            if code != 0 or digest != checked or leg_problems:
                failed += 1
        if any(digest != checked for _, digest, _ in runs):
            problems.append(f"{leg['out']}: output bytes differ between repeats")
        if any(code != 0 for code, _, _ in runs):
            problems.append(f"{leg['argv'][:3]}: nonzero exit codes {sorted({c for c, _, _ in runs})}")
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: str, workdir: str,
                 sizes: workloads.Sizes = workloads.FULL) -> tuple[dict, dict]:
    """Run one workload with its files in workdir; return (result line, info line)."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.build(name, seed, workdir, sizes)
    plan.update(seconds=seconds, trace=trace,
                report=os.path.join(workdir, "report.json"),
                spans=os.path.join(workdir, "spans.jsonl"))
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fp:
        json.dump(plan, fp, indent=1)

    env = child_env(root)
    setup = [spawn(["--ready"], env, deadline) for _ in range(SETUP_SPAWNS)]
    spawn([plan_path], env, deadline)
    with open(plan["report"]) as fp:
        report = json.load(fp)

    attempted, failed, problems = failures(plan, report)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    wall = statistics.median(report["pass_s"])
    if trace:
        per_pass = report["layers"]
        units = {key: unit for key, (_, unit) in per_pass[0].items()}
        metrics = {key: (statistics.median_low if unit in EXACT_UNITS else statistics.median)(
                       [p[key][0] for p in per_pass]) for key, unit in units.items()}
        metrics["trace.overhead_s"] = statistics.median(report["traced_pass_s"]) - wall
        units["trace.overhead_s"] = "s"
    else:
        metrics = {
            "wall_s": wall,
            "items_per_s": plan["items_per_pass"] / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

    info = {
        "workload": name,
        "why": plan["why"],
        "seed": seed,
        "environment": environment(),
        "sizes": plan["sizes"],
        "items_per_pass": plan["items_per_pass"],
        "input_bytes": plan["input_bytes"],
        "output_bytes": {os.path.basename(leg["out"]): os.path.getsize(leg["out"])
                         for leg in plan["legs"] if os.path.exists(leg["out"])},
        "computed_quadrature_bytes_per_build": sizes.verify_n ** 2 * 16,
        "pass_s": report["pass_s"],
        "leg_median_s": [statistics.median(t for _, _, t in runs) for runs in report["legs"]],
        "traced_pass_s": report["traced_pass_s"],
        "setup_samples_s": setup,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w") as fp:
        json.dump({"info": info, "result": result}, fp, indent=1)
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "conformal_heat", "cli.py")):
        print("error: run from the repository root; src/conformal_heat/cli.py not found",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace), root,
                             os.path.join(root, ".bench_work", n)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        result, info = runs[0]
        print(json.dumps(info))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (result, info) in zip(names, runs):
        print(json.dumps(info))
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
