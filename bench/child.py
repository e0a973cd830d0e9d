"""One workload in a fresh interpreter: import the CLI, run passes, report.

    python3 bench/child.py PLAN.json     run the plan, write plan["report"]
    python3 bench/child.py --ready       import the CLI and exit

Both forms print "ready" on stdout as soon as conformal_heat.cli is
imported, which is how bench/run.py times set-up.  Nothing heavier than
the standard library is imported before that line.

A pass runs every leg of the plan once through conformal_heat.cli.main;
only the main() calls are timed.  Passes repeat while one more fits in
plan["seconds"], and at least MIN_PASSES times.  There is no warm-up pass:
the first pass measured the same as later ones, and the median absorbs
it.  With tracing on, untraced and traced passes alternate, so the traced
run also measures its own overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from conformal_heat import cli

print("ready", flush=True)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fp:
            return hashlib.sha256(fp.read()).hexdigest()
    except OSError:
        return None


def run_pass(legs: list[dict], results: list[list]) -> float:
    """Run each leg once; append (exit code, output digest, seconds) per leg."""
    total = 0.0
    for leg, seen in zip(legs, results):
        if os.path.exists(leg["out"]):
            os.remove(leg["out"])
        t0 = time.perf_counter()
        try:
            code = cli.main(leg["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # keep measuring; the failure is reported
            print(f"leg {leg['argv'][:3]} raised {exc!r}", file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - t0
        total += elapsed
        seen.append([code, _digest(leg["out"]), elapsed])
    return total


def main(plan_path: str) -> int:
    with open(plan_path) as fp:
        plan = json.load(fp)
    legs = plan["legs"]
    results: list[list] = [[] for _ in legs]
    tracer = None
    if plan["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(legs, results))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                wall = run_pass(legs, results)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracer.summary(), wall))
        now = time.perf_counter()
        # stop when one more round like the last would run past the budget
        over = now + (now - round_start) - start > plan["seconds"]
        if over and len(plain) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES):
            break
    if tracer is not None:
        tracer.dump(plan["spans"])

    report = {
        "pass_s": plain,
        "traced_pass_s": traced,
        "layers": layers,
        "legs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(plan["report"], "w") as fp:
        json.dump(report, fp)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--ready"]:
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
