"""arnoldstab benchmark: one workload, one seed, one time budget.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Workloads: transport, verdict, probe (see workloads.py).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics (see
measure.py) and writes the spans to perfbench/out/.  The program is imported
from ``src/`` of the checkout; without it the run exits with code 2.

Before the last line the run prints an environment record, the known-defect
records and every metric with its unit and sample count.  The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("ARNOLD_STAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap the linear-algebra pools at min(2, nproc) unless the caller set a
    cap; must run before numpy is imported."""
    cap = os.environ.get("ARNOLD_STAB_THREADS") or str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ.setdefault(var, cap)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("transport", "verdict", "probe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "arnoldstab" / "__init__.py").is_file():
        print("perfbench: no arnoldstab sources under %s" % SRC, file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import arnoldstab

    if Path(arnoldstab.__file__).resolve().parent != SRC / "arnoldstab":
        print("perfbench: arnoldstab imported from %s" % arnoldstab.__file__, file=sys.stderr)
        return 2
    import measure

    spans_path = None
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans_path = HERE / "out" / ("spans-%s-%d.json" % (args.workload, args.seed))
    result, report = measure.run(args.workload, args.seed, args.seconds, args.trace, spans_path=spans_path)

    print("env " + json.dumps(environment(args)))
    for kd in report["known_defects"]:
        print("known-defect %s: %s (%s)" % (kd["operation"], "FAILED" if kd["failed"] else "ok", kd["detail"]))
    for name, m in report["metrics"].items():
        print("metric %-28s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["n"]))
    for name, m in report["extras"].items():
        if isinstance(m, dict):
            print("alias  %-28s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["n"]))
        elif m:
            print("%s: %s" % (name.replace("_", "-"), ", ".join(m)))
    for failure in report["failures"]:
        print("gate-failed %s" % failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
