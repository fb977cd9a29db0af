"""zermelo benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload vortex-ball --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload runs in its own process (``worker.py``), single-threaded, as
a closed loop: the next task starts when the last one ends.  The run stops
on the whole cycle of tasks that ends nearest ``--seconds``.  Every task is
checked after it ends, outside the timer.

``--trace 0`` prints the end-to-end metrics, measured untraced; set-up time
is the median over the measuring process and ``SETUP_PROCESSES`` extra
set-up-only ones, half started before it and half after.  ``--trace 1``
runs half the time untraced, then the same tasks again with every layer
wrapped from the outside, and prints the per-layer metrics with the
tracing overhead.

The lines before the last describe the run: environment, every metric
with its unit, failure fraction, p90 (only with at least 100 tasks, so that
ten samples lie beyond it) and sample counts.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vortex-ball", "historical-cli", "geodesic-bundle")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
P90_MIN_TASKS = 100
SETUP_PROCESSES = 10  # set-up-only processes per run; setup_s is their median with the measuring one


def worker(args, name: str, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--max-tasks", str(args.max_tasks)]
    if setup_only:
        cmd.append("--setup-only")
    # run() kills and reaps the worker when the deadline passes
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(name: str, raw: dict, setups: list[float], trace: int) -> dict:
    task_s, passed = raw["task_s"], raw["passed"]
    attempted, n_passed = len(task_s), sum(passed)
    env = raw["env"]
    print(f"# {name}: {attempted} tasks run; env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if raw["pool_wrapped"]:
        print("# input pool exhausted: tasks repeated")
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "tasks_per_s": (n_passed / sum(task_s), "1/s"),
            "task_s_p50": (statistics.median(task_s), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        print(f"# task_s_p50 over {attempted} samples; setup_s median of {len(setups)} set-ups")
        if attempted >= P90_MIN_TASKS:
            p90 = statistics.quantiles(task_s, n=10)[-1]
            print(f"task_s_p90 {p90:.6g} s ({attempted} samples)")
        else:
            print(f"# task_s_p90 not reported: {attempted} < {P90_MIN_TASKS} samples")
        print(f"fail_frac {(attempted - n_passed) / attempted:.6g} ratio "
              f"({attempted - n_passed} of {attempted})")
        print(f"# check.cusp_norm_err_max {raw['diag']['cusp_norm_err']:.3g}, "
              f"check.jump_left_err_max {raw['diag']['jump_left_err']:.3g}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    return {
        "correct": n_passed == attempted,
        "attempted": attempted,
        "failed": attempted - n_passed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-tasks", type=int, default=0,
                        help="stop after N tasks instead of on a cycle end (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zermelo" / "__init__.py").is_file():
        print(f"error: no zermelo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        for name in names:
            # set-up-only processes: half before the measuring one, half after,
            # so that setup_s samples the host at both ends of the run
            n_setups = 0 if args.trace else SETUP_PROCESSES // 2
            setups = [worker(args, name, deadline, setup_only=True)["setup_s"]
                      for _ in range(n_setups)]
            raw = worker(args, name, deadline)
            setups += [raw["setup_s"]] + [worker(args, name, deadline, setup_only=True)["setup_s"]
                                          for _ in range(n_setups)]
            result = summarize(name, raw, setups, args.trace)
            print(json.dumps(result), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
