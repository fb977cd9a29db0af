"""One workload in one fresh process; prints its raw measurements as JSON.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to take the median set-up time), so that set-up time and
peak memory belong to a single workload.  The thread variables are pinned
before numpy is imported.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import zermelo  # noqa: E402

if not Path(zermelo.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"zermelo was imported from {zermelo.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_one(workload, task):
    """Time one task, then check it outside the timer -> (seconds, passed, diag)."""
    start = time.perf_counter()
    try:
        result = workload.run(task)
    except Exception:  # a task that raises counts as failed; the run goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, {}
    elapsed = time.perf_counter() - start
    try:
        passed, diag = workload.check(task, result)
    except Exception:  # an unreadable result fails its check
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, {}
    return elapsed, bool(passed), diag


def run_cycles(workload, tasks, seconds, max_tasks):
    """Closed loop over whole cycles, stopping on the cycle end nearest ``seconds``."""
    records = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(workload.cycle):
            records.append(run_one(workload, tasks[len(records) % len(tasks)]))
            if max_tasks and len(records) >= max_tasks:
                return records
        now = time.perf_counter()
        if now - start + 0.5 * (now - cycle_start) >= seconds:
            return records


DIAG_KEYS = ("cusp_norm_err", "jump_left_err")


def worst(records, key):
    values = [diag[key] for _, _, diag in records if key in diag]
    return max(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-tasks", type=int, default=0, help="stop after N tasks (0: no cap)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.make(args.workload, work_dir)
        tasks = workload.generate(args.seed)
        setup_s = time.perf_counter() - SETUP_START
        out = {"setup_s": setup_s}
        if not args.setup_only:
            out.update(measure(workload, tasks, args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(workload, tasks, args) -> dict:
    workload.run(tasks[0])  # warm-up: first-call costs stay out of the timed tasks
    if not args.trace:
        records = run_cycles(workload, tasks, args.seconds, args.max_tasks)
        distinct = len(records)
        layers = None
    else:
        # untraced half, then the same tasks again under the tracer
        plain = run_cycles(workload, tasks, 0.5 * args.seconds, args.max_tasks)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced = [run_one(workload, tasks[i % len(tasks)]) for i in range(len(plain))]
        finally:
            tracer.uninstall()
        overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain) - 1.0
        records = plain + traced
        distinct = len(plain)
        diag = {key: worst(traced, key) for key in DIAG_KEYS}
        layers = tracing.layer_metrics(tracer, len(traced), overhead, diag)
    return {
        "task_s": [r[0] for r in records],
        "passed": [r[1] for r in records],
        "diag": {key: worst(records, key) for key in DIAG_KEYS},
        "pool_wrapped": distinct > len(tasks),
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": zermelo._kernels.BACKEND,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
