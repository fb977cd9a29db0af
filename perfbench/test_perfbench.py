"""Smoke tests of the benchmark itself.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from run import P90_MIN_TASKS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(result, declared):
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]


def test_declared_workloads_are_the_runnable_ones():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize(
    "workload, extra, p90",
    [
        ("vortex-ball", ("--max-tasks", "1", "--seconds", "1"), False),
        ("geodesic-bundle", ("--seconds", "20"), True),
    ],
)
def test_end_to_end_metrics_emitted(workload, extra, p90):
    head, result = bench(workload, "--trace", "0", *extra)
    assert_metrics(result, SPEC["end_to_end"])
    assert (result["attempted"] >= P90_MIN_TASKS) == p90
    assert any(line.startswith("task_s_p90 ") for line in head) == p90
    assert any(line.startswith("fail_frac ") for line in head)


def test_per_layer_metrics_emitted():
    _, result = bench("historical-cli", "--trace", "1", "--max-tasks", "1", "--seconds", "1")
    assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["cli.value.s"]["value"] > 0.0
    assert metrics["closedform.historical_positions.self_s"]["value"] > 0.0
    assert metrics["output.bytes"]["value"] > 0.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    workload = workloads.make(name, HERE)  # generating writes nothing
    first = workload.generate(11)
    assert first == workload.generate(11)
    assert first != workload.generate(12)
    assert len(first) % workload.cycle == 0


def test_wrong_vortex_ball_result_fails_its_check():
    workload = workloads.VortexBall()
    task = workloads.VortexBallTask(r0=0.6, th0=0.0, t=0.15)
    tags = [SimpleNamespace(value=v) for v in ("abnormal", "elliptic", "hyperbolic")]
    good = SimpleNamespace(
        t_min=np.array([0.15, 0.1, 0.15]),
        front=SimpleNamespace(tags=tags),
        is_sphere=np.array([False, False, True]),
        abnormal_arcs=[None, None],
    )
    assert workload.check(task, good)[0]
    assert not workload.check(task, SimpleNamespace(**{**vars(good), "t_min": np.array(
        [0.15, 0.1, 0.16])}))[0]
    assert not workload.check(task, SimpleNamespace(**{**vars(good), "is_sphere": np.array(
        [True, False, True])}))[0]
    assert not workload.check(task, SimpleNamespace(**{**vars(good), "abnormal_arcs": [None]}))[0]


def test_wrong_geodesic_result_counts_as_failed():
    import worker

    workload = workloads.GeodesicBundle()
    task = workload.generate(5)[0]
    cusps, crossings = workload.run(task)
    assert workload.check(task, (cusps, crossings))[0]

    class Corrupted(workloads.GeodesicBundle):
        def run(self, task):
            (cp,) = [cp for cp in super().run(task)[0] if cp is not None]
            r, theta = cp.position
            return [dataclasses.replace(cp, position=(1.01 * r, theta))], 0

    records = worker.run_cycles(Corrupted(), [task], seconds=0.0, max_tasks=3)
    assert [passed for _, passed, _ in records] == [False, False, False]
