"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The traced benchmark run replaces module bindings with timing wrappers and
stops on a binding that is gone.  These checks find a renamed or dropped
name in the quick test suite, without a benchmark run.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from zermelo import ExtendedState, _kernels, integrate_numeric, make_vortex, state_at
from zermelo.flow import STATUS_NAMES

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


def test_every_traced_binding_resolves_to_a_callable():
    for owner, attr, _, _ in tracing.BINDINGS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_imported_bindings_are_called_by_their_module():
    # a wrapper on a name its module imports but never calls would count nothing
    for owner, attr, _, _ in tracing.BINDINGS:
        if inspect.ismodule(owner) and getattr(owner, attr).__module__ != owner.__name__:
            assert f"{attr}(" in inspect.getsource(owner), f"{owner.__name__}.{attr}"


def test_step_counter_target_and_backend_resolve():
    assert callable(tracing._kernels._attempt_step)
    assert tracing._kernels.BACKEND == "numpy"


def test_step_counter_reads_the_error_of_every_trial_step(monkeypatch):
    # the counter reads a trial step's error norm as result[3]
    calls = []
    attempt = _kernels._attempt_step

    def counted(*args):
        calls.append(1)
        return attempt(*args)

    monkeypatch.setattr(_kernels, "_attempt_step", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        integrate_numeric(make_vortex(1.0), ExtendedState(0.5, 0.0, 1.1), 0.5)
    finally:
        tracer.uninstall()
    assert len(calls) > 0
    assert tracer.counts["kernels.trial_steps"] == len(calls)
    assert 0 < tracer.counts["kernels.finite_trial_steps"] <= len(calls)


def test_tracer_reads_row_counts_and_targets():
    # the tracer counts a trajectory's steps as result[0] - 1 and the
    # targets of a sampler as len(args[7])
    problem = make_vortex(1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traj = integrate_numeric(problem, ExtendedState(0.5, 0.0, 1.1), 0.5)
        state_at(traj, 0.5 * (traj.t[1] + traj.t[2]))
    finally:
        tracer.uninstall()
    assert tracer.counts["kernels.rk45_trajectory.steps"] == len(traj) - 1
    assert tracer.counts["kernels.rk45_at_times.targets"] == 1


def test_at_times_argument_7_is_ts():
    # the tracer counts targets as len(args[7])
    assert list(inspect.signature(_kernels.rk45_at_times).parameters)[7] == "ts"


@pytest.mark.parametrize(
    "r0, tol, expected",
    [
        (0.5, 1e-10, _kernels.STATUS_OK),
        # tol 1e-30: the step size falls below its floor, at and away from r = 0
        (5e-4, 1e-30, _kernels.STATUS_DOMAIN_EXIT),
        (0.01, 1e-30, _kernels.STATUS_STEP_COLLAPSE),
    ],
)
def test_kernel_statuses_are_python_ints(r0, tol, expected):
    # the statuses are dict keys of flow.STATUS_NAMES and the tracer's
    # HALT_NAMES; a 0-d numpy array there would be unhashable
    problem = make_vortex(1.0)
    head = (problem.code, problem.k, problem.a, problem.b, r0, 0.0, 1.1)
    _, at_times, _ = _kernels.rk45_at_times(*head, np.array([0.0, 0.3]), tol, *problem.domain)
    _, trajectory, _, _ = _kernels.rk45_trajectory(*head, 0.3, tol, *problem.domain)
    for status in (at_times, trajectory):
        assert type(status) is int and status == expected
        assert status in STATUS_NAMES
