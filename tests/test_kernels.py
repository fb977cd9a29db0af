"""Backend selection and numba/numpy path agreement."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zermelo import _kernels
from zermelo.flow import BOUNDARY_PAD, MAX_STEP, MAX_STEPS, StepControl

_PROBE = """
import json, math, sys
import numpy as np
from zermelo import ExtendedState, StepControl, integrate_numeric, make_historical, make_vortex
from zermelo import _kernels

out = {"backend": _kernels.BACKEND, "finals": []}
control = StepControl()
for problem, state, t in (
    (make_historical(), (0.0, 2.0, -2.0), 2.0),
    (make_historical(), (0.0, 2.0, 0.7), 1.0),
    (make_vortex(1.0), (1.0, 0.0, 1.1), 1.0),
):
    traj = integrate_numeric(problem, ExtendedState(*state), t, control)
    out["finals"].append([traj.final_state.c1, traj.final_state.c2, traj.final_state.heading, len(traj)])
print(json.dumps(out))
"""


def _run_probe(disable: bool):
    env = dict(os.environ)
    env[_kernels.NUMBA_ENV_FLAG] = "1" if disable else "0"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def probes():
    """Probe output with numba allowed (False) and disabled (True), one run each."""
    return {disable: _run_probe(disable) for disable in (False, True)}


def test_env_flag_selects_backend(probes):
    fast, slow = probes[False], probes[True]
    assert slow["backend"] == "numpy"
    assert fast["backend"] in ("numba", "numpy")  # numba expected when installed


def test_backends_agree(probes):
    fast, slow = probes[False], probes[True]
    for a, b in zip(fast["finals"], slow["finals"]):
        assert a[3] == b[3]  # identical accepted-step counts
        assert np.allclose(a[:3], b[:3], atol=1e-12)


def test_rhs_values():
    # canonical right-hand side for each family code
    dr, dth, dal = _kernels.rhs(0, 0.0, 0.0, 0.0, 2.0, math.pi / 2.0)
    assert np.allclose((dr, dth, dal), (0.0, 3.0, 1.0))
    dr, dth, dal = _kernels.rhs(1, 1.0, 0.0, 0.0, 1.0, 0.0)
    assert np.allclose((dr, dth, dal), (1.0, 1.0, 0.0))
    dr, dth, dal = _kernels.rhs(2, 2.0, 1.0, 1.0, 2.0, math.pi / 2.0)
    # m = r, mu = 2 r: dtheta = 2r + 1/r; dalpha = 2*r - 1/r
    assert np.allclose((dr, dth, dal), (0.0, 4.5, 3.5))


def test_at_times_matches_trajectory_endpoint():
    control = StepControl()
    ts = np.array([0.0, 0.4, 1.0])
    out = np.full((3, 3), np.nan)
    filled, status = _kernels.rk45_at_times(
        0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.9, ts,
        control.tol, control.tol, MAX_STEP,
        -math.inf, math.inf, BOUNDARY_PAD, MAX_STEPS, out,
    )
    assert filled == 3 and status == _kernels.STATUS_OK
    assert np.allclose(out[0], (2.0, 0.0, 0.9))
    n_max = MAX_STEPS + 1
    out_t = np.empty(n_max)
    out_y = np.empty((n_max, 3))
    n, status2 = _kernels.rk45_trajectory(
        0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.9, 1.0,
        control.tol, control.tol, MAX_STEP,
        -math.inf, math.inf, BOUNDARY_PAD, out_t, out_y,
    )
    assert status2 == _kernels.STATUS_OK
    assert np.allclose(out[2], out_y[n - 1], atol=1e-10)


def test_max_steps_status():
    out_t = np.empty(4)
    out_y = np.empty((4, 3))
    n, status = _kernels.rk45_trajectory(
        0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.9, 50.0,
        1e-10, 1e-10, 0.25, -math.inf, math.inf, 1e-6, out_t, out_y,
    )
    assert status == _kernels.STATUS_MAX_STEPS
    assert n == 4


def test_domain_exit_status():
    control = StepControl()
    n_max = MAX_STEPS + 1
    out_t = np.empty(n_max)
    out_y = np.empty((n_max, 3))
    n, status = _kernels.rk45_trajectory(
        1, 1.0, 0.0, 0.0, 0.2, 0.0, math.pi, 0.5,
        control.tol, control.tol, MAX_STEP,
        0.0, math.inf, BOUNDARY_PAD, out_t, out_y,
    )
    assert status == _kernels.STATUS_DOMAIN_EXIT
    assert out_y[n - 1, 0] <= BOUNDARY_PAD
