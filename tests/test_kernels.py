"""The scalar stepper and the lane kernel.

The scalar stepper stores every accepted step or lands on each of a row of
times, through one step policy; both must reach the same state at the same
time.  The lane kernel must give every lane what it gets alone: the same
statuses and halts, the same nan rows, and the same numbers.  Its lanes
share one ascending row of times or take one time each.  The landing rule
and the continuous extension belong to the lane kernel alone: a shared row
runs in its numpy loop until every lane stops, reads the times inside a
step from the continuous extension, and must stay close to a
tight-tolerance reference.  Only lanes of one time reach the scalar
stepper, once few of them run, so for them the numpy step and the scalar
step must agree bit for bit.
"""

import math

import numpy as np
import pytest

from zermelo import _kernels, make_historical, make_powerlaw, make_vortex
from zermelo._kernels import BOUNDARY_PAD, MAX_STEPS
from zermelo.flow import StepControl, endpoints
from zermelo.reachability import COARSE_CONTROL

TOL = StepControl().tol
COARSE = COARSE_CONTROL.tol


def test_rhs_values():
    # canonical right-hand side for each family code
    dr, dth, dal = _kernels.rhs(0, 0.0, 0.0, 0.0, 2.0, math.pi / 2.0)
    assert np.allclose((dr, dth, dal), (0.0, 3.0, 1.0))
    dr, dth, dal = _kernels.rhs(1, 1.0, 0.0, 0.0, 1.0, 0.0)
    assert np.allclose((dr, dth, dal), (1.0, 1.0, 0.0))
    dr, dth, dal = _kernels.rhs(2, 2.0, 1.0, 1.0, 2.0, math.pi / 2.0)
    # m = r, mu = 2 r: dtheta = 2r + 1/r; dalpha = 2*r - 1/r
    assert np.allclose((dr, dth, dal), (0.0, 4.5, 3.5))


def _head(problem):
    return problem.code, problem.k, problem.a, problem.b


def _trajectory(problem, r0, th0, al0, t_final):
    _, status, out_t, out_y = _kernels.rk45_trajectory(
        *_head(problem), r0, th0, al0, t_final, TOL, *problem.domain
    )
    return out_t, out_y, status


def _at_times(problem, r0, th0, al0, ts):
    filled, status, out = _kernels.rk45_at_times(
        *_head(problem), r0, th0, al0, np.asarray(ts), TOL, *problem.domain
    )
    return out, filled, status


@pytest.mark.parametrize(
    "problem, start",
    [
        (make_historical(), (2.0, 0.0, 0.9)),
        (make_vortex(1.0), (0.5, 0.0, 1.1)),
        (make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0, 0.9)),
        (make_powerlaw(1.0, -2.0, 0.5), (0.8, 0.0, 0.9)),
    ],
    ids=["historical", "vortex", "powerlaw-3", "powerlaw-2"],
)
def test_trajectory_end_equals_one_target_sample(problem, start):
    # both kernels take their trial steps through one step policy: the last
    # stored row and the one sample at t_final are the same bits
    out_t, out_y, status = _trajectory(problem, *start, 1.0)
    assert status == _kernels.STATUS_OK and out_t[-1] == 1.0
    out, filled, status = _at_times(problem, *start, [1.0])
    assert filled == 1 and status == _kernels.STATUS_OK
    assert out[0].tolist() == out_y[-1].tolist()


def test_at_times_matches_trajectory_endpoint():
    out, filled, status = _at_times(make_historical(), 2.0, 0.0, 0.9, [0.0, 0.4, 1.0])
    assert filled == 3 and status == _kernels.STATUS_OK
    assert np.allclose(out[0], (2.0, 0.0, 0.9))
    _, out_y, status = _trajectory(make_historical(), 2.0, 0.0, 0.9, 1.0)
    assert status == _kernels.STATUS_OK
    assert np.allclose(out[2], out_y[-1], atol=1e-10)


def test_max_steps_status(monkeypatch):
    # every driver halts by one rule: more than MAX_STEPS trial steps
    monkeypatch.setattr(_kernels, "MAX_STEPS", 3)
    problem, start = make_historical(), (2.0, 0.0, 0.9)
    out_t, out_y, status = _trajectory(problem, *start, 50.0)
    assert status == _kernels.STATUS_MAX_STEPS
    assert out_t.shape[0] == out_y.shape[0] <= _kernels.MAX_STEPS + 1
    _, _, status = _at_times(problem, *start, [50.0])
    assert status == _kernels.STATUS_MAX_STEPS
    ts = np.full((2 * _kernels.TAIL_LANES, 1), 50.0)
    status, _ = _kernels.rk45_lanes(*_head(problem), *start, ts, TOL, *problem.domain)
    assert set(status.tolist()) == {_kernels.STATUS_MAX_STEPS}


def test_domain_exit_status():
    # heading inward from r = 0.2 around the k = 1 vortex
    problem, start = make_vortex(1.0), (0.2, 0.0, math.pi)
    _, out_y, status = _trajectory(problem, *start, 0.5)
    assert status == _kernels.STATUS_DOMAIN_EXIT
    assert out_y[-1, 0] <= BOUNDARY_PAD  # the row that left the domain is stored
    out, filled, status = _at_times(problem, *start, [0.5])
    assert status == _kernels.STATUS_DOMAIN_EXIT
    assert filled == 0 and np.isnan(out).all()


def _one_by_one(problem, r0, th0, alphas, ts, tol=TOL):
    """Each lane alone, the reference for the lane kernel: the scalar sampler
    for one time per lane, the lane kernel on one lane for a shared row."""
    out = np.empty((len(alphas), ts.shape[1], 3))
    status = np.empty(len(alphas), dtype=int)
    for i, al in enumerate(np.asarray(alphas, dtype=float).tolist()):
        if ts.shape[0] == 1:
            status[i : i + 1], out[i : i + 1] = _kernels.rk45_lanes(
                *_head(problem), r0, th0, np.array([al]), ts, tol, *problem.domain
            )
        else:
            _, status[i], out[i] = _kernels.rk45_at_times(
                *_head(problem), r0, th0, al, ts[i], tol, *problem.domain
            )
    return out, status


def _all_at_once(problem, r0, th0, alphas, ts, tol=TOL):
    status, out = _kernels.rk45_lanes(
        *_head(problem), r0, th0, np.asarray(alphas, dtype=float), ts, tol, *problem.domain
    )
    return out, status


def _spy(monkeypatch, name):
    """Replace ``_kernels.<name>`` by a wrapper that records each call's
    arguments and result."""
    calls = []
    original = getattr(_kernels, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(_kernels, name, spy)
    return calls


def _headings(n):
    return np.linspace(-math.pi, math.pi, n, endpoint=False) + 0.01


# a shared row with a t = 0 column and repeated times, inside steps and landed on
_EDGE_TIMES = np.array([[0.0, 0.0, 0.05, 0.05, 0.05, 0.1, 0.1, 0.2, 0.3]])

_TIMES = np.linspace(0.0, 0.5, 6)[None, :]

LANE_CASES = {
    # name: problem, canonical start (r0, th0), headings, times (one shared
    # row, or one time per lane), MAX_STEPS, tol
    "vortex-grid": (
        make_vortex(1.0), (0.5, 0.0), _headings(48), np.linspace(0.0, 0.5, 24)[None, :],
        MAX_STEPS, TOL,
    ),
    "vortex-newton": (
        make_vortex(1.0), (0.5, 0.3), _headings(40),
        np.random.default_rng(3).uniform(0.0, 0.5, (40, 1)), MAX_STEPS, TOL,
    ),
    "powerlaw": (
        make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0), _headings(48),
        np.linspace(0.0, 0.6, 16)[None, :], MAX_STEPS, TOL,
    ),
    "historical": (
        make_historical(), (2.0, 0.0), _headings(32), np.linspace(0.0, 1.0, 12)[None, :],
        MAX_STEPS, TOL,
    ),
    "edge-times": (make_vortex(1.0), (0.5, 0.0), _headings(40), _EDGE_TIMES, MAX_STEPS, TOL),
    # shooting-grid rows: 160 shared times at the coarse control, so most
    # steps hold several times and fill them from the continuous extension
    "vortex-grid-coarse": (
        make_vortex(1.0), (0.5, 0.0), _headings(48), np.linspace(0.0, 0.5, 160)[None, :],
        MAX_STEPS, COARSE,
    ),
    "powerlaw-grid-coarse": (
        make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0), _headings(48),
        np.linspace(0.0, 0.6, 160)[None, :], MAX_STEPS, COARSE,
    ),
    # one time per lane: after 73 passes the numpy loop hands 15 lanes to the
    # scalar stepper, and some of them reach their step limit there
    "max-steps": (
        make_vortex(1.0), (0.5, 0.0), _headings(40), np.linspace(0.05, 2.0, 40)[:, None],
        100, TOL,
    ),
    # every lane reaches its step limit in the numpy loop
    "max-steps-in-loop": (make_vortex(1.0), (0.5, 0.0), _headings(40), _TIMES, 5, TOL),
    # at tol 1e-30 the step size falls below its floor in the numpy loop,
    # next to the r = 0 boundary (a domain exit) and away from it (a collapse)
    "floor-at-boundary": (make_vortex(1.0), (5e-4, 0.0), _headings(40), _TIMES, MAX_STEPS, 1e-30),
    "floor-in-domain": (make_vortex(1.0), (0.01, 0.0), _headings(40), _TIMES, MAX_STEPS, 1e-30),
}

EXPECTED_STATUSES = {
    "powerlaw": {_kernels.STATUS_DOMAIN_EXIT, _kernels.STATUS_OK},
    "powerlaw-grid-coarse": {_kernels.STATUS_DOMAIN_EXIT, _kernels.STATUS_OK},
    "edge-times": {_kernels.STATUS_OK},
    "max-steps": {_kernels.STATUS_MAX_STEPS, _kernels.STATUS_OK},
    "max-steps-in-loop": {_kernels.STATUS_MAX_STEPS},
    "floor-at-boundary": {_kernels.STATUS_DOMAIN_EXIT},
    "floor-in-domain": {_kernels.STATUS_STEP_COLLAPSE},
}


@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_lane_kernel_matches_scalar_sampler(case, monkeypatch):
    problem, (r0, th0), alphas, ts, max_steps, tol = LANE_CASES[case]
    monkeypatch.setattr(_kernels, "MAX_STEPS", max_steps)
    assert ts.shape[0] == 1 or ts.shape == (alphas.shape[0], 1)
    assert alphas.shape[0] > _kernels.TAIL_LANES  # the numpy loop runs
    ref, ref_status = _one_by_one(problem, r0, th0, alphas, ts, tol)

    landings = _spy(monkeypatch, "_land_on")
    out, status = _all_at_once(problem, r0, th0, alphas, ts, tol)
    # the statuses of the batch's lanes that end in the scalar stepper
    tail = [result[6] for _, result in landings]
    if ts.shape[0] == 1:
        assert not tail  # a shared row runs in the numpy loop to its end
    elif case == "max-steps":
        assert _kernels.STATUS_MAX_STEPS in tail and _kernels.STATUS_OK in tail
    assert status.tolist() == ref_status.tolist()
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    finite = ~np.isnan(ref)
    assert finite.any()
    assert np.max(np.abs(out[finite] - ref[finite])) <= 1e-9
    if case in EXPECTED_STATUSES:
        assert EXPECTED_STATUSES[case] <= set(status.tolist())
    # bit for bit, the rows filled from the continuous extension included
    assert np.array_equal(out, ref, equal_nan=True)


@pytest.mark.parametrize(
    "problem, r_range, log_h_max",
    [
        (make_historical(), (-3.0, 3.0), -0.5),
        (make_vortex(1.0), (0.3, 2.0), -1.7),
        # non-integer powers; steps short enough that every stage keeps r > 0
        (make_powerlaw(1.0, -2.0, 0.5), (0.5, 2.0), -1.7),
    ],
    ids=["historical", "vortex", "powerlaw"],
)
def test_lane_step_equals_scalar_step_bit_for_bit(problem, r_range, log_h_max):
    rng = np.random.default_rng(7)
    n = 300
    y = np.stack([
        rng.uniform(*r_range, n), rng.uniform(-math.pi, math.pi, n), rng.uniform(-4.0, 4.0, n)
    ])
    h = 10.0 ** rng.uniform(-6.0, log_h_max, n)
    head = (problem.code, problem.k, problem.a, problem.b)
    k1 = np.empty_like(y)
    _kernels._lane_rhs(*head, y, k1)
    y5, err, stages = _kernels._attempt_lanes(*head, y, h, TOL, k1)
    assert (err > 1.0).any() and (err <= 1.0).any()  # both branches of the controller
    for i in range(n):
        r, th, al = y[:, i].tolist()
        k1 = _kernels.rhs(*head, r, al)
        scalar = _kernels._attempt_step(*head, r, th, al, float(h[i]), TOL, k1)
        assert scalar[:4] == (y5[0, i], y5[1, i], y5[2, i], err[i])
        # FSAL: the last stage is the RHS at the new state, the next step's first
        if math.isfinite(scalar[3]):
            assert scalar[4] == _kernels.rhs(*head, scalar[0], scalar[2])
            assert scalar[4] == tuple(stages[-1, :, i])
        else:
            assert scalar[4:] == (None,)


# trial steps whose float arithmetic leaves the reals, where numpy gives inf
# or nan: (problem, r, theta, alpha, h, tol)
_UNREAL_TRIALS = {
    # a stage at r < 0, where a fractional power turns complex
    "powerlaw-negative-radius": (make_powerlaw(1.0, -2.0, 0.5), 5e-4, 0.0, math.pi, 1e-3, TOL),
    # the second stage lands on r = 0 exactly, and k / (r*r) divides by zero
    "vortex-zero-radius": (make_vortex(1.0), 1e-3 * _kernels._A21, 0.0, math.pi, 1e-3, TOL),
    # r^3 is subnormal, so alpha' is -inf and the second stage takes sin(-inf)
    "vortex-sine-of-infinity": (make_vortex(1.0), 1e-105, 0.0, 1.0, 1e-3, TOL),
    # theta overflows without raising: the trial state is not finite
    "historical-state-overflow": (make_historical(), 1e308, 1.7e308, 1.0, 0.25, TOL),
    # the error over the smallest subnormal tolerance overflows without raising
    "historical-error-overflow": (make_historical(), 2.0, 0.0, 1.0, 0.1, 5e-324),
}


@pytest.mark.parametrize("case", sorted(_UNREAL_TRIALS))
def test_scalar_and_lane_steps_reject_a_trial_that_leaves_the_reals(case):
    problem, r, th, al, h, tol = _UNREAL_TRIALS[case]
    head = _head(problem)
    scalar = _kernels._attempt_step(*head, r, th, al, h, tol, _kernels.rhs(*head, r, al))
    y = np.array([[r], [th], [al]])
    k1 = np.empty_like(y)
    with np.errstate(all="ignore"):  # as in the lane kernel's loop
        _kernels._lane_rhs(*head, y, k1)
        y5, err, stages = _kernels._attempt_lanes(*head, y, np.array([h]), tol, k1)
    assert scalar[3] == err[0] == math.inf
    assert np.array_equal(scalar[:3], y5[:, 0], equal_nan=True)
    if np.isfinite(scalar[:3]).all():  # only the error overflowed: the state's RHS comes along
        assert scalar[4] == tuple(stages[-1, :, 0])
    else:
        assert scalar[4] is None
    assert _kernels._new_h(h, scalar[3]) == 0.5 * h


@pytest.mark.parametrize(
    "problem, r0",
    [(make_powerlaw(1.0, -2.0, 0.5), 5e-4), (make_vortex(1.0), 2e-4)],
    ids=["powerlaw-b-half", "vortex"],
)
def test_a_lane_into_the_core_does_not_depend_on_its_batch(monkeypatch, problem, r0):
    # heading pi dives into the core: alone, the lane runs in the scalar
    # stepper, whose trial steps meet a negative radius or r = 0 and must
    # halve as the numpy step's do, not raise
    trials = _spy(monkeypatch, "_attempt_step")
    alone, alone_status = _all_at_once(problem, r0, 0.0, [math.pi], np.array([[0.01]]))
    assert any(math.isnan(result[0]) for _, result in trials)  # a stage left the reals
    n = 20
    out, status = _all_at_once(problem, r0, 0.0, np.full(n, math.pi), np.full((n, 1), 0.01))
    assert alone_status.tolist() == [_kernels.STATUS_DOMAIN_EXIT]
    assert status.tolist() == [_kernels.STATUS_DOMAIN_EXIT] * n
    assert np.isnan(alone).all()
    assert np.array_equal(out, np.repeat(alone, n, axis=0), equal_nan=True)


@pytest.mark.parametrize("sampler", ["trajectory", "at-times", "dense-row"])
def test_rhs_once_at_start_and_at_most_six_per_trial_step(monkeypatch, sampler):
    # the step is first same as last: an accepted step hands its last stage
    # on as the next step's first, and a rejected trial keeps its first.  The
    # sampler lands on each time of a row, a dense row of 200 times included,
    # and carries the RHS from one landing to the next
    calls = {"rhs": 0, "trial": 0}
    rhs, attempt = _kernels.rhs, _kernels._attempt_step

    def counted_rhs(*args):
        calls["rhs"] += 1
        return rhs(*args)

    def counted_attempt(*args):
        calls["trial"] += 1
        return attempt(*args)

    monkeypatch.setattr(_kernels, "rhs", counted_rhs)
    monkeypatch.setattr(_kernels, "_attempt_step", counted_attempt)
    problem, start = make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0, 0.9)
    if sampler == "trajectory":
        _, _, status = _trajectory(problem, *start, 1.0)
    elif sampler == "at-times":
        _, _, status = _at_times(problem, *start, [0.1, 0.4, 1.0])
    else:
        _, status, _ = _kernels.rk45_at_times(
            *_head(problem), *start, np.linspace(0.0, 1.0, 200), 1e-7, *problem.domain
        )
    assert status == _kernels.STATUS_OK
    assert calls["trial"] > 10
    assert calls["rhs"] <= 1 + 6 * calls["trial"]


@pytest.mark.parametrize(
    "n_batch", [_kernels.TAIL_LANES - 1, _kernels.TAIL_LANES + 1, 4 * _kernels.TAIL_LANES + 3]
)
def test_lane_row_does_not_depend_on_its_batch(n_batch):
    # the batch shares the probe's row, and a third of it, with headings in
    # [-pi, -1.5], leaves the domain before t = 0.55, so the probe runs beside
    # a batch that shrinks around it; a shared row stays in the numpy loop
    # whatever its batch, the probe alone included
    problem = make_powerlaw(1.0, -3.0, 1.0)
    r0, th0 = 0.5, 0.0
    probe_alpha, probe_ts = 0.9, np.array([[0.0, 0.1, 0.25, 0.3, 0.55]])
    alone, alone_status = _all_at_once(problem, r0, th0, [probe_alpha], probe_ts)

    rng = np.random.default_rng(n_batch)
    alphas = rng.uniform(-math.pi, math.pi, n_batch)
    alphas[: n_batch // 3] = rng.uniform(-math.pi, -1.5, n_batch // 3)
    where = n_batch // 2
    alphas[where] = probe_alpha
    out, status = _all_at_once(problem, r0, th0, alphas, probe_ts)

    assert set(status[: n_batch // 3].tolist()) == {_kernels.STATUS_DOMAIN_EXIT}
    assert status[where] == alone_status[0] == _kernels.STATUS_OK
    assert np.array_equal(out[where], alone[0])


def test_targets_inside_steps_do_not_move_the_steps():
    # two targets inside every step the single-target row [T] takes: each of
    # its trial steps holds both, so the row takes those steps whole and lands
    # on T with the same bits as [T].  Each heading's row is shared by
    # 2 * TAIL_LANES copies of it, and by one lane alone
    problem, (r0, th0), t_end = make_vortex(1.0), (0.5, 0.0), 0.5
    for al in _headings(4).tolist():
        _, status, t, _ = _kernels.rk45_trajectory(
            *_head(problem), r0, th0, al, t_end, COARSE, *problem.domain
        )
        assert status == _kernels.STATUS_OK
        row = np.append((t[:-1, None] + np.array([0.25, 0.5]) * np.diff(t)[:, None]).ravel(), t_end)
        alphas = np.full(2 * _kernels.TAIL_LANES, al)
        dense, status = _all_at_once(problem, r0, th0, alphas, row[None, :], COARSE)
        single, _ = _all_at_once(
            problem, r0, th0, alphas, np.full((alphas.shape[0], 1), t_end), COARSE
        )
        assert set(status.tolist()) == {_kernels.STATUS_OK}
        assert np.array_equal(dense[:, -1], single[:, 0])
        alone, _ = _all_at_once(problem, r0, th0, [al], row[None, :], COARSE)
        assert np.array_equal(alone[0, -1], single[0, 0])


@pytest.mark.parametrize(
    "problem, q0",
    [(make_historical(), (0.0, 2.0)), (make_vortex(1.0), (0.5, 0.0))],
    ids=["historical", "vortex"],
)
def test_endpoints_take_one_shared_ascending_row_or_one_time_per_heading(problem, q0):
    headings = _headings(3)
    assert endpoints(problem, q0, headings, [0.0, 0.1, 0.1]).shape == (3, 3, 2)
    assert endpoints(problem, q0, headings, [[0.3], [0.1], [0.2]]).shape == (3, 1, 2)
    with pytest.raises(ValueError, match="ascending"):
        endpoints(problem, q0, headings, [0.0, 0.2, 0.1])
    with pytest.raises(ValueError, match="shape"):  # a row of its own for each heading
        endpoints(problem, q0, headings, np.tile([0.0, 0.1], (3, 1)))


def test_lane_step_evaluates_the_rhs_six_times(monkeypatch):
    # the lane step is first same as last: one RHS call per lane kernel at the
    # start, then 6 per pass until every lane of the shared row stops
    calls = {"rhs": 0, "pass": 0}
    lane_rhs, attempt = _kernels._lane_rhs, _kernels._attempt_lanes

    def counted_rhs(*args):
        calls["rhs"] += 1
        return lane_rhs(*args)

    def counted_attempt(*args):
        calls["pass"] += 1
        return attempt(*args)

    monkeypatch.setattr(_kernels, "_lane_rhs", counted_rhs)
    monkeypatch.setattr(_kernels, "_attempt_lanes", counted_attempt)
    problem, (r0, th0), alphas, ts, _, tol = LANE_CASES["vortex-grid-coarse"]
    _all_at_once(problem, r0, th0, alphas, ts, tol)
    assert calls["pass"] > 10
    assert calls["rhs"] == 1 + 6 * calls["pass"]


# dense rows against a 1e-13 reference, in units of tol * (1 + |y|), away
# from r = 0 where the vortex and powerlaw profiles blow up: the measured
# worst was 53 (powerlaw (2, -2, 1) at tol 1e-10); one sample per step
# (each time a row of its own) gave at most 9.2
DENSE_ERROR_BOUND = 60.0


@pytest.mark.parametrize("tol", [COARSE, TOL])
@pytest.mark.parametrize(
    "problem, start, t_end",
    [
        (make_historical(), (2.0, 0.0), 1.0),
        (make_vortex(1.0), (0.5, 0.0), 0.5),
        (make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0), 0.6),
        (make_powerlaw(2.0, -2.0, 1.0), (1.5, 0.0), 1.0),
    ],
    ids=["historical", "vortex", "powerlaw-3", "powerlaw-2"],
)
def test_dense_rows_agree_with_a_tight_reference(problem, start, t_end, tol):
    alphas = _headings(48)
    ts = np.linspace(0.0, t_end, 160)[None, :]
    out, _ = _all_at_once(problem, *start, alphas, ts, tol)
    ref, _ = _all_at_once(problem, *start, alphas, ts, 1e-13)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    away = ref[..., 0] > 0.2 if problem.family != "historical" else np.isfinite(ref[..., 0])
    err = np.abs(out - ref)[away] / (tol * (1.0 + np.abs(ref[away])))
    assert err.size > 0.5 * ref[..., 0].size
    assert np.max(err) <= DENSE_ERROR_BOUND


def test_shared_row_runs_in_the_numpy_loop_to_its_end(monkeypatch):
    # lanes of a shared row leave the domain on different passes, until fewer
    # than TAIL_LANES run; the rest still finish in the numpy loop
    problem, (r0, th0) = make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0)
    n = _kernels.TAIL_LANES + 4
    alphas = _headings(n)
    ts = np.linspace(0.0, 0.6, 16)[None, :]
    scalar = _spy(monkeypatch, "_attempt_step")
    passes = _spy(monkeypatch, "_attempt_lanes")
    out, status = _all_at_once(problem, r0, th0, alphas, ts)
    widths = [args[4].shape[1] for args, _ in passes]
    assert len(set(widths)) > 2 and widths[0] == n and widths[-1] < _kernels.TAIL_LANES
    assert {_kernels.STATUS_DOMAIN_EXIT, _kernels.STATUS_OK} <= set(status.tolist())
    assert not scalar
    monkeypatch.undo()
    ref, ref_status = _one_by_one(problem, r0, th0, alphas, ts)
    assert status.tolist() == ref_status.tolist()
    assert np.array_equal(out, ref, equal_nan=True)


@pytest.mark.parametrize(
    "ts",
    [np.linspace(0.6, 0.1, 6)[:, None], np.linspace(0.0, 0.6, 6)[None, :]],
    ids=["one-time-each", "shared-row"],
)
def test_lane_loop_stops_when_no_lane_runs_without_a_tail(monkeypatch, ts):
    # with TAIL_LANES = 0 no lane reaches the scalar stepper, and the loop
    # still returns once every lane has stopped, with the same bits; the
    # first three lanes head into the core and leave the domain
    problem, (r0, th0) = make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0)
    alphas = np.array([-3.1, -2.6, -2.0, 0.0, 1.0, 2.0])
    ref, ref_status = _all_at_once(problem, r0, th0, alphas, ts)
    monkeypatch.setattr(_kernels, "TAIL_LANES", 0)
    scalar = _spy(monkeypatch, "_attempt_step")
    out, status = _all_at_once(problem, r0, th0, alphas, ts)
    assert not scalar
    assert status.tolist() == ref_status.tolist()
    assert _kernels.STATUS_DOMAIN_EXIT in status.tolist()
    assert np.array_equal(out, ref, equal_nan=True)


@pytest.mark.parametrize(
    "ts",
    [[math.nan], [-0.1], [math.inf], [0.1, math.nan, 0.2], [[0.1], [math.nan], [0.2]]],
    ids=["nan", "negative", "inf", "nan-inside-a-row", "nan-for-one-heading"],
)
@pytest.mark.parametrize(
    "problem, q0",
    [(make_historical(), (0.0, 2.0)), (make_vortex(1.0), (0.5, 0.0))],
    ids=["historical", "vortex"],
)
def test_endpoints_reject_times_not_finite_and_non_negative(problem, q0, ts):
    # such a time would read as a position: the start point, a repeated
    # sample or a backward-time point
    with pytest.raises(ValueError, match="finite and non-negative"):
        endpoints(problem, q0, _headings(3), ts)
