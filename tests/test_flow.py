"""Extended-flow integration: closed forms, the numeric stepper, conserved data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zermelo import (
    DomainError,
    ExtendedState,
    StepControl,
    abnormal_headings,
    closed_form_trajectory,
    endpoints,
    extended_rhs,
    first_integral_residuals,
    integrate_closed_form_historical,
    integrate_numeric,
    make_adjoint,
    make_historical,
    make_powerlaw,
    make_vortex,
    state_at,
    wrap_angle,
)
from zermelo import closedform
from zermelo.closedform import historical_endpoints, historical_positions, historical_state

from conftest import angle_gap


# -- right-hand side ----------------------------------------------------------


def test_rhs_examples(historical, vortex):
    assert np.allclose(extended_rhs(historical, ExtendedState(0, 2, 0)), (3.0, 0.0, -1.0))
    assert np.allclose(
        extended_rhs(historical, ExtendedState(0, 2, math.pi / 2)), (2.0, 1.0, 0.0)
    )
    assert np.allclose(extended_rhs(vortex, ExtendedState(1, 0, 0)), (1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        extended_rhs(vortex, ExtendedState(-1.0, 0.0, 0.0))


# -- closed form ---------------------------------------------------------------


def test_closed_form_vertical():
    end = integrate_closed_form_historical(ExtendedState(0, 0, math.pi / 2), 2.0)
    assert np.allclose((end.c1, end.c2), (2.0, 2.0))
    assert end.heading == math.pi / 2
    end = integrate_closed_form_historical(ExtendedState(1, 3, -math.pi / 2), 2.0)
    assert np.allclose((end.c1, end.c2), (1 + 3 * 2 - 2.0, 1.0))


def test_closed_form_reaches_cusp_state():
    end = integrate_closed_form_historical(
        ExtendedState(0, 2, -2 * math.pi / 3), math.sqrt(3.0)
    )
    assert math.isclose(end.c2, 1.0, abs_tol=1e-12)
    assert angle_gap(end.heading, math.pi) < 1e-12


def test_closed_form_first_branch_height():
    end = integrate_closed_form_historical(ExtendedState(0, 0, 0), 1.0)
    assert math.isclose(end.c2, 1.0 - math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(end.heading, -math.pi / 4)


@pytest.mark.parametrize("g0", [0.0, 0.6, -1.2, 1.9, 2.8, -2.4, math.pi])
def test_closed_form_against_numeric_both_branches(historical, g0):
    # mutual cross-check of the two independent routes, both branch formulas
    state0 = ExtendedState(0.0, 2.0, g0)
    for t in (0.5, 1.5):
        exact = integrate_closed_form_historical(state0, t)
        numeric = integrate_numeric(historical, state0, t).final_state
        assert abs(exact.c1 - numeric.c1) < 1e-8
        assert abs(exact.c2 - numeric.c2) < 1e-8
        assert angle_gap(exact.heading, numeric.heading) < 1e-8


def test_almost_vertical_heading_stays_vertical():
    g0 = math.pi / 2 + 5e-13
    end = integrate_closed_form_historical(ExtendedState(0, 0, g0), 1.0)
    assert math.isclose(end.c2, 1.0, abs_tol=1e-9)
    assert angle_gap(end.heading, g0) < 1e-9


NEAR_VERTICAL = [
    base + delta
    for base in (math.pi / 2, -math.pi / 2)
    for delta in [0.0] + [sign * 10.0**-e for e in range(3, 16) for sign in (1.0, -1.0)]
]


@pytest.mark.parametrize("y0", [-1.5, 0.5, 2.0])
def test_closed_form_accurate_near_vertical(historical, y0):
    # steep headings make u0 = tan(gamma_0) huge; the closed form must not
    # lose digits to cancellation between terms of size u0^2
    control = StepControl(1e-13)
    for g0 in NEAR_VERTICAL:
        state0 = ExtendedState(0.3, y0, g0)
        traj = integrate_numeric(historical, state0, 2.5, control)
        pos = historical_endpoints(state0.c1, state0.c2, np.full_like(traj.t, g0), traj.t)
        assert np.max(np.abs(pos - traj.positions)) < 1e-9, g0
        for i in (len(traj) // 3, len(traj) - 1):
            end = historical_state(state0, traj.t[i])
            assert abs(end.c1 - traj.states[i, 0]) < 1e-9, g0
            assert abs(end.c2 - traj.states[i, 1]) < 1e-9, g0
            assert angle_gap(end.heading, traj.states[i, 2]) < 1e-9, g0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-math.pi + 1e-6, math.pi),
    st.floats(0.05, 1.5),
    st.floats(0.05, 1.5),
)
def test_closed_form_semigroup(g0, t1, t2):
    # flowing t1 then t2 equals flowing t1+t2: exercises branch bookkeeping
    s0 = ExtendedState(0.0, 2.0, g0)
    once = integrate_closed_form_historical(s0, t1 + t2)
    twice = integrate_closed_form_historical(integrate_closed_form_historical(s0, t1), t2)
    assert abs(once.c1 - twice.c1) < 1e-9
    assert abs(once.c2 - twice.c2) < 1e-9
    assert angle_gap(once.heading, twice.heading) < 1e-9


GRID_TIMES = np.linspace(0.0, 3.0, 300)
GRID_BLOCK = closedform.BLOCK // GRID_TIMES.shape[0]  # headings per block of a grid


def _block_headings(n, rng):
    """``n`` headings, the first two exactly vertical (``tan`` of the floats nearest +-pi/2)."""
    return np.concatenate(([math.pi / 2, -math.pi / 2], rng.uniform(-math.pi, math.pi, n)))[:n]


@pytest.mark.parametrize(
    "n_grid, n_lane",
    [(0, 0), (2, 2), (2 * GRID_BLOCK + 5, closedform.BLOCK + 3)],  # the last block is ragged
)
def test_closed_form_blocks_equal_one_unblocked_flow(n_grid, n_lane):
    rng = np.random.default_rng(n_lane)
    x0, y0 = 0.3, 2.0

    def same_bits(blocked, g0s, ts):
        whole = closedform._flow(x0, y0, g0s, ts)
        assert blocked.shape == whole.shape
        assert blocked.tobytes() == whole.tobytes()

    g0s = _block_headings(n_grid, rng)
    same_bits(
        historical_positions(x0, y0, g0s, GRID_TIMES), g0s[:, None], GRID_TIMES[None, :]
    )
    g0s = _block_headings(n_lane, rng)
    ts = rng.uniform(0.0, 3.0, (n_lane, 1))  # one time per heading
    same_bits(historical_endpoints(x0, y0, g0s[:, None], ts), g0s[:, None], ts)
    same_bits(historical_endpoints(x0, y0, g0s, ts[:, 0]), g0s, ts[:, 0])


# -- numeric integration --------------------------------------------------------


def test_numeric_requires_positive_time(historical):
    with pytest.raises(ValueError):
        integrate_numeric(historical, ExtendedState(0, 2, 0), 0.0)


def test_trajectory_time_grid(historical):
    traj = integrate_numeric(historical, ExtendedState(0, 2, 1.0), 1.0)
    assert traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.t[-1] == 1.0
    assert traj.status == "completed"
    assert np.all(traj.headings > -math.pi) and np.all(traj.headings <= math.pi)


def test_vortex_domain_exit(vortex):
    traj = integrate_numeric(vortex, ExtendedState(0.2, 0.0, math.pi), 0.5)
    assert traj.status == "domain-exit"
    assert traj.t_end < 0.5
    assert traj.final_state.c1 < 1e-5
    assert math.isclose(traj.t_end, 0.2, abs_tol=1e-3)


def _turning_abnormal(problem, q0):
    """An abnormal from ``q0`` whose radial velocity turns before t = 10: its
    start, its trajectory to t = 10 and the index of its first sample past the turn."""
    for h in abnormal_headings(problem, problem.radius_of(q0)):
        state = ExtendedState(*q0, h)
        full = integrate_numeric(problem, state, 10.0)
        radial = np.cos(problem.swap(*full.states.T)[2])
        flips = np.flatnonzero(radial[0] * radial[1:] < 0.0)
        if flips.size:
            return state, full, int(flips[0]) + 1
    raise AssertionError(f"no abnormal from {q0} turns before t = 10")


@pytest.mark.parametrize(
    "problem, q0",
    [
        (make_vortex(1.0), (0.5, 0.0)),
        (make_powerlaw(1.0, -3.0, 1.0), (0.3, 0.0)),
        (make_powerlaw(2.0, -2.0, 1.0), (1.5, 0.0)),
        (make_historical(), (0.0, 2.0)),  # the Cartesian chart: alpha is pi/2 - heading
    ],
    ids=["vortex", "powerlaw-3", "powerlaw-2", "historical"],
)
def test_radial_turn_stop_is_a_prefix_of_the_full_trajectory(problem, q0):
    state, full, first = _turning_abnormal(problem, q0)
    short = integrate_numeric(problem, state, 10.0, stop_at_radial_turn=True)
    assert short.status == "radial-turn"
    # its last sample is the first where cos(alpha) has flipped
    assert len(short) == first + 1
    assert np.array_equal(short.t, full.t[: first + 1])
    assert np.array_equal(short.states, full.states[: first + 1])


def test_radial_turn_stop_without_a_turn_runs_to_t_final(vortex):
    # r = sin(t + pi/6) from r0 = 1/2 turns at t = pi/3, after t_final = 0.5
    state = ExtendedState(0.5, 0.0, -math.pi / 6.0)
    short = integrate_numeric(vortex, state, 0.5, stop_at_radial_turn=True)
    full = integrate_numeric(vortex, state, 0.5)
    assert short.status == full.status == "completed"
    assert short.t_end == 0.5
    assert np.array_equal(short.states, full.states)
    # the same start turns once the horizon passes the cusp
    assert integrate_numeric(vortex, state, 1.5, stop_at_radial_turn=True).status == "radial-turn"


def test_residual_thresholds_exact_and_numeric(historical):
    exact = closed_form_trajectory(historical, ExtendedState(0, 2, 0.8), 2.0)
    for res in (
        exact.residuals.hamiltonian,
        exact.residuals.reduced_hamiltonian,
        exact.residuals.historical_invariant,
    ):
        assert np.nanmax(res) <= 1e-12
    numeric = integrate_numeric(historical, ExtendedState(0, 2, 0.8), 2.0)
    for res in (
        numeric.residuals.hamiltonian,
        numeric.residuals.reduced_hamiltonian,
        numeric.residuals.historical_invariant,
    ):
        assert np.nanmax(res) <= 1e-8


def test_vortex_conservation(vortex):
    traj = integrate_numeric(vortex, ExtendedState(1.0, 0.0, 1.1), 1.0)
    assert traj.status == "completed"
    assert np.nanmax(traj.residuals.reduced_hamiltonian) <= 1e-8
    assert np.nanmax(traj.residuals.hamiltonian) <= 1e-8
    assert np.all(np.isnan(traj.residuals.historical_invariant))


def test_residual_masks_near_heading_poles(historical):
    # heading locked to +-pi/2 in the chart: cos(gamma)=...=1, sin(alpha)=cos(gamma)
    traj = integrate_numeric(historical, ExtendedState(0, 2, math.pi / 2), 1.0)
    # gamma = pi/2 means cos(gamma) = 0: height integral & reduced form masked
    assert np.all(np.isnan(traj.residuals.reduced_hamiltonian))
    assert np.all(np.isnan(traj.residuals.historical_invariant))
    assert np.nanmax(traj.residuals.hamiltonian) <= 1e-10


def test_monotone_heading_historical(historical):
    for g0 in (-2.8, -1.0, 0.0, 1.3, 2.9):
        traj = integrate_numeric(historical, ExtendedState(0.0, 1.5, g0), 3.0)
        unwrapped = np.unwrap(traj.headings)
        assert np.all(np.diff(unwrapped) <= 1e-12)


def test_reflection_symmetry(historical):
    # (x, y, gamma) -> (-x, -y, gamma + pi) maps trajectories to trajectories:
    # cos and sin both flip sign while the heading equation is pi-periodic
    for g0, t in ((0.7, 1.3), (-2.2, 0.9), (math.pi / 2, 1.0)):
        a = integrate_closed_form_historical(ExtendedState(0.0, 2.0, g0), t)
        b = integrate_closed_form_historical(
            ExtendedState(0.0, -2.0, wrap_angle(g0 + math.pi)), t
        )
        assert math.isclose(a.c1, -b.c1, abs_tol=1e-9)
        assert math.isclose(a.c2, -b.c2, abs_tol=1e-9)
        assert angle_gap(a.heading, b.heading + math.pi) < 1e-9
        # and the numeric route respects the same symmetry
        na = integrate_numeric(historical, ExtendedState(0.0, 2.0, g0), t).final_state
        assert math.isclose(na.c1, -b.c1, abs_tol=1e-8)
        assert math.isclose(na.c2, -b.c2, abs_tol=1e-8)


def test_adjoint_values(historical):
    adj = make_adjoint(historical, ExtendedState(0.0, 2.0, -2.0 * math.pi / 3.0))
    assert math.isclose(adj.p_theta, math.cos(-2.0 * math.pi / 3.0), abs_tol=1e-15)
    assert abs(adj.p_zero) < 1e-15  # cost multiplier vanishes on the abnormal
    adj = make_adjoint(historical, ExtendedState(0.0, 0.5, 0.2))
    assert adj.p_zero < 0.0  # hyperbolic start


def test_first_integral_residuals_public_entry(historical):
    traj = integrate_numeric(historical, ExtendedState(0, 2, 0.8), 1.0)
    again = first_integral_residuals(historical, traj)
    assert np.allclose(
        again.hamiltonian, traj.residuals.hamiltonian, equal_nan=True
    )


# -- state_at / endpoints ---------------------------------------------------------


def test_state_at_matches_samples(historical, vortex):
    for problem, s0 in ((historical, ExtendedState(0, 2, 0.9)), (vortex, ExtendedState(1, 0, 0.9))):
        traj = integrate_numeric(problem, s0, 1.0)
        mid = 0.37
        s = state_at(traj, mid)
        ref = integrate_numeric(problem, s0, mid).final_state
        assert abs(s.c1 - ref.c1) < 1e-9
        assert abs(s.c2 - ref.c2) < 1e-9
        assert state_at(traj, float(traj.t[3])).c1 == traj.states[3, 0]


def test_endpoints_at_one_heading_and_time(historical, vortex):
    assert endpoints(historical, (0.0, 2.0), [1.0], [0.0])[0, 0].tolist() == [0.0, 2.0]
    pos = endpoints(historical, (0.0, 2.0), [math.pi / 2], [1.0])[0, 0]
    assert np.allclose(pos, (2.5, 3.0))
    # closed-form and numeric dispatch must agree
    twin = endpoints(historical, (0.0, 2.0), [0.6], [1.0])[0, 0]
    traj = integrate_numeric(historical, ExtendedState(0.0, 2.0, 0.6), 1.0)
    assert np.allclose(twin, traj.final_state.position, atol=1e-8)
    # a domain exit before the time asked for gives a nan row
    assert np.isnan(endpoints(vortex, (0.2, 0.0), [math.pi], [1.0])[0, 0]).all()


@pytest.mark.parametrize(
    "problem, q0",
    [
        (make_historical(), (0.0, 2.0)),
        (make_vortex(1.0), (0.5, 0.0)),
        (make_powerlaw(k=1.0, a=1.0, b=0.0), (0.5, 0.0)),
    ],
    ids=["historical", "vortex", "powerlaw"],
)
def test_endpoint_map_grid_and_paired_calls_agree(problem, q0):
    headings = np.linspace(-math.pi, math.pi, 24, endpoint=False)
    times = np.linspace(0.0, 1.2, 9)
    grid = endpoints(problem, q0, headings, times[None, :])
    assert grid.shape == (24, 9, 2)
    ii, jj = (a.ravel() for a in np.indices(grid.shape[:2]))
    paired = endpoints(problem, q0, headings[ii], times[jj][:, None])
    assert paired.shape == (ii.shape[0], 1, 2)
    grid, paired = grid[ii, jj], paired[:, 0]
    if problem.family == "historical":
        assert np.array_equal(grid, paired)
        return
    exited = np.isnan(grid[:, 0])
    assert exited.any() and not exited.all()  # some headings leave the domain before t
    assert np.array_equal(np.isnan(paired), np.isnan(grid))
    assert np.array_equal(np.isnan(grid).all(axis=1), exited)
    assert np.max(np.abs(grid[~exited] - paired[~exited])) < 1e-8


def test_state_at_rejects_times_outside_the_span():
    traj = integrate_numeric(make_vortex(1.0), ExtendedState(0.5, 0.0, 1.1), 0.5)
    for t in (-0.1, 0.6, math.nan):
        with pytest.raises(ValueError, match="outside trajectory span"):
            state_at(traj, t)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(0.0)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            StepControl(tol)
