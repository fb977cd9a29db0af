"""Cusp detection: analytic values, numeric agreement, invariance of abnormality."""

import math

import numpy as np
import pytest

from zermelo import (
    ExtendedState,
    NotAbnormalError,
    abnormal_headings,
    bracket_data,
    current_norm,
    cusp_historical,
    cusp_numeric,
    integrate_numeric,
    make_powerlaw,
    make_vortex,
    position_speed,
    state_at,
)
from zermelo.cusp import REFINE_WIDTH, CuspPoint

from conftest import angle_gap


def _cusped_heading(y0: float) -> float:
    """The abnormal heading whose forward flow reaches a cusp (tan > 0)."""
    g1, g2 = abnormal_headings_pair(y0)
    return g1 if math.tan(g1) > 0 else g2


def abnormal_headings_pair(y0):
    from zermelo import make_historical

    heads = abnormal_headings(make_historical(), y0)
    assert len(heads) == 2
    return heads


def test_analytic_cusp_examples():
    cp = cusp_historical(ExtendedState(0.0, 2.0, -2.0 * math.pi / 3.0))
    assert math.isclose(cp.t_cusp, math.sqrt(3.0), rel_tol=1e-12)
    assert cp.position[1] == 1.0
    assert angle_gap(cp.heading, math.pi) == 0.0
    assert cp.source == "analytic"

    cp = cusp_historical(ExtendedState(0.0, -2.0, math.pi / 3.0))
    assert math.isclose(cp.t_cusp, math.sqrt(3.0), rel_tol=1e-12)
    assert cp.position[1] == -1.0
    assert cp.heading == 0.0

    assert cusp_historical(ExtendedState(0.0, 2.0, 2.0 * math.pi / 3.0)) is None


def test_cusp_requires_abnormal_state():
    with pytest.raises(NotAbnormalError):
        cusp_historical(ExtendedState(0.0, 0.5, 1.0))
    from zermelo import make_historical

    with pytest.raises(NotAbnormalError):
        cusp_numeric(make_historical(), ExtendedState(0.0, 0.5, 1.0), 2.0)


def test_cusp_position_velocity_vanishes(historical):
    cp = cusp_historical(ExtendedState(0.0, 2.0, -2.0 * math.pi / 3.0))
    state = ExtendedState(cp.position[0], cp.position[1], cp.heading)
    assert position_speed(historical, state) <= 1e-12


@pytest.mark.parametrize("y0", [1.2, 2.0, 5.0])
def test_numeric_cusp_matches_analytic(historical, y0):
    g0 = _cusped_heading(y0)
    state0 = ExtendedState(0.0, y0, g0)
    analytic = cusp_historical(state0)
    numeric = cusp_numeric(historical, state0, 1.6 * analytic.t_cusp)
    assert abs(numeric.t_cusp - analytic.t_cusp) < 1e-6
    assert abs(numeric.position[0] - analytic.position[0]) < 1e-6
    assert abs(numeric.position[1] - analytic.position[1]) < 1e-6
    assert numeric.source == "numeric"
    # the cusp sits exactly on the strong/weak boundary
    assert abs(current_norm(historical, numeric.position[1]) - 1.0) < 1e-6


def test_numeric_cusp_none_before_cusp_time(historical):
    state0 = ExtendedState(0.0, 2.0, _cusped_heading(2.0))
    assert cusp_numeric(historical, state0, 0.8) is None


def test_abnormality_is_invariant_along_the_flow(historical):
    # D'' stays zero along an abnormal trajectory, well past the cusp
    state0 = ExtendedState(0.0, 2.0, _cusped_heading(2.0))
    traj = integrate_numeric(historical, state0, 2.0 * math.sqrt(3.0))
    worst = max(
        abs(bracket_data(historical, traj.state(i)).Dsecond) for i in range(len(traj))
    )
    assert worst <= 1e-8


def test_vortex_cusp_on_strong_boundary(vortex2):
    heads = abnormal_headings(vortex2, 1.0)
    outward = max(heads, key=lambda h: math.cos(h))
    cp = cusp_numeric(vortex2, ExtendedState(1.0, 0.0, outward), 4.0)
    assert cp is not None
    # for the vortex the norm-1 set is r = k
    assert abs(cp.position[0] - vortex2.k) < 1e-6
    assert abs(current_norm(vortex2, cp.position[0]) - 1.0) < 1e-6
    state = ExtendedState(cp.position[0], cp.position[1], cp.heading)
    assert position_speed(vortex2, state) <= 1e-8
    # the inward abnormal branch spirals into the vortex and exits instead
    inward = min(heads, key=lambda h: math.cos(h))
    assert cusp_numeric(vortex2, ExtendedState(1.0, 0.0, inward), 4.0) is None


@pytest.mark.parametrize(
    "problem, typed",
    [
        (make_vortex(1.0), ExtendedState(0.5, 0.0, -0.5236)),
        (make_powerlaw(1.0, -3.0, 1.0), ExtendedState(0.5, 0.0, -0.25268)),
    ],
)
def test_numeric_cusp_of_a_heading_typed_to_few_digits(problem, typed):
    # the CLI's 1e-4 tolerance accepts these headings as abnormal; the search
    # follows the exact abnormal next to them
    heading = min(abnormal_headings(problem, typed.c1), key=lambda h: angle_gap(h, typed.heading))
    exact = ExtendedState(typed.c1, typed.c2, heading)
    cp = cusp_numeric(problem, typed, 10.0, tol=1e-4)
    assert cp is not None
    assert abs(cp.t_cusp - cusp_numeric(problem, exact, 10.0).t_cusp) <= 1e-9


def test_no_numeric_cusp_without_an_abnormal_at_the_start(vortex):
    # just outside r = k the current is weak; a loose tol still tags the
    # tangent heading abnormal, but no abnormal geodesic starts there
    state = ExtendedState(1.001, 0.0, -math.pi / 2.0)
    assert abnormal_headings(vortex, 1.001) == ()
    assert cusp_numeric(vortex, state, 3.0, tol=1e-3) is None


def test_vortex_cusp_matches_closed_form(vortex):
    # r = k sin(t/k + phi) with sin(phi) = r0/k turns at r = k: t = pi/3 from r0 = k/2
    cp = cusp_numeric(vortex, ExtendedState(0.5, 0.0, -math.pi / 6.0), 10.0)
    assert abs(cp.t_cusp - math.pi / 3.0) <= 1e-8
    assert abs(cp.position[0] - vortex.k) <= 1e-8
    state = ExtendedState(cp.position[0], cp.position[1], cp.heading)
    assert cp.speed == position_speed(vortex, state)
    assert cp.speed <= 1e-7


@pytest.mark.parametrize("r0", [0.25, 0.3])
def test_powerlaw_cusp_from_deep_in_the_strong_region(r0):
    problem = make_powerlaw(1.0, -3.0, 1.0)
    found = [
        cp
        for h in abnormal_headings(problem, r0)
        if (cp := cusp_numeric(problem, ExtendedState(r0, 0.0, h), 10.0)) is not None
    ]
    assert len(found) == 1
    cp = found[0]
    assert abs(float(current_norm(problem, cp.position[0])) - 1.0) <= 1e-6
    # the search reports the position speed at the point it located
    state = ExtendedState(cp.position[0], cp.position[1], cp.heading)
    assert cp.speed == position_speed(problem, state)
    assert cp.speed <= 1e-7


def _cusp_on_full_trajectory(problem, state0, t_max):
    """The radial-turn search over the whole trajectory to ``t_max``."""
    heads = abnormal_headings(problem, problem.radius_of(state0.position))
    heading = min(heads, key=lambda h: angle_gap(h, state0.heading))
    traj = integrate_numeric(problem, ExtendedState(state0.c1, state0.c2, heading), t_max)
    radial = np.cos(problem.swap(*traj.states.T)[2])
    flips = np.flatnonzero(radial[0] * radial[1:] < 0.0)
    if flips.size == 0:
        return None
    lo, hi = float(traj.t[flips[0]]), float(traj.t[flips[0] + 1])
    while hi - lo > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        _, _, alpha_mid = problem.to_canonical(state_at(traj, mid))
        if (math.cos(alpha_mid) > 0.0) == (radial[0] > 0.0):
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    state = state_at(traj, t_star)
    return CuspPoint(
        t_star, state.position, state.heading, "numeric", position_speed(problem, state)
    )


@pytest.mark.parametrize(
    "problem, r0",
    [
        (make_vortex(1.0), 0.5),
        (make_powerlaw(1.0, -3.0, 1.0), 0.25),
        (make_powerlaw(1.0, -3.0, 1.0), 0.3),
        (make_powerlaw(2.0, -2.0, 1.0), 1.5),
    ],
)
def test_cusp_search_that_stops_at_the_turn_equals_the_full_search(problem, r0):
    # the steps before the radial turn do not depend on how far the
    # integration would go on, so stopping there changes no bit
    found = 0
    for h in abnormal_headings(problem, r0):
        state0 = ExtendedState(r0, 0.0, h)
        cp = cusp_numeric(problem, state0, 10.0)
        assert cp == _cusp_on_full_trajectory(problem, state0, 10.0)
        found += cp is not None
    assert found == 1
