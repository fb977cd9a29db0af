"""Cusp detection along abnormal geodesics.

An abnormal geodesic can develop a cusp: an interior time where the position
velocity vanishes and the curve reverses.  For the linear-shear problem the
cusp is analytic -- it occurs at ``t = tan(gamma_0)`` with the heading at
0 mod pi and the height driven onto the strong/weak boundary ``|y| = 1``.
For a general problem the cusp is located numerically as a zero of the
position speed, which is nonnegative and has a locally quadratic square, so
the search brackets a speed minimum and refines by bisection on the sign of
the derivative of the squared speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import ExtremalTag, classify
from .flow import GeodesicTrajectory, integrate_numeric, position_speed, state_at
from . import closedform
from .problems import ExtendedState, ProblemDefinition, make_historical

__all__ = ["CuspPoint", "NotAbnormalError", "cusp_historical", "cusp_numeric"]

SPEED_THRESHOLD = 1e-8
REFINE_WIDTH = 1e-12


class NotAbnormalError(ValueError):
    """The initial state does not lie on an abnormal geodesic."""


@dataclass(frozen=True)
class CuspPoint:
    """Time, position and heading of a detected cusp.

    At a cusp both position derivatives vanish; for the linear-shear problem
    the heading there is 0 mod pi and the position sits on the strong/weak
    boundary.
    """

    t_cusp: float
    position: tuple[float, float]
    heading: float
    source: str  # "analytic" | "numeric"


def _require_abnormal(problem: ProblemDefinition, state: ExtendedState, tol: float) -> None:
    tag = classify(problem, state, tol).tag
    if tag is not ExtremalTag.ABNORMAL:
        raise NotAbnormalError(
            f"state {state} classifies as {tag.value}; cusp search needs an abnormal heading"
        )


def cusp_historical(state0: ExtendedState, tol: float = 1e-9) -> CuspPoint | None:
    """Analytic forward cusp of a linear-shear abnormal geodesic, if any.

    Returns ``None`` when ``tan(gamma_0) <= 0`` (the cusp lies in backward
    time on that branch).
    """
    problem = make_historical()
    _require_abnormal(problem, state0, tol)
    t_cusp = closedform.cusp_time(state0.heading)
    if t_cusp <= 0.0:
        return None
    end = closedform.historical_state(state0, t_cusp)
    heading = 0.0 if abs(state0.heading) < 0.5 * math.pi else math.pi
    y_cusp = math.copysign(1.0, state0.c2)
    return CuspPoint(t_cusp, (end.c1, y_cusp), heading, "analytic")


def _speed_sq_slope(traj: GeodesicTrajectory, t: float, h: float) -> float:
    sp_plus = position_speed(traj.problem, state_at(traj, min(t + h, traj.t_end)))
    sp_minus = position_speed(traj.problem, state_at(traj, max(t - h, 0.0)))
    return sp_plus * sp_plus - sp_minus * sp_minus


def cusp_numeric(
    problem: ProblemDefinition,
    state0: ExtendedState,
    t_max: float,
    tol: float = 1e-9,
) -> CuspPoint | None:
    """First forward cusp of an abnormal geodesic, located numerically.

    Integrates to ``t_max`` (a domain exit just truncates the scan), walks
    the speed samples for interior minima, refines each bracket by bisection
    on the sign of d(speed^2)/dt down to 1e-12 in t, and accepts the first
    refined minimum whose speed falls below 1e-8.
    """
    _require_abnormal(problem, state0, tol)
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    traj = integrate_numeric(problem, state0, t_max)
    speeds = np.array([position_speed(problem, traj.state(i)) for i in range(len(traj))])
    for i in range(1, len(traj) - 1):
        if not (speeds[i] < speeds[i - 1] and speeds[i] <= speeds[i + 1]):
            continue
        lo, hi = float(traj.t[i - 1]), float(traj.t[i + 1])
        fd_h = 1e-7 * max(1.0, hi)
        if _speed_sq_slope(traj, lo, fd_h) > 0.0 or _speed_sq_slope(traj, hi, fd_h) < 0.0:
            continue  # not a genuine interior minimum of the squared speed
        while hi - lo > REFINE_WIDTH:
            mid = 0.5 * (lo + hi)
            if _speed_sq_slope(traj, mid, fd_h) < 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        state = state_at(traj, t_star)
        if position_speed(problem, state) <= SPEED_THRESHOLD:
            return CuspPoint(t_star, state.position, state.heading, "numeric")
    return None
