"""Cusp detection along abnormal geodesics.

An abnormal geodesic can develop a cusp: an interior time where the position
velocity vanishes and the curve reverses.  For the linear-shear problem the
cusp is analytic -- it occurs at ``t = tan(gamma_0)`` with the heading at
0 mod pi and the height driven onto the strong/weak boundary ``|y| = 1``.
For a general problem the cusp is located numerically.  On an abnormal
``sin(alpha) = -1/(m mu)``, so the radial velocity ``cos(alpha)`` can vanish
only where ``|m mu| = 1``, on the strong/weak boundary, and the position
speed is zero there: the first sign change of ``cos(alpha)`` is the cusp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import ExtremalTag, abnormal_headings, classify
from .flow import integrate_numeric, position_speed, state_at
from . import closedform
from .problems import ExtendedState, ProblemDefinition, make_historical, wrap_angle

__all__ = ["CuspPoint", "NotAbnormalError", "cusp_historical", "cusp_numeric"]

REFINE_WIDTH = 1e-12


class NotAbnormalError(ValueError):
    """The initial state does not lie on an abnormal geodesic."""


@dataclass(frozen=True)
class CuspPoint:
    """Time, position and heading of a detected cusp.

    At a cusp both position derivatives vanish; for the linear-shear problem
    the heading there is 0 mod pi and the position sits on the strong/weak
    boundary.  ``speed`` is the position speed at the located point, the
    residual of a numeric search (0 for the analytic cusp).
    """

    t_cusp: float
    position: tuple[float, float]
    heading: float
    source: str  # "analytic" | "numeric"
    speed: float = 0.0


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


def cusp_numeric(
    problem: ProblemDefinition,
    state0: ExtendedState,
    t_max: float,
    tol: float = 1e-9,
) -> CuspPoint | None:
    """First forward cusp of an abnormal geodesic, located numerically.

    Replaces the heading by the nearest exact abnormal heading at the start
    radius, integrates up to the first stored step where the radial
    velocity ``cos(alpha)`` changes sign (or to ``t_max``; a domain exit
    just truncates the scan), brackets that sign change between the last
    two steps and bisects on its sign down to 1e-12 in t.
    Returns ``None`` when the radial velocity keeps its sign, or when no
    abnormal heading exists at the start radius.
    """
    _require_abnormal(problem, state0, tol)
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    heads = abnormal_headings(problem, problem.radius_of(state0.position))
    if not heads:  # a weak-current start, tagged abnormal only under a loose tol
        return None
    heading = min(heads, key=lambda h: abs(wrap_angle(h - state0.heading)))
    traj = integrate_numeric(
        problem, ExtendedState(state0.c1, state0.c2, heading), t_max, stop_at_radial_turn=True
    )
    _, _, alpha = problem.swap(*traj.states.T)
    radial = np.cos(alpha)
    flips = np.flatnonzero(radial[0] * radial[1:] < 0.0)
    if flips.size == 0:
        return None
    outward = radial[0] > 0.0
    lo, hi = float(traj.t[flips[0]]), float(traj.t[flips[0] + 1])
    while hi - lo > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        _, _, alpha_mid = problem.to_canonical(state_at(traj, mid))
        if (math.cos(alpha_mid) > 0.0) == outward:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    state = state_at(traj, t_star)
    speed = position_speed(problem, state)
    return CuspPoint(t_star, state.position, state.heading, "numeric", speed)
