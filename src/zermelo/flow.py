"""Extended geodesic flow: numeric integration, closed forms and conserved data.

Geodesic candidates of the navigation problem are the trajectories of the
three-dimensional heading-extended system.  Rotational symmetry conserves
the angular adjoint ``p_theta = m(r_0) sin(alpha_0)`` (the multiplier is
normalized to 1 at the start, fixing ``p0 = -1 - p_theta mu(r_0)``), and the
radial adjoint is reconstructed pointwise from the heading instead of being
integrated: that keeps the state three-dimensional and ``p_theta`` exactly
constant.  Conservation is monitored through residuals, never enforced.

Numeric trajectories, samples and endpoints come from the drivers of
``_kernels``, which own the stepper's limits and return the samples they
allocate; this module passes them the tolerance of a ``StepControl`` and
the problem's domain.  Times and tolerances must be positive and finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, closedform
from .problems import ExtendedState, ProblemDefinition

__all__ = [
    "AdjointInit",
    "GeodesicTrajectory",
    "IntegrationError",
    "Residuals",
    "StepControl",
    "closed_form_trajectory",
    "endpoints",
    "extended_rhs",
    "first_integral_residuals",
    "integrate_closed_form_historical",
    "integrate_numeric",
    "make_adjoint",
    "position_speed",
    "state_at",
]

METHOD_CLOSED_FORM = "closed-form"
METHOD_NUMERIC_RK = "numeric-rk"

STATUS_NAMES = {
    _kernels.STATUS_OK: "completed",
    _kernels.STATUS_DOMAIN_EXIT: "domain-exit",
    _kernels.STATUS_STEP_COLLAPSE: "step-collapse",
    _kernels.STATUS_MAX_STEPS: "max-steps",
    _kernels.STATUS_RADIAL_TURN: "radial-turn",
}

# residual masks: both conserved relations have removable poles at these angles
SIN_ALPHA_FLOOR = 1e-6


class IntegrationError(RuntimeError):
    """An endpoint was requested past the point where integration halted."""

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class StepControl:
    """Error tolerance of the adaptive 5(4) stepper, relative and absolute alike."""

    tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"step-control tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True)
class AdjointInit:
    """Conserved adjoint data fixed at the start of a trajectory.

    ``p_theta`` is the angular momentum conjugate to the symmetry,
    ``p_zero`` the cost multiplier; the initial covector norm is normalized
    to 1.
    """

    p_theta: float
    p_zero: float


def make_adjoint(problem: ProblemDefinition, state: ExtendedState) -> AdjointInit:
    r, _, alpha = problem.to_canonical(state)
    m, _, mu, _ = problem.profile(r)
    p_theta = float(m) * math.sin(alpha)
    return AdjointInit(p_theta=p_theta, p_zero=-1.0 - p_theta * float(mu))


@dataclass
class Residuals:
    """Per-sample defects of the conserved relations; nan marks a masked sample.

    ``hamiltonian``            |p_r cos(a) + p_theta (mu + sin(a)/m) + p0|
    ``reduced_hamiltonian``    |p_theta (mu + 1/(m sin(a))) + p0|
    ``historical_invariant``   |y + 1/cos(gamma) - C0|  (linear-shear problem only)
    """

    hamiltonian: np.ndarray
    reduced_hamiltonian: np.ndarray
    historical_invariant: np.ndarray


@dataclass
class GeodesicTrajectory:
    """Time-sampled extended states with their conserved quantities.

    ``states`` holds chart coordinates, one row per sample, heading wrapped
    to (-pi, pi]; ``t`` is strictly increasing from 0.  ``status`` records
    whether integration finished or halted (domain exit, step collapse).
    """

    problem: ProblemDefinition
    t: np.ndarray
    states: np.ndarray
    adjoint: AdjointInit
    method: str
    status: str
    control: StepControl

    @functools.cached_property
    def residuals(self) -> Residuals:
        """Defects of the conserved relations, computed on first read."""
        return first_integral_residuals(self.problem, self)

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def state(self, i: int) -> ExtendedState:
        c1, c2, h = self.states[i]
        return ExtendedState(float(c1), float(c2), float(h))

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, :2]

    @property
    def headings(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def final_state(self) -> ExtendedState:
        return self.state(len(self) - 1)


def extended_rhs(problem: ProblemDefinition, state: ExtendedState) -> tuple[float, float, float]:
    """Right-hand side of the extended dynamics in the problem's chart."""
    r, _, alpha = problem.to_canonical(state)
    problem.check_domain(r)
    dr, dth, dal = _kernels.rhs(problem.code, problem.k, problem.a, problem.b, r, alpha)
    d1, d2, _ = problem.swap(dr, dth, 0.0)
    return d1, d2, problem.heading_sign * dal


def position_speed(problem: ProblemDefinition, state: ExtendedState) -> float:
    """Metric norm of the position velocity, sqrt(r'^2 + m^2 theta'^2)."""
    r, _, alpha = problem.to_canonical(state)
    m, _, mu, _ = problem.profile(r)
    return math.hypot(math.cos(alpha), float(m) * float(mu) + math.sin(alpha))


def first_integral_residuals(problem: ProblemDefinition, traj: GeodesicTrajectory) -> Residuals:
    """Defects of the conserved relations at every sample of a trajectory.

    Samples where a relation has a removable pole (|sin alpha| or
    |cos gamma| at or below 1e-6) are masked with nan rather than evaluated.
    """
    r, _, alpha = problem.swap(*traj.states.T)
    n = r.shape[0]
    if n == 0:
        empty = np.empty(0)
        return Residuals(empty.copy(), empty.copy(), empty.copy())
    m, _, mu, _ = problem.profile(r)
    sin_a = np.sin(alpha)
    cos_a = np.cos(alpha)
    p_theta = traj.adjoint.p_theta
    p_zero = traj.adjoint.p_zero

    res_h = np.full(n, np.nan)
    res_red = np.full(n, np.nan)
    res_hist = np.full(n, np.nan)

    mask = np.abs(sin_a) > SIN_ALPHA_FLOOR
    if p_theta == 0.0:
        # heading locked to 0 mod pi: the covector norm stays exactly 1
        res_h = np.abs(cos_a * cos_a + p_zero)
    elif np.any(mask):
        lam = p_theta / (m[mask] * sin_a[mask])
        p_r = lam * cos_a[mask]
        res_h[mask] = np.abs(
            p_r * cos_a[mask] + p_theta * (mu[mask] + sin_a[mask] / m[mask]) + p_zero
        )
        res_red[mask] = np.abs(p_theta * (mu[mask] + 1.0 / (m[mask] * sin_a[mask])) + p_zero)

    if problem.family == "historical":
        # conserved height y + 1/cos(gamma); cos(gamma) = sin(alpha) here
        cos_g0 = sin_a[0]
        if abs(cos_g0) > SIN_ALPHA_FLOOR:
            c0 = r[0] + 1.0 / cos_g0
            res_hist[mask] = np.abs(r[mask] + 1.0 / sin_a[mask] - c0)
    return Residuals(res_h, res_red, res_hist)


def _step_args(problem: ProblemDefinition, control: StepControl) -> tuple:
    """Kernel arguments after the start and the times: the tolerance and the domain."""
    return (control.tol, *problem.domain)


def integrate_numeric(
    problem: ProblemDefinition,
    state0: ExtendedState,
    t_final: float,
    control: StepControl | None = None,
    *,
    stop_at_radial_turn: bool = False,
) -> GeodesicTrajectory:
    """Adaptive 5(4) trajectory storing every accepted step.

    Halts with a ``domain-exit`` status (partial trajectory, no exception)
    when the radius reaches the domain boundary, and ``step-collapse`` when
    the step size underflows away from it.  With ``stop_at_radial_turn``
    it ends with status ``radial-turn`` at the first stored step where
    ``cos(alpha)`` has the opposite sign to the start's; its samples are a
    prefix, bit for bit, of the trajectory to ``t_final``.
    """
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final!r}")
    control = control or StepControl()
    r0, th0, al0 = problem.to_canonical(state0)
    problem.check_domain(r0)
    head = (problem.code, problem.k, problem.a, problem.b, float(r0), float(th0), float(al0))
    _, status, t, y = _kernels.rk45_trajectory(
        *head, float(t_final), *_step_args(problem, control), stop_at_radial_turn
    )
    return GeodesicTrajectory(
        problem=problem,
        t=t,
        states=np.stack(problem.swap(*y.T), axis=-1),
        adjoint=make_adjoint(problem, state0),
        method=METHOD_NUMERIC_RK,
        status=STATUS_NAMES[status],
        control=control,
    )


def integrate_closed_form_historical(state0: ExtendedState, t: float) -> ExtendedState:
    """Exact flow of the linear-shear problem over time ``t`` (Cartesian chart)."""
    return closedform.historical_state(state0, float(t))


def closed_form_trajectory(
    problem: ProblemDefinition,
    state0: ExtendedState,
    t_final: float,
    n_samples: int = 512,
) -> GeodesicTrajectory:
    """Closed-form trajectory sampled on a uniform time grid."""
    if problem.family != "historical":
        raise ValueError("closed-form trajectories exist only for the historical problem")
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final!r}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, float(t_final), int(n_samples))
    states = closedform._flow(state0.c1, state0.c2, state0.heading, ts, heading=True)
    return GeodesicTrajectory(
        problem=problem,
        t=ts,
        states=states,
        adjoint=make_adjoint(problem, state0),
        method=METHOD_CLOSED_FORM,
        status="completed",
        control=StepControl(),
    )


def endpoints(
    problem: ProblemDefinition,
    q0,
    headings,
    ts,
    control: StepControl | None = None,
) -> np.ndarray:
    """Positions reached from ``q0`` with initial ``headings`` at times ``ts``.

    ``headings`` has shape (n,); ``ts`` is one ascending row of times shared
    by every heading, (m,) or (1, m), or one time per heading, (n, 1); any
    other shape, a descending row, or a time that is nan, infinite or
    negative is a ``ValueError``.  Returns an (n, m, 2) array, nan where a
    trajectory halted (left the domain) before the time asked for.  This is
    the one place that picks the closed form (historical problem) or the
    numeric integrator.
    """
    x0, y0 = float(q0[0]), float(q0[1])
    r0, th0, _ = problem.swap(x0, y0, 0.0)
    problem.check_domain(r0)
    headings = np.asarray(headings, dtype=float)
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    if ts.ndim != 2 or (ts.shape[0] != 1 and ts.shape != (headings.shape[0], 1)):
        raise ValueError(f"times must be one shared row or one per heading, got shape {ts.shape}")
    if not np.all((ts >= 0.0) & (ts < math.inf)):  # nan fails too
        raise ValueError("times must be finite and non-negative")
    if np.any(np.diff(ts[:1]) < 0.0):
        raise ValueError("the row of times must be ascending")
    if problem.family == "historical":
        if ts.shape[0] == 1:  # one row of times for all headings: the grid form
            return closedform.historical_positions(x0, y0, headings, ts[0])
        return closedform.historical_endpoints(x0, y0, headings[:, None], ts)
    # one call of the lane kernel; a lane's samples do not depend on its batch
    _, out = _kernels.rk45_lanes(
        problem.code, problem.k, problem.a, problem.b, r0, th0, problem.swap_heading(headings),
        ts, *_step_args(problem, control or StepControl()),
    )
    c1, c2, _ = problem.swap(out[..., 0], out[..., 1], 0.0)
    return np.stack((c1, c2), axis=-1)


def state_at(traj: GeodesicTrajectory, t: float) -> ExtendedState:
    """Extended state of a trajectory at an arbitrary time within its span.

    Closed-form trajectories re-evaluate exactly; numeric ones re-integrate
    from the nearest stored sample at the trajectory's own tolerances, in
    one call of the scalar stepper (one short lane costs less there than in
    the lane kernel).
    """
    if not 0.0 <= t <= traj.t_end + 1e-12:  # nan fails too
        raise ValueError(f"time {t!r} outside trajectory span [0, {traj.t_end}]")
    if traj.method == METHOD_CLOSED_FORM:
        return closedform.historical_state(traj.state(0), float(t))
    idx = int(np.searchsorted(traj.t, t, side="right") - 1)
    idx = max(0, min(idx, len(traj) - 1))
    if traj.t[idx] == t:
        return traj.state(idx)
    problem = traj.problem
    r0, th0, al0 = problem.to_canonical(traj.state(idx))
    problem.check_domain(r0)
    dt = float(t - traj.t[idx])
    head = (problem.code, problem.k, problem.a, problem.b, float(r0), float(th0), float(al0))
    filled, status, out = _kernels.rk45_at_times(
        *head, np.array([dt]), *_step_args(problem, traj.control)
    )
    if not filled:
        name = STATUS_NAMES[status]
        raise IntegrationError(f"integration halted before t={dt} ({name})", name)
    return ExtendedState(*problem.swap(*out[0]))
