"""Bracket determinants of the heading-extended system and the classification they induce.

Extending the planar dynamics with the heading angle as a third state turns
the problem into a single-input affine system whose structure is captured by
three determinants ``D``, ``D'`` and ``D''`` built from iterated brackets of
the drift and the heading field.  In canonical ``(r, theta, alpha)``
coordinates they evaluate in closed form:

    D   = 1 / m(r)
    D'  = -mu'(r) sin(alpha)^2 + m'(r) sin(alpha) / m(r)^2
    D'' = mu(r) sin(alpha) + 1 / m(r)

``D > 0`` everywhere, so the sign of ``D * D''`` splits headings into
hyperbolic (time-minimizing candidates) and elliptic (time-maximizing)
classes, while ``D'' = 0`` carries the abnormal headings.  In the Cartesian
chart the heading runs opposite to alpha, which flips the sign of ``D'``
(and of the feedback) but leaves ``D`` and ``D''`` unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .problems import ExtendedState, ProblemDefinition, current_norm, wrap_angle

__all__ = [
    "BracketData",
    "ExtremalClass",
    "ExtremalTag",
    "abnormal_headings",
    "bracket_data",
    "classify",
    "singular_feedback",
]

# current norms within this of 1 give the single tangent abnormal heading
TANGENT_TOL = 1e-9


@dataclass(frozen=True)
class BracketData:
    """The three bracket determinants evaluated at one extended state."""

    D: float
    Dprime: float
    Dsecond: float
    at: ExtendedState


class ExtremalTag(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    ABNORMAL = "abnormal"


@dataclass(frozen=True)
class ExtremalClass:
    tag: ExtremalTag
    data: BracketData


def bracket_data(problem: ProblemDefinition, state: ExtendedState) -> BracketData:
    """Evaluate D, D', D'' from the closed formulas (no numeric differentiation)."""
    r, _, alpha = problem.to_canonical(state)
    m, m_prime, mu, mu_prime = problem.profile(r)
    sa = math.sin(alpha)
    d = 1.0 / m
    dprime = problem.heading_sign * (-mu_prime * sa * sa + m_prime * sa / (m * m))
    dsecond = mu * sa + 1.0 / m
    return BracketData(d, dprime, dsecond, state)


def classify(problem: ProblemDefinition, state: ExtendedState, tol: float = 1e-9) -> ExtremalClass:
    """Tag a state hyperbolic / elliptic / abnormal by the sign structure of D''.

    The abnormality test is relative, scaled by ``1 + |mu| m``, because D''
    mixes an O(1) term with an O(|mu| m) one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"classification tolerance must be positive and finite, got {tol!r}")
    data = bracket_data(problem, state)
    scale = 1.0 + float(current_norm(problem, problem.radius_of(state.position)))
    if abs(data.Dsecond) <= tol * scale:
        tag = ExtremalTag.ABNORMAL
    elif data.D * data.Dsecond > 0.0:
        tag = ExtremalTag.HYPERBOLIC
    else:
        tag = ExtremalTag.ELLIPTIC
    return ExtremalClass(tag, data)


def abnormal_headings(problem: ProblemDefinition, r: float) -> tuple[float, ...]:
    """Chart headings at radius r for which D'' vanishes.

    Empty in the weak-current region, a single tangent heading where
    ``|mu| m = 1`` (within ``TANGENT_TOL``), and two headings with equal
    heading-sine in the strong region.  Headings are returned ascending in
    the problem's chart convention.
    """
    m, _, mu, _ = problem.profile(r)
    product = float(mu) * float(m)
    norm = abs(product)  # the current norm |mu| m, as m > 0
    if abs(norm - 1.0) <= TANGENT_TOL:
        alpha = math.asin(math.copysign(1.0, -product))
        return (float(problem.swap_heading(alpha)),)
    if norm < 1.0:
        return ()
    alpha1 = math.asin(-1.0 / product)
    alpha2 = float(wrap_angle(math.pi - alpha1))
    return tuple(sorted(float(problem.swap_heading(alpha)) for alpha in (alpha1, alpha2)))


def singular_feedback(problem: ProblemDefinition, state: ExtendedState) -> float:
    """Heading-rate feedback -D'/D, in the chart's own heading convention.

    This is one of two routes to the heading equation of the flow; the other
    is the third component of the extended right-hand side.  They agree
    identically.
    """
    data = bracket_data(problem, state)
    return -data.Dprime / data.D
